"""The IR context: a registry of dialects known to the compiler.

Registering an IRDL file with a context is the runtime analogue of
"writing, compiling, and linking several complex C++ or TableGen files"
(§3): afterwards the context can build, parse, print, and verify
operations of the new dialect without any recompilation step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.ir.attributes import Attribute
from repro.ir.dialect import (
    AttrDefBinding,
    DialectBinding,
    EnumBinding,
    OpDefBinding,
)
from repro.ir.exceptions import UnregisteredConstructError
from repro.ir.uniquer import DEFAULT_UNIQUER, AttributeUniquer

if TYPE_CHECKING:
    from repro.ir.block import Block
    from repro.ir.location import Location
    from repro.ir.operation import Operation
    from repro.ir.region import Region
    from repro.ir.value import SSAValue


class Context:
    """Holds the set of registered dialects.

    With ``allow_unregistered=True`` the context tolerates operations and
    dialects it does not know, which mirrors MLIR's
    ``allowUnregisteredDialects`` testing facility.

    Each context carries an :class:`AttributeUniquer` (shared with the
    process-wide default unless a private one is passed), mirroring
    MLIR's per-``MLIRContext`` uniqued storage: attributes built through
    the context's factories are interned so structurally equal instances
    are identical.
    """

    def __init__(
        self,
        allow_unregistered: bool = False,
        uniquer: AttributeUniquer | None = None,
    ):
        self.dialects: dict[str, DialectBinding] = {}
        self.allow_unregistered = allow_unregistered
        self.uniquer = uniquer if uniquer is not None else DEFAULT_UNIQUER

    def intern(self, attr: Attribute) -> Attribute:
        """The canonical instance of ``attr`` in this context's uniquer."""
        return self.uniquer.intern(attr)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_dialect(self, dialect: DialectBinding) -> DialectBinding:
        if dialect.name in self.dialects:
            raise UnregisteredConstructError(
                f"dialect {dialect.name!r} is already registered"
            )
        self.dialects[dialect.name] = dialect
        return dialect

    def get_dialect(self, name: str) -> DialectBinding | None:
        return self.dialects.get(name)

    # ------------------------------------------------------------------
    # Lookup by qualified name
    # ------------------------------------------------------------------

    def get_op_def(self, qualified_name: str) -> OpDefBinding | None:
        dialect_name, _, base = qualified_name.partition(".")
        dialect = self.dialects.get(dialect_name)
        if dialect is None:
            return None
        return dialect.operations.get(base)

    def get_type_def(self, qualified_name: str) -> AttrDefBinding | None:
        dialect_name, _, base = qualified_name.partition(".")
        dialect = self.dialects.get(dialect_name)
        if dialect is None:
            return None
        return dialect.types.get(base)

    def get_attr_def(self, qualified_name: str) -> AttrDefBinding | None:
        dialect_name, _, base = qualified_name.partition(".")
        dialect = self.dialects.get(dialect_name)
        if dialect is None:
            return None
        return dialect.attributes.get(base)

    def get_type_or_attr_def(self, qualified_name: str) -> AttrDefBinding | None:
        return self.get_type_def(qualified_name) or self.get_attr_def(
            qualified_name
        )

    def get_enum(self, qualified_name: str) -> EnumBinding | None:
        dialect_name, _, base = qualified_name.partition(".")
        dialect = self.dialects.get(dialect_name)
        if dialect is None:
            return None
        return dialect.enums.get(base)

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    def create_operation(
        self,
        name: str,
        operands: Sequence["SSAValue"] = (),
        result_types: Sequence[Attribute] = (),
        attributes: Mapping[str, Attribute] | None = None,
        successors: Sequence["Block"] = (),
        regions: Sequence["Region"] = (),
        location: "Location | None" = None,
    ) -> "Operation":
        """Create an operation, binding it to its registered definition.

        Raises :class:`UnregisteredConstructError` for unknown operations
        unless the context allows unregistered constructs.
        """
        from repro.ir.operation import Operation

        return Operation(
            name,
            operands=operands,
            result_types=result_types,
            attributes=attributes,
            successors=successors,
            regions=regions,
            definition=self.resolve_op_def(name),
            location=location,
        )

    def resolve_op_def(self, name: str) -> OpDefBinding | None:
        """The definition operations named ``name`` bind to.

        ``None`` for an unknown operation in a context that allows
        unregistered constructs; otherwise an unknown name raises
        :class:`UnregisteredConstructError`.
        """
        definition = self.get_op_def(name)
        if definition is None and not self.allow_unregistered:
            raise UnregisteredConstructError(
                f"operation {name!r} is not registered "
                f"(known dialects: {sorted(self.dialects)})"
            )
        return definition

    def make_type(self, qualified_name: str, parameters: Sequence[Any] = ()) -> Attribute:
        """Instantiate a registered type by name (uniqued)."""
        type_def = self.get_type_def(qualified_name)
        if type_def is None:
            raise UnregisteredConstructError(
                f"type {qualified_name!r} is not registered"
            )
        return self.uniquer.intern(type_def.instantiate(parameters))

    def make_attr(self, qualified_name: str, parameters: Sequence[Any] = ()) -> Attribute:
        """Instantiate a registered attribute by name (uniqued)."""
        attr_def = self.get_attr_def(qualified_name)
        if attr_def is None:
            raise UnregisteredConstructError(
                f"attribute {qualified_name!r} is not registered"
            )
        return self.uniquer.intern(attr_def.instantiate(parameters))

    def clone(self) -> "Context":
        """A shallow copy sharing dialect bindings (cheap forking).

        The clone shares this context's uniquer: attributes interned
        through either context stay identical across both.
        """
        new = Context(
            allow_unregistered=self.allow_unregistered, uniquer=self.uniquer
        )
        new.dialects = dict(self.dialects)
        return new

    def __repr__(self) -> str:
        return f"<Context with dialects {sorted(self.dialects)}>"
