"""Dynamic dialect instantiation (§3).

Registering an IRDL file with a context replaces the traditional
"write, compile, and link several complex C++ or TableGen files" loop:
all data structures are instantiated at runtime and the compiler is
immediately prepared to build, parse, print, and verify IR of the new
dialect.

From one :class:`~repro.irdl.defs.DialectDef` this module derives the
three artefacts §3 lists:

1. parsers and printers — generic syntax for free, plus declarative
   ``Format`` programs where declared;
2. data structures — :class:`DynamicTypeAttribute` /
   :class:`DynamicParametrizedAttribute` instances with named parameter
   accessors;
3. verifiers — generated from the declared constraints.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.ir.attributes import (
    Attribute,
    DynamicParametrizedAttribute,
    DynamicTypeAttribute,
)
from repro.ir.context import Context
from repro.ir.dialect import (
    AttrDefBinding,
    DialectBinding,
    EnumBinding,
    OpDefBinding,
)
from repro.ir.exceptions import UnregisteredConstructError, VerifyError
from repro.ir.uniquer import intern as uniquer_intern
from repro.irdl import ast
from repro.irdl.constraints import ConstraintContext
from repro.irdl.defs import DialectDef, OpDef, TypeDef
from repro.irdl.format import FormatProgram
from repro.irdl.irdl_py import AttrProxy, compile_predicate
from repro.irdl.parser import parse_irdl
from repro.irdl.plan import SignatureMemo
from repro.irdl.resolver import Scope, resolve_dialect_body
from repro.irdl.verifier import make_op_verifier
from repro.obs import timing as _timing
from repro.obs.instrument import OBS


class DynamicAttrDef(AttrDefBinding):
    """A type/attribute binding generated from an IRDL definition."""

    def __init__(self, type_def_ast: ast.TypeDecl, dialect_name: str):
        super().__init__(
            f"{dialect_name}.{type_def_ast.name}",
            is_type=type_def_ast.is_type,
            parameter_names=[p.name for p in type_def_ast.parameters],
            summary=type_def_ast.summary,
        )
        #: Filled in once the dialect body is resolved.
        self.type_def: TypeDef | None = None
        #: Generated parameter verifier (definition-time codegen); the
        #: emitted source is kept for ``irdl-opt --dump-generated``.
        self._compiled_params = None
        self.generated_param_source: str | None = None
        self._py_predicates = [
            (code, compile_predicate(code)) for code in type_def_ast.py_constraints
        ]
        #: Declarative parameter format (§4.7), when declared.
        self.param_format = None
        if type_def_ast.format is not None:
            from repro.irdl.format import TypeFormatProgram

            self.param_format = TypeFormatProgram(
                self.qualified_name, self.parameter_names, type_def_ast.format
            )

    def attach_type_def(self, type_def: TypeDef) -> None:
        """Install the resolved definition (and, when codegen is on, a
        generated parameter verifier specialized to it)."""
        from repro.irdl import codegen

        self.type_def = type_def
        if codegen.enabled():
            compiled = codegen.compile_param_verifier(type_def)
            if compiled is not None:
                self._compiled_params, self.generated_param_source = compiled

    def verify_parameters(self, parameters: tuple[Any, ...]) -> None:
        if self._compiled_params is not None:
            self._compiled_params(parameters)
            if self._py_predicates:
                self._run_py_predicates(parameters)
            return
        if len(parameters) != len(self.parameter_names):
            raise VerifyError(
                f"{self.qualified_name} expects {len(self.parameter_names)} "
                f"parameters, got {len(parameters)}"
            )
        if self.type_def is None:
            return  # still registering; constraints not yet resolved
        cctx = ConstraintContext()
        for param_def, value in zip(self.type_def.parameters, parameters):
            try:
                param_def.constraint.verify(value, cctx)
            except VerifyError as err:
                raise VerifyError(
                    f"{self.qualified_name}: parameter "
                    f"{param_def.name!r}: {err}"
                ) from err
        if self._py_predicates:
            self._run_py_predicates(parameters)

    def _run_py_predicates(self, parameters: Sequence[Any]) -> None:
        instance = self._construct(parameters)
        for code, predicate in self._py_predicates:
            if not predicate(instance):
                raise VerifyError(
                    f"{self.qualified_name}: PyConstraint violated: "
                    f"{code!r}"
                )

    def _construct(self, parameters: Sequence[Any]) -> Attribute:
        cls = DynamicTypeAttribute if self.is_type else DynamicParametrizedAttribute
        return cls(self, parameters)

    def instantiate(self, parameters: Sequence[Any] = ()) -> Attribute:
        params = tuple(parameters)
        self.verify_parameters(params)
        # Dynamic attributes are uniqued per definition: the structural
        # key includes the definition's identity, so two dialects with a
        # same-named type never share instances.
        return uniquer_intern(self._construct(params))


class DynamicOpDef(OpDefBinding):
    """An operation binding generated from an IRDL definition."""

    def __init__(self, op_def: OpDef):
        #: Solved constraint variables by signature, shared by the
        #: format parser, the verifier and the format printer.
        self.signature_memo = (
            SignatureMemo() if op_def.constraint_vars else None
        )
        super().__init__(
            op_def.qualified_name,
            summary=op_def.summary,
            is_terminator=op_def.is_terminator,
            verifier=make_op_verifier(op_def, self.signature_memo),
        )
        self.op_def = op_def
        self.location = op_def.location
        self.format_program: FormatProgram | None = None
        if op_def.format is not None:
            self.format_program = FormatProgram.compile(
                op_def, self.signature_memo
            )

    def has_custom_format(self) -> bool:
        return self.format_program is not None

    def prepare_custom(self, op) -> None:
        assert self.format_program is not None
        self.format_program._bindings_for(op)

    def print_custom(self, op, printer) -> None:
        assert self.format_program is not None
        self.format_program.print(op, printer)

    def parse_custom(self, parser):
        assert self.format_program is not None
        return self.format_program.parse(parser, self)


def register_dialect(context: Context, decl: ast.DialectDecl) -> DialectDef:
    """Register one parsed IRDL dialect into a context.

    Returns the resolved :class:`DialectDef` (also stored on the binding
    as ``binding.irdl_def`` for introspection and analysis tooling).
    """
    if not OBS.active:
        return _register_dialect(context, decl)
    start = _timing.now()
    with OBS.tracer.span(f"irdl.register:{decl.name}", category="irdl"):
        dialect_def = _register_dialect(context, decl)
    metrics = OBS.metrics
    if metrics.enabled:
        scope = metrics.scope("irdl.instantiate")
        scope.counter("dialects_loaded").inc()
        scope.counter("ops_instantiated").inc(len(dialect_def.operations))
        scope.counter("types_instantiated").inc(
            len(dialect_def.types) + len(dialect_def.attributes)
        )
        scope.timer("register_time").record(_timing.now() - start)
    return dialect_def


def _register_dialect(context: Context, decl: ast.DialectDecl) -> DialectDef:
    if context.get_dialect(decl.name) is not None:
        raise UnregisteredConstructError(
            f"dialect {decl.name!r} is already registered"
        )
    binding = DialectBinding(decl.name)

    for enum_decl in decl.enums:
        binding.register_enum(
            EnumBinding(f"{decl.name}.{enum_decl.name}", enum_decl.constructors)
        )

    attr_bindings: dict[str, DynamicAttrDef] = {}
    for type_decl in decl.types:
        dynamic = DynamicAttrDef(type_decl, decl.name)
        binding.register_type(dynamic)
        attr_bindings[type_decl.name] = dynamic
    for attr_decl in decl.attributes:
        dynamic = DynamicAttrDef(attr_decl, decl.name)
        binding.register_attr(dynamic)
        attr_bindings[attr_decl.name] = dynamic

    context.register_dialect(binding)
    try:
        scope = Scope(context, decl)
        dialect_def = resolve_dialect_body(decl, scope)
    except Exception:
        # Roll back a partially registered dialect so the context stays
        # consistent after a resolution error.
        del context.dialects[decl.name]
        raise

    for type_def in (*dialect_def.types, *dialect_def.attributes):
        attr_bindings[type_def.name].attach_type_def(type_def)
    for op_def in dialect_def.operations:
        binding.register_op(DynamicOpDef(op_def))

    # Expose the resolved definition and syntax tree for introspection
    # (§6's analyses run over these records; cross-dialect alias lookup
    # uses the syntax tree).
    binding.irdl_def = dialect_def  # type: ignore[attr-defined]
    binding.irdl_ast = decl  # type: ignore[attr-defined]
    return dialect_def


def register_irdl(context: Context, text: str, name: str = "<irdl>") -> list[DialectDef]:
    """Parse IRDL source text and register every dialect it defines."""
    decls = parse_irdl(text, name)
    return [register_dialect(context, decl) for decl in decls]


def load_irdl_file(context: Context, path: str) -> list[DialectDef]:
    """Load and register the dialects of one ``.irdl`` file.

    The file may hold IRDL source text or a compiled dialects artifact
    (``irdl-opt --compile-irdl``); the bytecode magic number decides,
    so callers never need to know which form they were handed.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    from repro.bytecode import decode_dialects, is_bytecode

    if is_bytecode(raw):
        decls = decode_dialects(raw, name=path)
        return [register_dialect(context, decl) for decl in decls]
    return register_irdl(context, raw.decode("utf-8"), path)
