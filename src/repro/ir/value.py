"""SSA values and use-def chains.

Each SSA value is assigned at exactly one program location (§2): either as
the result of an operation (:class:`OpResult`) or as a block argument
(:class:`BlockArgument`, MLIR's functional substitute for phi nodes).
Values track their uses so rewrites can run ``replace_all_uses_with`` in
time proportional to the number of uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.ir.attributes import Attribute
from repro.ir.exceptions import InvalidIRStructureError

if TYPE_CHECKING:
    from repro.ir.block import Block
    from repro.ir.operation import Operation


class Use:
    """One use of an SSA value: operand slot ``index`` of ``operation``."""

    __slots__ = ("operation", "index")

    def __init__(self, operation: "Operation", index: int):
        self.operation = operation
        self.index = index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Use)
            and self.operation is other.operation
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((id(self.operation), self.index))

    def __repr__(self) -> str:
        return f"Use({self.operation.name}, operand #{self.index})"


class SSAValue:
    """Abstract base of all SSA values."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, value_type: Attribute, name_hint: str | None = None):
        self.type = value_type
        self.uses: set[Use] = set()
        self.name_hint = name_hint

    @property
    def owner(self) -> "Operation | Block":
        raise NotImplementedError

    def add_use(self, use: Use) -> None:
        self.uses.add(use)

    def remove_use(self, use: Use) -> None:
        self.uses.discard(use)

    @property
    def has_uses(self) -> bool:
        return bool(self.uses)

    def users(self) -> Iterator["Operation"]:
        """Operations that use this value (deduplicated, stable order)."""
        # Operation defines no __eq__, so the dict keys compare by
        # identity; dicts keep first-insertion order.
        return iter(dict.fromkeys(
            use.operation for use in sorted(self.uses, key=lambda u: u.index)
        ))

    def replace_all_uses_with(self, replacement: "SSAValue") -> None:
        """Redirect every use of this value to ``replacement``."""
        if replacement is self:
            return
        for use in list(self.uses):
            use.operation.set_operand(use.index, replacement)

    def erase_check(self) -> None:
        if self.uses:
            raise InvalidIRStructureError(
                f"cannot erase SSA value {self!r}: it still has "
                f"{len(self.uses)} uses"
            )


class OpResult(SSAValue):
    """The ``index``-th result of an operation."""

    __slots__ = ("op", "index")

    def __init__(self, value_type: Attribute, op: "Operation", index: int):
        # SSAValue.__init__ inlined: one result per op on every IR path.
        self.type = value_type
        self.uses = set()
        self.name_hint = None
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op

    def __repr__(self) -> str:
        return f"<result #{self.index} of {self.op.name}>"


class BlockArgument(SSAValue):
    """The ``index``-th argument of a basic block."""

    __slots__ = ("block", "index")

    def __init__(self, value_type: Attribute, block: "Block", index: int):
        super().__init__(value_type)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block

    def __repr__(self) -> str:
        return f"<block argument #{self.index}>"
