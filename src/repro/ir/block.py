"""Basic blocks: sequences of operations ending in a terminator (§2)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.ir.attributes import Attribute
from repro.ir.exceptions import InvalidIRStructureError, VerifyError
from repro.ir.value import BlockArgument

if TYPE_CHECKING:
    from repro.ir.operation import Operation
    from repro.ir.region import Region


class Block:
    """A basic block: block arguments plus an ordered list of operations.

    Block arguments are the SSA-region replacement for phi nodes: a
    terminator transferring control to this block provides one value per
    argument.
    """

    __slots__ = ("args", "ops", "parent")

    def __init__(
        self,
        arg_types: Sequence[Attribute] = (),
        ops: Iterable["Operation"] = (),
    ):
        self.args: list[BlockArgument] = [
            BlockArgument(t, self, i) for i, t in enumerate(arg_types)
        ]
        self.ops: list[Operation] = []
        self.parent: Region | None = None
        for op in ops:
            self.add_op(op)

    # ------------------------------------------------------------------
    # Arguments
    # ------------------------------------------------------------------

    def insert_arg(self, arg_type: Attribute, index: int | None = None) -> BlockArgument:
        """Add a block argument (at the end by default).

        Appending is O(1); inserting renumbers only the arguments after
        ``index``.
        """
        args = self.args
        if index is None:
            index = len(args)
        new_arg = BlockArgument(arg_type, self, index)
        args.insert(index, new_arg)
        for i in range(index + 1, len(args)):
            args[i].index = i
        return new_arg

    def erase_arg(self, arg: BlockArgument) -> None:
        arg.erase_check()
        self.args[:] = [a for a in self.args if a is not arg]
        for i, a in enumerate(self.args):
            a.index = i

    # ------------------------------------------------------------------
    # Operation list management
    # ------------------------------------------------------------------

    def add_op(self, op: "Operation") -> "Operation":
        """Append an operation to the end of this block."""
        return self.insert_op(op, len(self.ops))

    def add_ops(self, ops: Iterable["Operation"]) -> None:
        for op in ops:
            self.add_op(op)

    def insert_op(self, op: "Operation", index: int) -> "Operation":
        if op.parent is not None:
            raise InvalidIRStructureError(
                f"operation {op.name} is already attached to a block"
            )
        op.parent = self
        self.ops.insert(index, op)
        return op

    def insert_op_before(self, op: "Operation", anchor: "Operation") -> "Operation":
        return self.insert_op(op, self.index_of(anchor))

    def insert_op_after(self, op: "Operation", anchor: "Operation") -> "Operation":
        return self.insert_op(op, self.index_of(anchor) + 1)

    def index_of(self, op: "Operation") -> int:
        # Operation defines no __eq__, so list.index compares by identity.
        if op.parent is self:
            try:
                return self.ops.index(op)
            except ValueError:
                pass
        raise InvalidIRStructureError(f"operation {op.name} is not in this block")

    def detach_op(self, op: "Operation") -> "Operation":
        self.ops.pop(self.index_of(op))
        op.parent = None
        return op

    def detach_ops(self, ops: set["Operation"]) -> None:
        """Remove every operation of the set ``ops`` in one pass.

        The batch form of :meth:`detach_op` for passes that erase many
        ops of one block: the survivors keep their order and the list is
        rebuilt once, instead of once per removed op.
        """
        for op in ops:
            if op.parent is not self:
                raise InvalidIRStructureError(
                    f"operation {op.name} is not in this block"
                )
        self.ops[:] = [op for op in self.ops if op not in ops]
        for op in ops:
            op.parent = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def first_op(self) -> "Operation | None":
        return self.ops[0] if self.ops else None

    @property
    def last_op(self) -> "Operation | None":
        return self.ops[-1] if self.ops else None

    @property
    def terminator(self) -> "Operation | None":
        """The trailing operation if it is a terminator, else ``None``."""
        last = self.last_op
        if last is not None and last_is_terminator(last):
            return last
        return None

    def walk(self) -> Iterator["Operation"]:
        for op in list(self.ops):
            yield from op.walk()

    def predecessors(self) -> list["Block"]:
        """Blocks whose terminator lists this block as a successor."""
        if self.parent is None:
            return []
        preds = []
        for block in self.parent.blocks:
            last = block.last_op
            if last is not None and any(s is self for s in last.successors):
                preds.append(block)
        return preds

    # ------------------------------------------------------------------

    def verify(self) -> None:
        for index, op in enumerate(self.ops):
            if op.parent is not self:
                raise VerifyError(
                    f"operation {op.name} has a stale parent pointer", obj=self
                )
            if op.successors and index != len(self.ops) - 1:
                raise VerifyError(
                    f"terminator {op.name} is not the last operation "
                    "of its block",
                    obj=self,
                )
            op.verify()

    def drop_all_references(self) -> None:
        """Drop operand references of everything in this block (for erase)."""
        for op in self.ops:
            op.drop_all_references()

    def __repr__(self) -> str:
        return f"<Block with {len(self.args)} args, {len(self.ops)} ops>"


def last_is_terminator(op: "Operation") -> bool:
    """Whether an operation acts as a terminator.

    An operation is a terminator if its definition says so (IRDL: any
    ``Successors`` field, even empty, marks the op as a terminator) or if
    it carries successors.
    """
    if op.definition is not None and op.definition.is_terminator:
        return True
    return bool(op.successors)
