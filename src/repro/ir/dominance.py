"""SSA dominance: dominator trees and use-before-def verification.

Classical SSA requires every use of a value to be dominated by its
definition (§2).  This module computes per-region dominator trees with
the iterative Cooper–Harvey–Kennedy algorithm and exposes
:func:`verify_dominance`, which checks the property recursively through
nested regions (a use inside a nested region is dominated by any
definition in an ancestor block, matching MLIR's semantics for
non-isolated regions).
"""

from __future__ import annotations

from typing import Iterator

from repro.ir.block import Block
from repro.ir.exceptions import InvalidIRStructureError, VerifyError
from repro.ir.operation import Operation
from repro.ir.region import Region
from repro.ir.value import BlockArgument, OpResult, SSAValue


class DominanceInfo:
    """Immediate dominators for the blocks of one region."""

    def __init__(self, region: Region):
        self.region = region
        self._idom: dict[Block, Block | None] = {}
        if region.blocks:
            self._compute()

    # ------------------------------------------------------------------

    def _compute(self) -> None:
        blocks = self.region.blocks
        if len(blocks) > 1:
            # A block with no operations has no terminator, so control
            # can never leave it — in a multi-block region that is a
            # malformed CFG, not an unreachable block.
            for i, block in enumerate(blocks):
                if block.last_op is None:
                    raise VerifyError(
                        f"block #{i} in a multi-block region is empty and "
                        f"has no terminator",
                        obj=block,
                    )
        entry = blocks[0]
        order = self._reverse_postorder(entry)
        index = {block: i for i, block in enumerate(order)}
        predecessors: dict[Block, list[Block]] = {b: [] for b in blocks}
        for block in blocks:
            last = block.last_op
            if last is None:
                continue
            for successor in last.successors:
                if successor in predecessors:
                    predecessors[successor].append(block)

        idom: dict[Block, Block | None] = {entry: entry}
        changed = True
        while changed:
            changed = False
            for block in order[1:]:
                candidates = [
                    p for p in predecessors[block]
                    if p in idom and p in index
                ]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = self._intersect(new_idom, other, idom, index)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True
        self._idom = {
            block: (None if block is entry else idom.get(block))
            for block in blocks
        }
        # Unreachable blocks have no dominator information; they dominate
        # only themselves.
        for block in blocks:
            if block not in idom and block is not entry:
                self._idom[block] = None

    def _reverse_postorder(self, entry: Block) -> list[Block]:
        seen: set[int] = set()
        order: list[Block] = []

        def visit(block: Block) -> None:
            if id(block) in seen:
                return
            seen.add(id(block))
            last = block.last_op
            if last is not None:
                for successor in last.successors:
                    visit(successor)
            order.append(block)

        visit(entry)
        order.reverse()
        return order

    @staticmethod
    def _intersect(left: Block, right: Block, idom, index) -> Block:
        while left is not right:
            while index.get(left, -1) > index.get(right, -1):
                parent = idom.get(left)
                if parent is None or parent is left:
                    return right
                left = parent
            while index.get(right, -1) > index.get(left, -1):
                parent = idom.get(right)
                if parent is None or parent is right:
                    return left
                right = parent
        return left

    # ------------------------------------------------------------------

    def immediate_dominator(self, block: Block) -> Block | None:
        return self._idom.get(block)

    def dominates_block(self, dominator: Block, block: Block) -> bool:
        """Whether ``dominator`` dominates ``block`` (reflexive)."""
        current: Block | None = block
        seen = 0
        while current is not None:
            if current is dominator:
                return True
            current = self._idom.get(current)
            seen += 1
            if seen > len(self.region.blocks):
                return False
        return False

    def is_reachable(self, block: Block) -> bool:
        return block is self.region.entry_block or self._idom.get(block) is not None

    def dominates(self, a: "Block | Operation", b: "Block | Operation") -> bool:
        """Whether ``a`` dominates ``b`` (reflexive).

        Accepts blocks of this region or operations nested anywhere
        under it; an operation is located by its ancestor block in this
        region.  Same-block operations compare by position; an op not
        under this region dominates (and is dominated by) nothing.
        """
        if isinstance(a, Block) and isinstance(b, Block):
            return self.dominates_block(a, b)
        if a is b:
            return True
        point_a = self._locate(a)
        point_b = self._locate(b)
        if point_a is None or point_b is None:
            return False
        block_a, index_a = point_a
        block_b, index_b = point_b
        if block_a is block_b:
            return index_a <= index_b
        return self.dominates_block(block_a, block_b)

    def _locate(self, obj: "Block | Operation") -> tuple[Block, int] | None:
        """The (block of this region, op index) containing ``obj``."""
        if isinstance(obj, Block):
            # A block's "point" is its entry: it dominates everything in
            # it, and is dominated by no single op of its own.
            block: Block | None = obj
            index = -1
        else:
            current: Operation | None = obj
            block = current.parent
            while block is not None and block.parent is not self.region:
                owner = block.parent.parent if block.parent is not None else None
                if owner is None:
                    return None
                current = owner
                block = current.parent
            if block is None or current is None:
                return None
            index = block.index_of(current)
        if block.parent is not self.region:
            return None
        return block, index


# Per-block op -> index maps, built lazily on the first query of each
# block; valid only while no block changes.
_Positions = dict[Block, dict[Operation, int]]


def _position(block: Block, op: Operation, positions: _Positions) -> int:
    """``block.index_of(op)``, through the block's map in ``positions``."""
    index_map = positions.get(block)
    if index_map is None:
        index_map = positions[block] = {
            candidate: index for index, candidate in enumerate(block.ops)
        }
    index = index_map.get(op)
    if index is None:
        raise InvalidIRStructureError(f"operation {op.name} is not in this block")
    return index


def _defining_point(value: SSAValue,
                    positions: _Positions) -> tuple[Block | None, int]:
    """The (block, index) after which a value is available.

    Block arguments are available from index -1 (before the first op).
    """
    if isinstance(value, BlockArgument):
        return value.block, -1
    assert isinstance(value, OpResult)
    op = value.op
    if op.parent is None:
        return None, -1
    return op.parent, _position(op.parent, op, positions)


def _enclosing_chain(op: Operation,
                     positions: _Positions) -> Iterator[tuple[Block, int]]:
    """(block, op-index) pairs for the op and each enclosing ancestor."""
    current: Operation | None = op
    while current is not None and current.parent is not None:
        block = current.parent
        yield block, _position(block, current, positions)
        current = block.parent.parent if block.parent is not None else None


def value_dominates_use(value: SSAValue, user: Operation,
                        cache: dict[int, DominanceInfo] | None = None,
                        manager: object | None = None) -> bool:
    """Whether ``value`` is available at ``user`` under SSA dominance.

    Repeated queries share dominator trees through either a plain
    ``cache`` dict or an :class:`~repro.analysis.dataflow.manager.
    AnalysisManager` (which survives across calls and is invalidated on
    mutation); ``manager`` wins when both are given.
    """
    return _dominates(value, user, cache, manager, {})


def _dominates(value: SSAValue, user: Operation,
               cache: dict[int, DominanceInfo] | None,
               manager: object | None, positions: _Positions) -> bool:
    """:func:`value_dominates_use`, sharing op positions across queries."""
    def_block, def_index = _defining_point(value, positions)
    if def_block is None:
        return False
    for use_block, use_index in _enclosing_chain(user, positions):
        if use_block is def_block:
            return def_index < use_index
        if def_block.parent is use_block.parent and def_block.parent is not None:
            region = def_block.parent
            if manager is not None:
                info = manager.dominance(region)
            elif cache is not None:
                info = cache.get(id(region))
                if info is None:
                    info = cache[id(region)] = DominanceInfo(region)
            else:
                info = DominanceInfo(region)
            return info.dominates_block(def_block, use_block)
    return False


def verify_dominance(root: Operation, manager: object | None = None) -> None:
    """Check that every use in ``root``'s tree is dominated by its def.

    Raises :class:`VerifyError` naming the offending operand.  Passing
    an :class:`~repro.analysis.dataflow.manager.AnalysisManager` reuses
    (and populates) its cached per-region dominator trees instead of
    rebuilding them for this one traversal.
    """
    cache: dict[int, DominanceInfo] | None = None if manager is not None else {}
    positions: _Positions = {}
    for op in root.walk():
        for i, operand in enumerate(op.operands):
            if not _dominates(operand, op, cache, manager, positions):
                raise VerifyError(
                    f"operand #{i} of {op.name} is not dominated by its "
                    f"definition",
                    obj=op,
                )
