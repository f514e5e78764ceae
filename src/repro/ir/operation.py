"""Operations: the unit of computation in the IR.

An operation takes previously defined SSA values as operands and produces
zero or more result values (§2).  Operations may carry attributes (static
information), successors (for terminators passing control between basic
blocks), and nested regions (hierarchical control flow, MLIR's extension
of classical SSA).

Operations are *generic by default*: any name with any number of operands,
results, regions, and attributes is representable.  Invariants come from
an attached :class:`~repro.ir.dialect.OpDefBinding` — hand-written for
native dialects, generated from IRDL for dynamic ones (§3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from repro.ir.attributes import Attribute
from repro.ir.exceptions import InvalidIRStructureError, VerifyError
from repro.ir.location import UNKNOWN_LOC, Location
from repro.ir.value import OpResult, SSAValue, Use

if TYPE_CHECKING:
    from repro.ir.block import Block
    from repro.ir.dialect import OpDefBinding
    from repro.ir.region import Region


class Operation:
    """A single IR operation."""

    __slots__ = (
        "name",
        "_operands",
        "results",
        "attributes",
        "successors",
        "regions",
        "parent",
        "definition",
        "location",
    )

    def __init__(
        self,
        name: str,
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[Attribute] = (),
        attributes: Mapping[str, Attribute] | None = None,
        successors: Sequence["Block"] = (),
        regions: Sequence["Region"] = (),
        definition: "OpDefBinding | None" = None,
        location: Location | None = None,
    ):
        self.name = name
        self.results: tuple[OpResult, ...] = tuple([
            OpResult(t, self, i) for i, t in enumerate(result_types)
        ])
        self.attributes: dict[str, Attribute] = dict(attributes or {})
        self.successors: list[Block] = list(successors)
        self.regions: list[Region] = []
        self.parent: Block | None = None
        self.definition = definition
        self.location: Location = (
            location if location is not None else UNKNOWN_LOC
        )
        # A fresh op has no uses to drop: the second half of
        # _set_operands, without the call.
        self._operands: tuple[SSAValue, ...] = tuple(operands)
        for index, operand in enumerate(self._operands):
            operand.add_use(Use(self, index))
        for region in regions:
            self.add_region(region)

    # ------------------------------------------------------------------
    # Operands and use-def maintenance
    # ------------------------------------------------------------------

    @property
    def operands(self) -> tuple[SSAValue, ...]:
        return self._operands

    @operands.setter
    def operands(self, new_operands: Sequence[SSAValue]) -> None:
        self._set_operands(new_operands)

    def _set_operands(self, new_operands: Sequence[SSAValue]) -> None:
        for index, operand in enumerate(self._operands):
            operand.remove_use(Use(self, index))
        self._operands = tuple(new_operands)
        for index, operand in enumerate(self._operands):
            operand.add_use(Use(self, index))

    def set_operand(self, index: int, value: SSAValue) -> None:
        """Replace the operand at ``index``, maintaining use lists."""
        self._operands[index].remove_use(Use(self, index))
        operands = list(self._operands)
        operands[index] = value
        self._operands = tuple(operands)
        value.add_use(Use(self, index))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def dialect_name(self) -> str:
        return self.name.split(".", 1)[0]

    def add_region(self, region: "Region") -> None:
        if region.parent is not None:
            raise InvalidIRStructureError(
                "region is already attached to an operation"
            )
        region.parent = self
        self.regions.append(region)

    def result(self, index: int = 0) -> OpResult:
        return self.results[index]

    def operand(self, index: int = 0) -> SSAValue:
        return self._operands[index]

    @property
    def parent_op(self) -> "Operation | None":
        if self.parent is not None and self.parent.parent is not None:
            return self.parent.parent.parent
        return None

    def is_ancestor_of(self, other: "Operation") -> bool:
        current = other.parent_op
        while current is not None:
            if current is self:
                return True
            current = current.parent_op
        return False

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def walk(self, include_self: bool = True) -> Iterator["Operation"]:
        """Pre-order traversal of this operation and everything nested."""
        if include_self:
            yield self
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.ops):
                    yield from op.walk()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def detach(self) -> "Operation":
        """Remove this operation from its parent block, keeping it intact."""
        if self.parent is not None:
            self.parent.detach_op(self)
        return self

    def erase(self, *, safe_erase: bool = True) -> None:
        """Detach and destroy this operation.

        With ``safe_erase`` (the default) the operation's results must be
        unused.  Nested regions are erased recursively.
        """
        self.detach()
        if safe_erase:
            for res in self.results:
                res.erase_check()
        self.drop_all_references()

    def drop_all_references(self) -> None:
        """Drop the operand uses of this op and of everything nested in it.

        This is :meth:`erase` without the detach, for passes that remove
        many ops of one block at once with
        :meth:`~repro.ir.block.Block.detach_ops`.
        """
        for region in self.regions:
            region.drop_all_references()
        self._set_operands(())

    def replace_by(self, values: Sequence[SSAValue]) -> None:
        """Replace all result uses with ``values`` and erase this op."""
        self.replace_and_drop(values)
        self.detach()

    def replace_and_drop(self, values: Sequence[SSAValue]) -> None:
        """:meth:`replace_by` without the detach.

        Redirects every result use to ``values`` and drops this op's
        operand uses, for passes that then remove many ops of one block
        at once with :meth:`~repro.ir.block.Block.detach_ops`.
        """
        if len(values) != len(self.results):
            raise InvalidIRStructureError(
                f"replace_by got {len(values)} values for "
                f"{len(self.results)} results"
            )
        for result, value in zip(self.results, values):
            result.replace_all_uses_with(value)
        for result in self.results:
            result.erase_check()
        self.drop_all_references()

    def clone(
        self, value_map: dict[SSAValue, SSAValue] | None = None
    ) -> "Operation":
        """Deep-copy this operation, remapping operands through ``value_map``."""
        from repro.ir.region import Region

        value_map = value_map if value_map is not None else {}
        new_operands = [value_map.get(operand, operand) for operand in self._operands]
        new_op = Operation(
            self.name,
            operands=new_operands,
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
            successors=list(self.successors),
            definition=self.definition,
            location=self.location,
        )
        for old_res, new_res in zip(self.results, new_op.results):
            value_map[old_res] = new_res
        for region in self.regions:
            new_region = Region()
            region.clone_into(new_region, value_map)
            new_op.add_region(new_region)
        return new_op

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self, recursive: bool = True) -> None:
        """Check structural invariants, then the attached definition's.

        Structural checks are dialect-independent: parent links are
        consistent, successors are only present on block terminators, and
        every region is well-formed.  Definition-level invariants (operand
        counts, type constraints, …) run through ``definition.verify`` —
        the code path IRDL-generated verifiers plug into.
        """
        for attr in self.attributes.values():
            attr.verify()
        for index, operand in enumerate(self._operands):
            if Use(self, index) not in operand.uses:
                raise VerifyError(
                    f"use-def chain broken: operand #{index} of {self.name} "
                    "does not know about its use",
                    obj=self,
                )
        if self.successors:
            if self.parent is not None and self.parent.ops and self.parent.ops[-1] is not self:
                raise VerifyError(
                    f"operation {self.name} has successors but is not the "
                    "last operation of its block",
                    obj=self,
                )
            for successor in self.successors:
                if self.parent is not None and successor.parent is not self.parent.parent:
                    raise VerifyError(
                        f"successor of {self.name} is not in the same region",
                        obj=self,
                    )
        if recursive:
            for region in self.regions:
                region.verify()
        if self.definition is not None:
            try:
                self.definition.verify(self)
            except VerifyError as err:
                from repro.obs.instrument import OBS

                remarks = OBS.remarks
                if remarks.enabled:
                    remarks.emit(
                        "verify-failure",
                        origin="verifier",
                        name=type(err).__name__,
                        op=self.name,
                        location=self.location,
                        message=str(err),
                    )
                raise

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"<Operation {self.name}: {len(self._operands)} operands, "
            f"{len(self.results)} results, {len(self.regions)} regions>"
        )
