"""Blocks and regions: insertion, arguments, predecessors, verification."""

import pytest

from repro.builtin import f32, i32
from repro.ir import (
    Block,
    InvalidIRStructureError,
    Operation,
    Region,
    VerifyError,
)


class TestBlockOps:
    def test_insert_order(self):
        block = Block()
        first, second, third = (Operation(f"test.{i}") for i in "abc")
        block.add_op(first)
        block.add_op(third)
        block.insert_op_before(second, third)
        assert [op.name for op in block.ops] == ["test.a", "test.b", "test.c"]

    def test_insert_after(self):
        block = Block()
        first, second = Operation("test.a"), Operation("test.b")
        block.add_op(first)
        block.insert_op_after(second, first)
        assert block.ops[1] is second

    def test_double_attach_rejected(self):
        block = Block()
        op = Operation("test.a")
        block.add_op(op)
        with pytest.raises(InvalidIRStructureError):
            Block().add_op(op)

    def test_index_of_missing_op(self):
        with pytest.raises(InvalidIRStructureError):
            Block().index_of(Operation("test.a"))

    def test_index_of_op_of_another_block(self):
        op = Block(ops=[Operation("test.a")]).ops[0]
        with pytest.raises(InvalidIRStructureError):
            Block(ops=[Operation("test.b")]).index_of(op)

    def test_detach_ops_keeps_survivor_order(self):
        ops = [Operation(f"test.{i}") for i in "abcde"]
        block = Block(ops=ops)
        block_ops = block.ops
        block.detach_ops({ops[0], ops[2], ops[4]})
        assert block.ops == [ops[1], ops[3]] and block.ops is block_ops
        assert [op.parent for op in ops] == [None, block, None, block, None]
        assert block.index_of(ops[3]) == 1

    def test_detach_ops_rejects_foreign_op_untouched(self):
        ops = [Operation("test.a"), Operation("test.b")]
        block = Block(ops=ops)
        with pytest.raises(InvalidIRStructureError):
            block.detach_ops({ops[0], Operation("test.c")})
        assert block.ops == ops and ops[0].parent is block

    def test_first_last_op(self):
        block = Block()
        assert block.first_op is None and block.last_op is None
        a, b = Operation("test.a"), Operation("test.b")
        block.add_ops([a, b])
        assert block.first_op is a and block.last_op is b


class TestBlockArguments:
    def test_insert_arg_appends(self):
        block = Block([i32])
        arg = block.insert_arg(f32)
        assert arg.index == 1 and block.args[1] is arg

    def test_insert_arg_at_index_renumbers(self):
        block = Block([i32, i32])
        block.insert_arg(f32, 0)
        assert [a.index for a in block.args] == [0, 1, 2]
        assert block.args[0].type == f32

    def test_erase_arg(self):
        block = Block([i32, f32])
        block.erase_arg(block.args[0])
        assert len(block.args) == 1
        assert block.args[0].index == 0 and block.args[0].type == f32

    def test_erase_used_arg_rejected(self):
        block = Block([i32])
        Operation("test.use", operands=[block.args[0]])
        with pytest.raises(InvalidIRStructureError):
            block.erase_arg(block.args[0])


class TestRegion:
    def test_entry_block(self):
        region = Region()
        assert region.entry_block is None
        block = Block()
        region.add_block(block)
        assert region.entry_block is block

    def test_block_double_attach_rejected(self):
        block = Block()
        Region([block])
        with pytest.raises(InvalidIRStructureError):
            Region([block])

    def test_detach_block(self):
        block = Block()
        region = Region([block])
        region.detach_block(block)
        assert block.parent is None and not region.blocks

    def test_predecessors(self):
        region = Region([Block(), Block()])
        entry, target = region.blocks
        entry.add_op(Operation("test.br", successors=[target]))
        assert target.predecessors() == [entry]
        assert entry.predecessors() == []

    def test_walk_covers_all_blocks(self):
        region = Region([Block(), Block()])
        region.blocks[0].add_op(Operation("test.a"))
        region.blocks[1].add_op(Operation("test.b"))
        assert [op.name for op in region.walk()] == ["test.a", "test.b"]

    def test_clone_into_remaps_successors(self):
        region = Region([Block(), Block([i32])])
        entry, target = region.blocks
        producer = Operation("test.p", result_types=[i32])
        entry.add_op(producer)
        entry.add_op(Operation("test.br", operands=[producer.results[0]],
                               successors=[target]))
        new_region = Region()
        region.clone_into(new_region, {})
        new_entry, new_target = new_region.blocks
        branch = new_entry.ops[1]
        assert branch.successors == [new_target]
        assert branch.operands[0] is new_entry.ops[0].results[0]

    def test_verify_rejects_misplaced_terminator(self):
        region = Region([Block(), Block()])
        entry, target = region.blocks
        entry.add_op(Operation("test.br", successors=[target]))
        entry.add_op(Operation("test.tail"))
        with pytest.raises(VerifyError):
            region.verify()
