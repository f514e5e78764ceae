"""Use-def chain behaviour of SSA values."""

import pytest

from repro.builtin import f32, i32
from repro.ir import Block, InvalidIRStructureError, Operation, Use


def make_block_with_op():
    block = Block([f32, f32])
    op = Operation("test.add", operands=list(block.args), result_types=[f32])
    block.add_op(op)
    return block, op


class TestUses:
    def test_operands_register_uses(self):
        block, op = make_block_with_op()
        a, b = block.args
        assert Use(op, 0) in a.uses
        assert Use(op, 1) in b.uses

    def test_has_uses(self):
        block, op = make_block_with_op()
        assert block.args[0].has_uses
        assert not op.results[0].has_uses

    def test_users_deduplicates(self):
        block = Block([f32])
        arg = block.args[0]
        op = Operation("test.dup", operands=[arg, arg], result_types=[])
        assert len(list(arg.users())) == 1
        assert next(arg.users()) is op

    def test_users_in_operand_index_order(self):
        block = Block([f32, f32])
        a, b = block.args
        second = Operation("test.second", operands=[b, a])
        first = Operation("test.first", operands=[a, b])
        both = Operation("test.both", operands=[a, a])
        users = list(a.users())
        assert users[:2] in ([first, both], [both, first])
        assert users[2:] == [second]

    def test_set_operand_moves_use(self):
        block, op = make_block_with_op()
        a, b = block.args
        op.set_operand(0, b)
        assert not a.uses
        assert Use(op, 0) in b.uses and Use(op, 1) in b.uses

    def test_reassigning_operands_clears_old_uses(self):
        block, op = make_block_with_op()
        a, b = block.args
        op.operands = [b, a]
        assert Use(op, 0) in b.uses
        assert Use(op, 1) in a.uses
        assert Use(op, 0) not in a.uses


class TestReplaceAllUsesWith:
    def test_redirects_every_use(self):
        block, op = make_block_with_op()
        a, b = block.args
        a.replace_all_uses_with(b)
        assert op.operands[0] is b
        assert not a.uses

    def test_self_replacement_is_noop(self):
        block, op = make_block_with_op()
        a = block.args[0]
        a.replace_all_uses_with(a)
        assert op.operands[0] is a

    def test_replacement_across_ops(self):
        block = Block([f32])
        arg = block.args[0]
        first = Operation("test.a", operands=[arg], result_types=[f32])
        second = Operation("test.b", operands=[arg], result_types=[])
        arg.replace_all_uses_with(first.results[0])
        assert second.operands[0] is first.results[0]
        assert first.operands[0] is first.results[0]


class TestErase:
    def test_erase_check_rejects_live_values(self):
        block, op = make_block_with_op()
        with pytest.raises(InvalidIRStructureError):
            block.args[0].erase_check()

    def test_erase_check_passes_for_dead_values(self):
        block, op = make_block_with_op()
        op.results[0].erase_check()


class TestOwners:
    def test_block_argument_owner(self):
        block = Block([i32])
        assert block.args[0].owner is block
        assert block.args[0].index == 0
        assert block.args[0].type == i32

    def test_op_result_owner(self):
        op = Operation("test.c", result_types=[i32, f32])
        assert op.results[0].owner is op
        assert op.results[1].index == 1
        assert op.results[1].type == f32
