"""The pass infrastructure: DCE, CSE, canonicalizer, pass manager."""

import pytest

from repro.builtin import IntegerAttr, i32
from repro.ir import Block, Operation, Region, VerifyError
from repro.rewriting import (
    Canonicalizer,
    CommonSubexpressionElimination,
    DeadCodeElimination,
    PassManager,
    VerifyPass,
    default_is_pure,
    pattern,
)


def module_of(ctx, ops):
    return ctx.create_operation("builtin.module",
                                regions=[Region([Block(ops=ops)])])


def constant(ctx, value):
    return ctx.create_operation(
        "arith.constant", result_types=[i32],
        attributes={"value": IntegerAttr(value, i32)},
    )


class TestPurity:
    def test_value_producer_is_pure(self, ctx):
        assert default_is_pure(constant(ctx, 1))

    def test_valueless_op_is_impure(self, ctx):
        keep = constant(ctx, 1)
        ret = ctx.create_operation("func.return", operands=[keep.results[0]])
        assert not default_is_pure(ret)

    def test_region_op_is_impure(self, ctx):
        module = module_of(ctx, [])
        assert not default_is_pure(module)

    def test_terminator_is_impure(self, cmath_ctx):
        from repro.builtin import f32
        from repro.irdl import register_irdl

        register_irdl(cmath_ctx, "Dialect d { Operation stop { Results (r: !f32) Successors () } }")
        op = cmath_ctx.create_operation("d.stop", result_types=[f32])
        assert op.results and not default_is_pure(op)


class TestDCE:
    def test_erases_transitively_dead_chain(self, ctx):
        a = constant(ctx, 1)
        b = ctx.create_operation("arith.addi",
                                 operands=[a.results[0], a.results[0]],
                                 result_types=[i32])
        module = module_of(ctx, [a, b])
        assert DeadCodeElimination().run(module)
        assert list(module.walk(include_self=False)) == []

    def test_keeps_used_values(self, ctx):
        a = constant(ctx, 1)
        keep = ctx.create_operation("func.return", operands=[a.results[0]])
        module = module_of(ctx, [a, keep])
        DeadCodeElimination().run(module)
        assert len(module.regions[0].blocks[0].ops) == 2

    def test_no_change_returns_false(self, ctx):
        module = module_of(ctx, [])
        assert not DeadCodeElimination().run(module)

    def test_custom_purity_predicate(self, ctx):
        a = constant(ctx, 1)
        module = module_of(ctx, [a])
        nothing_pure = DeadCodeElimination(is_pure=lambda op: False)
        assert not nothing_pure.run(module)

    def test_producer_outside_the_root_is_kept(self, ctx):
        """Erasing the last use inside a nested root spares the producer."""
        outer = constant(ctx, 1)
        inner = ctx.create_operation("arith.addi",
                                     operands=[outer.results[0]] * 2,
                                     result_types=[i32])
        func = ctx.create_operation("func.func",
                                    regions=[Region([Block(ops=[inner])])])
        module_of(ctx, [outer, func])
        assert DeadCodeElimination().run(func)
        assert inner.parent is None
        assert outer.parent is not None and not outer.results[0].has_uses

    def test_chain_through_an_erased_region(self, ctx):
        """A value read only inside a dead region op dies with it."""
        outer = constant(ctx, 1)
        inner = ctx.create_operation("arith.addi",
                                     operands=[outer.results[0]] * 2,
                                     result_types=[i32])
        holder = ctx.create_operation("func.func", result_types=[i32],
                                      regions=[Region([Block(ops=[inner])])])
        used = constant(ctx, 2)
        keep = ctx.create_operation("func.return", operands=[used.results[0]])
        module = module_of(ctx, [outer, holder, used, keep])
        dce = DeadCodeElimination(is_pure=lambda op: bool(op.results))
        assert dce.run(module)
        assert module.regions[0].blocks[0].ops == [used, keep]
        assert holder.parent is None and outer.parent is None


class TestCSE:
    def test_deduplicates_identical_constants(self, ctx):
        a, b = constant(ctx, 7), constant(ctx, 7)
        user = ctx.create_operation("arith.addi",
                                    operands=[a.results[0], b.results[0]],
                                    result_types=[i32])
        keep = ctx.create_operation("func.return", operands=[user.results[0]])
        module = module_of(ctx, [a, b, user, keep])
        assert CommonSubexpressionElimination().run(module)
        ops = module.regions[0].blocks[0].ops
        assert [op.name for op in ops] == ["arith.constant", "arith.addi",
                                           "func.return"]
        assert ops[1].operands[0] is ops[1].operands[1]

    def test_distinguishes_different_attributes(self, ctx):
        a, b = constant(ctx, 1), constant(ctx, 2)
        keep = ctx.create_operation(
            "func.return", operands=[a.results[0], b.results[0]]
        )
        module = module_of(ctx, [a, b, keep])
        assert not CommonSubexpressionElimination().run(module)

    def test_distinguishes_different_operands(self, ctx):
        block = Block([i32, i32])
        x, y = block.args
        first = ctx.create_operation("arith.addi", operands=[x, x],
                                     result_types=[i32])
        second = ctx.create_operation("arith.addi", operands=[x, y],
                                      result_types=[i32])
        keep = ctx.create_operation(
            "func.return", operands=[first.results[0], second.results[0]]
        )
        block.add_ops([first, second, keep])
        module = ctx.create_operation("builtin.module",
                                      regions=[Region([block])])
        assert not CommonSubexpressionElimination().run(module)

    def test_impure_ops_never_merged(self, ctx):
        a = constant(ctx, 1)
        r1 = ctx.create_operation("func.call", operands=[],
                                  result_types=[i32],
                                  attributes={"callee": IntegerAttr(0)})
        module = module_of(ctx, [a])
        # calls produce results but conservative purity still treats them
        # as pure under the default predicate; use a custom one.
        cse = CommonSubexpressionElimination(
            is_pure=lambda op: op.name == "arith.constant"
        )
        assert not cse.run(module)


class TestDominanceAwareCSE:
    def make_cfg(self, ctx):
        """entry defines a constant; both successors recompute it."""
        region = Region([Block(), Block(), Block()])
        entry, left, right = region.blocks
        ops = {}
        ops["entry_const"] = constant(ctx, 9)
        entry.add_op(ops["entry_const"])
        cond = ctx.create_operation(
            "arith.constant", result_types=[i32],
            attributes={"value": IntegerAttr(1, i32)},
        )
        entry.add_op(cond)
        entry.add_op(ctx.create_operation("cf.br", successors=[left]))
        for name, block in (("left_const", left), ("right_const", right)):
            ops[name] = constant(ctx, 9)
            block.add_op(ops[name])
            block.add_op(ctx.create_operation(
                "func.return", operands=[ops[name].results[0]]
            ))
        module = ctx.create_operation("builtin.module",
                                      regions=[Region([Block()])])
        holder = ctx.create_operation("func.func", attributes={}, regions=[region])
        module.regions[0].blocks[0].add_op(holder)
        return module, ops

    def test_dominating_definition_reused(self, ctx):
        module, ops = self.make_cfg(ctx)
        cse = CommonSubexpressionElimination(use_dominance=True)
        assert cse.run(module)
        # left is dominated by entry: its recomputation folds away.
        assert ops["left_const"].parent is None
        # right is unreachable from entry (no branch to it): kept.
        assert ops["right_const"].parent is not None

    def test_block_local_mode_keeps_cross_block_duplicates(self, ctx):
        module, ops = self.make_cfg(ctx)
        assert not CommonSubexpressionElimination(use_dominance=False).run(module)


class TestPipeline:
    def test_canonicalize_then_cleanup(self, ctx):
        @pattern(op_name="arith.addi")
        def fold(op, rewriter):
            lhs, rhs = (o.owner for o in op.operands)
            if not all(
                isinstance(x, Operation) and x.name == "arith.constant"
                for x in (lhs, rhs)
            ):
                return False
            total = lhs.attributes["value"].value + rhs.attributes["value"].value
            folded = rewriter.create(
                "arith.constant", result_types=[i32],
                attributes={"value": IntegerAttr(total, i32)}, before=op,
            )
            rewriter.replace_op(op, folded)
            return True

        a, b = constant(ctx, 20), constant(ctx, 22)
        add = ctx.create_operation("arith.addi",
                                   operands=[a.results[0], b.results[0]],
                                   result_types=[i32])
        keep = ctx.create_operation("func.return", operands=[add.results[0]])
        module = module_of(ctx, [a, b, add, keep])

        manager = PassManager(verify_each=True)
        manager.add(Canonicalizer(ctx, [fold]))
        manager.add(DeadCodeElimination())
        manager.add(CommonSubexpressionElimination())
        assert manager.run(module)

        ops = module.regions[0].blocks[0].ops
        assert [op.name for op in ops] == ["arith.constant", "func.return"]
        assert ops[0].attributes["value"].value == 42
        assert manager.history == [
            ("canonicalize", True), ("dce", True), ("cse", False),
        ]

    def test_verify_pass_catches_broken_ir(self, ctx):
        block = Block()
        producer = ctx.create_operation("arith.constant", result_types=[i32],
                                        attributes={"value": IntegerAttr(1, i32)})
        consumer = ctx.create_operation("func.return",
                                        operands=[producer.results[0]])
        block.add_op(consumer)
        block.add_op(producer)  # use before def
        module = ctx.create_operation("builtin.module",
                                      regions=[Region([block])])
        with pytest.raises(VerifyError, match="not dominated"):
            VerifyPass().run(module)

    def test_history_resets_between_runs(self, ctx):
        manager = PassManager([DeadCodeElimination()])
        module = module_of(ctx, [])
        manager.run(module)
        manager.run(module)
        assert manager.history == [("dce", False)]
