"""Linear scaling of IR cleanup and the queries it leans on.

CSE, DCE, ``verify_dominance`` and ``SSAValue.users()`` are timed at n
and 10n (best of three) on seeded synth blocks and on fan-out values,
and so is parsing a block header with n arguments.
Linear work grows ~10x; a per-op scan of the block or of the use list
grows ~100x.  The asserted bound of 30x sits between the two, and as a
ratio measured within one run it does not depend on the host's speed.
"""

from __future__ import annotations

import gc
import time
from typing import Callable

import pytest

from repro.builtin import default_context, i32
from repro.corpus.synth import synthesize_module
from repro.ir import Block, Operation
from repro.ir.dominance import verify_dominance
from repro.rewriting import CommonSubexpressionElimination, DeadCodeElimination
from repro.textir import parse_module

#: The smaller sizes (ops of a synth block, uses of a fan-out value);
#: every measurement compares one with 10x as much.
BLOCK_OPS = 2000
FAN_OUT = 1000
BLOCK_ARGS = 2000
MAX_RATIO = 30


def best_time(setup: Callable[[int], object],
              measure: Callable[[object], object], size: int) -> float:
    """The best of three timings of ``measure`` on fresh ``setup`` input."""
    best = float("inf")
    for _ in range(3):
        subject = setup(size)
        gc.collect()
        start = time.perf_counter()
        measure(subject)
        best = min(best, time.perf_counter() - start)
    return best


def assert_linear(setup, measure, size: int) -> None:
    small = best_time(setup, measure, size)
    large = best_time(setup, measure, 10 * size)
    assert large / small <= MAX_RATIO, (
        f"{size} -> {10 * size}: {small * 1e3:.2f} ms -> "
        f"{large * 1e3:.2f} ms ({large / small:.0f}x)")


def synth(size: int) -> Operation:
    return synthesize_module(size, 1, default_context())


def fan_out(size: int):
    """One value read ``size`` times by one block of ops."""
    context = default_context(allow_unregistered=True)
    source = context.create_operation("test.source", result_types=[i32])
    value = source.results[0]
    Block(ops=[source] + [
        context.create_operation("test.use", operands=[value])
        for _ in range(size)
    ])
    return value


def block_header(size: int) -> str:
    """An op whose region's one block takes ``size`` arguments."""
    args = ", ".join(f"%a{i}: i32" for i in range(size))
    return ('"test.op"() ({\n^bb0(' + args + '):\n'
            '  "test.end"() : () -> ()\n}) : () -> ()\n')


def drain(iterator) -> None:
    for _ in iterator:
        pass


@pytest.mark.parametrize("measure", [
    CommonSubexpressionElimination().run,
    DeadCodeElimination().run,
    verify_dominance,
], ids=["cse", "dce", "verify_dominance"])
def test_block_passes_scale_linearly(measure):
    assert_linear(synth, measure, BLOCK_OPS)


def test_users_scale_linearly():
    assert_linear(fan_out, lambda value: drain(value.users()), FAN_OUT)


def test_block_argument_parsing_scales_linearly():
    context = default_context(allow_unregistered=True)
    assert_linear(block_header, lambda text: parse_module(context, text),
                  BLOCK_ARGS)
