"""Bytecode load speed: the serialization PR's acceptance gate.

Two microbenchmarks, each asserting that loading the binary form is at
least ``MIN_SPEEDUP``x faster than parsing the equivalent text, together
emitting ``benchmarks/results/BENCH_bytecode.json``:

* **module loading** — ``decode_module`` over an encoded generated
  module versus ``parse_module`` over its canonical textual print;
* **dialect loading** — ``decode_dialects`` over the compiled 28-dialect
  corpus artifact versus ``parse_irdl`` over the concatenated sources
  (the ``irdl-opt --compile-irdl`` use case: skip the IRDL frontend on
  every compiler start).

A third entry, **module encoding** (``encode_module`` versus
``print_op`` on the module-loading module, in µs per op), is recorded
but not gated.

Each speedup is the median, over ``PAIRS`` alternating pairs, of the
ratio of one text timing to the binary timing right after it: a shared
host that drifts in speed moves both halves of a pair together, where
two independent best-of-N loops can land in different phases of the
drift.  The ``bytecode.*`` obs counters are snapshotted in a separate,
untimed pass so metrics overhead never pollutes the measurements.
Artifact sizes ride along in the payload: the binary form is also the
smaller one, which the JSON records but does not gate.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro.builtin import default_context
from repro.bytecode import (
    decode_dialects,
    decode_module,
    encode_dialects,
    encode_module,
)
from repro.corpus import CORPUS_ORDER, cmath_source, dialect_source
from repro.irdl import register_irdl
from repro.irdl.irgen import IRGenerator, seed_values_dialect
from repro.irdl.parser import parse_irdl
from repro.textir.parser import parse_module
from repro.textir.printer import print_op

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
MIN_SPEEDUP = 2.0
MODULE_OPS = 300
SEED = 3
PAIRS = 9


def _time(fn, loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        fn()
    return time.perf_counter() - start


def _alternating(baseline, optimized, loops: int) -> dict:
    """Median times of ``PAIRS`` alternating (baseline, optimized) runs
    and the median of the per-pair ratios ``baseline / optimized``."""
    pairs = [(_time(baseline, loops), _time(optimized, loops))
             for _ in range(PAIRS)]
    return {
        "baseline_s": statistics.median(b for b, _ in pairs),
        "optimized_s": statistics.median(o for _, o in pairs),
        "ratio": statistics.median(b / o for b, o in pairs),
        "pairs": PAIRS,
    }


def _module_workload():
    """A generated cmath module, its canonical text, and its bytecode."""
    ctx = default_context()
    defs = register_irdl(ctx, cmath_source())
    seeds = register_irdl(ctx, seed_values_dialect())
    module = IRGenerator(ctx, defs + seeds, seed=SEED).generate_module(
        MODULE_OPS
    )
    text = print_op(module)
    data = encode_module(module)
    return ctx, module, text, data


def _corpus_workload():
    """The whole hand-written corpus as one source and one artifact."""
    source = "\n".join(dialect_source(name) for name in CORPUS_ORDER)
    decls = parse_irdl(source, "corpus.irdl")
    return source, encode_dialects(decls)


def _measure_module_loading() -> dict:
    ctx, module, text, data = _module_workload()

    # Both paths must reconstruct the same module before we time them.
    assert print_op(decode_module(ctx, data)) == text
    assert print_op(parse_module(ctx, text)) == text

    timed = _alternating(lambda: parse_module(ctx, text),
                         lambda: decode_module(ctx, data), loops=3)
    return {
        "ops": sum(1 for _ in _walk(module)),
        "text_bytes": len(text),
        "bytecode_bytes": len(data),
        "textual_parse_s": timed["baseline_s"],
        "bytecode_decode_s": timed["optimized_s"],
        "speedup": timed["ratio"],
        "pairs": timed["pairs"],
    }


def _measure_module_encoding() -> dict:
    """``encode_module`` against ``print_op`` on the same module."""
    _, module, text, data = _module_workload()
    assert print_op(module) == text and encode_module(module) == data
    loops = 3
    timed = _alternating(lambda: print_op(module),
                         lambda: encode_module(module), loops=loops)
    ops = sum(1 for _ in _walk(module))
    return {
        "ops": ops,
        "print_us_per_op": timed["baseline_s"] / loops / ops * 1e6,
        "encode_us_per_op": timed["optimized_s"] / loops / ops * 1e6,
        "print_over_encode": timed["ratio"],
        "pairs": timed["pairs"],
    }


def _walk(op):
    yield op
    for region in op.regions:
        for block in region.blocks:
            for inner in block.ops:
                yield from _walk(inner)


def _measure_dialect_loading() -> dict:
    source, blob = _corpus_workload()

    decoded = decode_dialects(blob)
    assert [d.name for d in decoded] == list(CORPUS_ORDER)

    timed = _alternating(lambda: parse_irdl(source, "corpus.irdl"),
                         lambda: decode_dialects(blob), loops=2)
    return {
        "dialects": len(CORPUS_ORDER),
        "text_bytes": len(source),
        "bytecode_bytes": len(blob),
        "textual_parse_s": timed["baseline_s"],
        "bytecode_decode_s": timed["optimized_s"],
        "speedup": timed["ratio"],
        "pairs": timed["pairs"],
    }


def _collect_counters() -> dict:
    """Re-run both workloads once under metrics and snapshot counters."""
    from repro.obs import MetricsRegistry, enable_metrics, reset

    registry = enable_metrics(MetricsRegistry())
    try:
        ctx, module, _, data = _module_workload()
        decode_module(ctx, data)
        source, blob = _corpus_workload()
        decode_dialects(blob)
    finally:
        reset()
    counters = registry.snapshot()["counters"]
    wanted = (
        "bytecode.encode.modules",
        "bytecode.encode.ops",
        "bytecode.encode.dialects",
        "bytecode.decode.modules",
        "bytecode.decode.ops",
        "bytecode.decode.dialects",
    )
    return {name: counters.get(name, 0) for name in wanted}


def test_bytecode_loading_speedup():
    modules = _measure_module_loading()
    dialects = _measure_dialect_loading()
    encoding = _measure_module_encoding()
    counters = _collect_counters()

    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {
        "module_loading": modules,
        "dialect_loading": dialects,
        "module_encoding": encoding,
        "obs_counters": counters,
        "min_speedup_required": MIN_SPEEDUP,
    }
    with open(
        os.path.join(RESULTS_DIR, "BENCH_bytecode.json"), "w",
        encoding="utf-8",
    ) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert counters["bytecode.decode.modules"] >= 1
    assert counters["bytecode.decode.ops"] >= 1
    assert counters["bytecode.decode.dialects"] >= len(CORPUS_ORDER)
    assert modules["speedup"] >= MIN_SPEEDUP, (
        f"module-loading speedup {modules['speedup']:.2f}x "
        f"below {MIN_SPEEDUP}x"
    )
    assert dialects["speedup"] >= MIN_SPEEDUP, (
        f"dialect-loading speedup {dialects['speedup']:.2f}x "
        f"below {MIN_SPEEDUP}x"
    )
