"""Paths, metric names and the span arithmetic shared by the workloads."""

from __future__ import annotations

import os

from spans import self_times
from stats import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CMATH_IRDL = os.path.join(SRC, "repro", "corpus", "dialects", "cmath.irdl")
CONORM_PATTERNS = os.path.join(ROOT, "examples", "patterns", "conorm.pattern")

END_TO_END = {
    "setup_s": "s", "us_per_op": "us/op", "output_bytes_per_op": "B/op",
    "peak_rss_mb": "MB", "req_per_s": "req/s", "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

REQUEST_TYPES = ("parse", "verify", "rewrite", "roundtrip",
                 "register_dialect")

PER_LAYER = {
    "irdl.register_ms": "ms",
    "rewriting.pattern_parse_ms": "ms",
    "textir.parse_us_per_op": "us/op",
    "textir.parse_growth": "ratio",
    "textir.lex_us_per_token": "us/token",
    "textir.tokens_per_op": "tokens/op",
    "textir.print_us_per_op": "us/op",
    "bytecode.decode_us_per_op": "us/op",
    "bytecode.encode_us_per_op": "us/op",
    "bytecode.bytes_per_op": "B/op",
    "bytecode.lazy_open_ms": "ms",
    "bytecode.force_us_per_op": "us/op",
    "verify.input_us_per_op": "us/op",
    "verify.output_us_per_op": "us/op",
    "rewriting.canonicalize_us_per_op": "us/op",
    "rewriting.cse_us_per_op": "us/op",
    "rewriting.dce_us_per_op": "us/op",
    "rewriting.cse_growth": "ratio",
    "rewriting.dce_growth": "ratio",
    "rewriting.rewrites_applied": "count",
    "rewriting.match_useful_ratio": "ratio",
    "rewriting.ops_erased": "count",
    "analysis.dominance_computes": "count",
    "analysis.cache_hit_ratio": "ratio",
    "parallel.shard_verify_s": "s",
    "parallel.speedup": "x",
    "parallel.shard_imbalance": "ratio",
    **{f"server.{t}.latency_p50_ms": "ms" for t in REQUEST_TYPES},
    **{f"server.{t}.work_ms": "ms" for t in REQUEST_TYPES},
    "server.overhead_ms": "ms",
    "server.frame_bytes_per_req": "B/req",
    "server.register_cache_hit_ratio": "ratio",
    "obs.trace_overhead_pct": "%",
    "obs.trace_accounted_pct": "%",
    "failed_ratio": "ratio",
}


class Run:
    """What one benchmark run accumulates before it reports."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.context: dict = {}
        self.detail: dict = {}
        self.events: list[dict] = []
        self.dir = os.path.join(OUT, f"{workload}-s{seed}-p{os.getpid()}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def layer_rates(events: list[dict]) -> dict[str, tuple[float, float]]:
    """Span name -> (summed self time in us, summed ``ops`` args)."""
    own = self_times(events)
    rates: dict[str, tuple[float, float]] = {}
    for event in events:
        time_us, ops = rates.get(event["name"], (0.0, 0.0))
        rates[event["name"]] = (time_us + own[event["id"]],
                                ops + (event["args"].get("ops") or 0))
    return rates


def per_op(rates: dict, name: str) -> float:
    """Self time per op of span ``name``; 0 when no span handled ops."""
    time_us, ops = rates.get(name, (0.0, 0.0))
    return time_us / ops if ops else 0.0


def durations(events: list[dict], name: str) -> list[float]:
    return [e["dur"] for e in events if e["name"] == name]


def self_time_table(events: list[dict], runs: int) -> dict[str, float]:
    """Mean self time per run of each span name, in milliseconds."""
    own = self_times(events)
    table: dict[str, float] = {}
    for event in events:
        table[event["name"]] = table.get(event["name"], 0.0) + own[event["id"]]
    return {name: round(us / 1e3 / max(runs, 1), 3)
            for name, us in sorted(table.items())}


def add_pass_spans(spans, run_span: dict, records) -> None:
    """Child spans of ``run_patterns`` from its ``PassManager.records``.

    The records carry each pass's wall time and op counts (what
    ``--timing`` prints); the passes run back to back at the end of
    ``run_patterns``, after the pipeline and its matcher table are built.
    """
    end = run_span["ts"] + run_span["dur"]
    for record in reversed(records):
        end -= record.wall_time * 1e6
        spans.add(f"rewriting.{record.name}", end, record.wall_time * 1e6,
                  run_span, ops=record.ops_before, ops_after=record.ops_after)


def lex_probe(spans, text: str, ops: int) -> None:
    """``Lexer.tokenize`` over ``text`` in a ``textir.lex`` span."""
    from repro.textir.lexer import Lexer
    from repro.utils.source import SourceFile

    with spans.span("textir.lex", ops=ops) as lex:
        tokens = Lexer(SourceFile(text, "<probe>")).tokenize()
    lex["args"]["tokens"] = len(tokens) - 1


#: Layers whose spans carry the ops they handled.
PER_OP_LAYERS = ("textir.parse", "textir.print", "bytecode.decode",
                 "bytecode.encode", "bytecode.force", "verify.input",
                 "verify.output", "rewriting.canonicalize", "rewriting.cse",
                 "rewriting.dce")
PASS_SPANS = ("rewriting.canonicalize", "rewriting.cse", "rewriting.dce")


def layer_metrics(events: list[dict], counters: dict[str, float],
                  runs: int) -> dict[str, float]:
    """The per-layer metrics every workload derives the same way.

    ``counters`` are the ``repro.obs`` counters summed over ``runs``
    traced runs; counts are reported per run.  Every other metric starts
    at 0, for a layer the workload does not run.
    """
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    rates = layer_rates(events)
    for layer in PER_OP_LAYERS:
        metrics[f"{layer}_us_per_op"] = per_op(rates, layer)
    for name, span in (("irdl.register_ms", "irdl.register"),
                       ("rewriting.pattern_parse_ms",
                        "rewriting.pattern_parse"),
                       ("bytecode.lazy_open_ms", "bytecode.lazy_open")):
        spent = durations(events, span)
        metrics[name] = median(spent) / 1e3 if spent else 0.0
    lex = [e for e in events if e["name"] == "textir.lex"]
    if lex:
        tokens = sum(e["args"]["tokens"] for e in lex)
        metrics["textir.lex_us_per_token"] = (sum(e["dur"] for e in lex)
                                              / tokens)
        metrics["textir.tokens_per_op"] = tokens / sum(e["args"]["ops"]
                                                       for e in lex)
    encoded = [e for e in events if e["name"] == "bytecode.encode"]
    if encoded:
        metrics["bytecode.bytes_per_op"] = (
            sum(e["args"]["bytes"] for e in encoded)
            / sum(e["args"]["ops"] for e in encoded))
    applied = counters.get("rewriting.driver.rewrites_applied", 0)
    attempts = counters.get("rewriting.driver.match_attempts", 0)
    metrics["rewriting.rewrites_applied"] = applied / runs
    metrics["rewriting.match_useful_ratio"] = (applied / attempts
                                               if attempts else 0.0)
    metrics["rewriting.ops_erased"] = sum(
        e["args"]["ops"] - e["args"]["ops_after"] for e in events
        if e["name"] in PASS_SPANS
        and e["args"].get("ops_after") is not None) / runs
    computes = counters.get("analysis.dataflow.computes", 0)
    hits = counters.get("analysis.dataflow.cache_hits", 0)
    metrics["analysis.dominance_computes"] = computes / runs
    metrics["analysis.cache_hit_ratio"] = (hits / (hits + computes)
                                           if hits + computes else 0.0)
    return metrics
