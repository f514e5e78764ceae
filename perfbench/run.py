"""The repository benchmark: the IRDL pipeline and the daemon, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):

* ``text-conorm``  -- text parse -> verify -> canonicalize, dce -> verify
  -> print over a seeded ``cmath``/``arith`` module (``Session``);
* ``irbc-flat``    -- IRBC decode -> verify -> cse, dce -> verify -> encode
  over a 20k-op ``repro.corpus.synth`` module (``Session``);
* ``irbc-sharded`` -- lazy open -> ``shard_verify_file(workers=nproc)``
  over a 100k-op synth module with planted invalid ops;
* ``server-mix``   -- ``repro-serve`` in its own process under nproc
  closed-loop clients.

Every pipeline run is a fresh interpreter (``perfbench/worker.py``), as
every ``irdl-opt`` run is.  Every output is checked against a reference
computed by ``perfbench/workloads.py``, never by the program.  The last
line of standard output is the result: ``correct``, ``attempted``,
``failed`` and the metrics, end-to-end with ``--trace 0`` and per-layer
with ``--trace 1``.  Earlier lines carry the run's context and details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from calibrate import speed  # noqa: E402
from common import (  # noqa: E402
    CMATH_IRDL, CONORM_PATTERNS, END_TO_END, HERE, OUT, PER_LAYER, ROOT, SRC,
    Run, durations, layer_metrics, layer_rates, per_op, self_time_table,
)
from spans import chrome_trace  # noqa: E402
from stats import median, percentile  # noqa: E402

#: The seed claims are developed on, and the one kept back to recheck them.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

WORKLOADS = ("text-conorm", "irbc-flat", "irbc-sharded", "server-mix")
TEXT_FUNCTIONS = 1200
FLAT_OPS = 20_000
SHARDED_OPS = 100_000
#: A pipeline run that has not finished by then counts as failed.
WORKER_TIMEOUT_S = 60.0
#: No pipeline run starts after this, whatever the sample counts.
RUN_CAP_S = 100.0

# ----------------------------------------------------------------------
# Pipeline workloads
# ----------------------------------------------------------------------


@dataclass
class Prepared:
    """One generated input on disk plus what its output must be."""

    ops: int
    bytes: int
    #: The worker task without its per-run fields.
    task: dict
    #: The reference: a ConormModule, the surviving FlatOps, or the
    #: (entries, planted entries) pair.
    expect: object


def _write(path: str, data: bytes) -> int:
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def prepare(run: Run, scale: float = 1.0) -> Prepared:
    """Generate the workload's input from the seed and write it out."""
    tag = "tenth" if scale < 1 else "full"
    path = os.path.join(run.dir, f"input-{tag}")
    task = {"src": SRC, "workload": run.workload, "input": path,
            "name": os.path.basename(path), "workers": os.cpu_count() or 1}
    if run.workload == "text-conorm":
        module = wl.conorm_module(run.seed,
                                  max(1, int(TEXT_FUNCTIONS * scale)))
        nbytes = _write(path, module.text.encode("utf-8"))
        task.update(irdl=CMATH_IRDL, patterns=CONORM_PATTERNS,
                    passes=["canonicalize", "dce"], emit="text")
        return Prepared(module.ops, nbytes, task, module)

    from repro.builtin import default_context
    from repro.bytecode import encode_module, encode_module_stream
    from repro.corpus.synth import bench_dialect_source, synthesize_module

    irdl = os.path.join(run.dir, "bench.irdl")
    _write(irdl, bench_dialect_source().encode("utf-8"))
    task.update(irdl=irdl, patterns=None)
    if run.workload == "irbc-flat":
        module = synthesize_module(max(1, int(FLAT_OPS * scale)), run.seed,
                                   default_context())
        ops = wl.flat_ops(module)
        nbytes = _write(path, encode_module(module))
        task.update(passes=["cse", "dce"], emit="bytecode")
        return Prepared(len(ops) + 1, nbytes, task,
                        wl.cse_dce_model(ops, wl.synth_has_result))
    module = synthesize_module(SHARDED_OPS, run.seed, default_context())
    ops = wl.flat_ops(module)
    planted = wl.planted_entries(run.seed, ops, 5 + run.seed % 5)
    block_ops = module.regions[0].blocks[0].ops
    for index in planted:
        del block_ops[index].attributes["weight"]
    with open(path, "wb") as handle:
        encode_module_stream(module, handle)
    return Prepared(len(ops) + 1, os.path.getsize(path), task,
                    (len(ops), planted))


def run_worker(run: Run, prepared: Prepared, trace: bool,
               probes: bool = False) -> dict | None:
    """One pipeline in a fresh interpreter; ``None`` if it failed."""
    output = os.path.join(run.dir, f"output-{run.attempted}")
    task = dict(prepared.task, output=output, ops=prepared.ops, trace=trace,
                probes=probes)
    run.attempted += 1
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             json.dumps(task)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        run.fail(f"pipeline run timed out after {WORKER_TIMEOUT_S:g}s")
        return None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        run.fail(f"pipeline run exited {proc.returncode}: {tail[0]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["output"] = output
    return result


class OutputChecker:
    """Checks every pipeline output against the workload's reference.

    Every output must equal the run's first one, which is checked against
    the reference once, after the timed runs (:meth:`finish`).
    """

    def __init__(self, run: Run, prepared: Prepared):
        self.run = run
        self.prepared = prepared
        self.first: bytes | None = None
        self.first_result: dict | None = None

    def __call__(self, result: dict) -> bool:
        with open(result["output"], "rb") as handle:
            data = handle.read()
        os.unlink(result["output"])
        result["out_bytes"] = len(data)
        if self.first is None:
            self.first, self.first_result = data, result
        elif data != self.first:
            return self._bad("output differs from the run's first output")
        return self._check_stats(result)

    def finish(self) -> None:
        """The reference check; every run that produced the first output
        fails with it."""
        if self.first is None:
            return
        problem = self._check_first(self.first, self.first_result)
        if problem:
            self.run.problems.append(f"{self.run.workload}: {problem}")
            self.run.failed = self.run.attempted

    def _bad(self, message: str) -> bool:
        self.run.fail(f"{self.run.workload}: {message}")
        return False

    def _check_stats(self, result: dict) -> bool:
        stats = result["stats"]
        if self.run.workload == "text-conorm":
            applied = stats["passes"].get("canonicalize", {}).get(
                "pattern-rewrites")
            if applied != self.prepared.expect.sites:
                return self._bad(f"{applied} rewrites applied, "
                                 f"{self.prepared.expect.sites} sites planted")
        if self.run.workload == "irbc-sharded":
            if stats["entries"] != self.prepared.expect[0]:
                return self._bad(f"lazy open saw {stats['entries']} entries")
        return True

    def _check_first(self, data: bytes, result: dict) -> str | None:
        workload = self.run.workload
        expect = self.prepared.expect
        if workload == "text-conorm":
            text = data.decode("utf-8")
            got = wl.op_histogram(text)
            if got != expect.rewritten_histogram():
                return f"op histogram {dict(got)} != predicted"
            if result["stats"]["out_ops"] != sum(got.values()):
                return "reported op count disagrees with the printed ops"
            from repro.server.session import Session

            session = Session()
            session.register_dialect_path(CMATH_IRDL)
            if session.emit(session.load_module(text)) != text:
                return "print(parse(output)) is not a fixed point"
            return None
        if workload == "irbc-flat":
            from repro.server.session import Session

            session = Session()
            session.register_dialect_path(self.prepared.task["irdl"])
            got = wl.flat_ops(session.load_module(data))
            if got != expect:
                return (f"{len(got)} ops survive cse+dce, the model "
                        f"predicts {len(expect)} (or they differ)")
            return None
        entries, planted = expect
        diagnostics = json.loads(data)
        if [d[0] for d in diagnostics] != planted:
            return (f"diagnostics at {[d[0] for d in diagnostics]}, "
                    f"planted at {planted}")
        if any(d[1] != "bench.accumulate" or not d[2] for d in diagnostics):
            return "a diagnostic names the wrong op or has no message"
        return None


def wall_s(result: dict) -> float:
    """A worker's pipeline time in reference-host units."""
    return result["wall_s"] * speed(*result["calibration_s"])


def normalized_spans(results: list[dict]) -> list[dict]:
    """The workers' spans with durations in reference-host units."""
    return [dict(e, dur=e["dur"] * speed(*result["calibration_s"]))
            for result in results for e in result["spans"]]


def pipeline_layers(run: Run, untraced: list[dict], traced: list[dict],
                    tenth: dict | None) -> dict[str, float]:
    """Per-layer metrics from the traced workers' spans and counters."""
    events = normalized_spans(traced)
    counters: dict[str, float] = {}
    for result in traced:
        for name, value in result["counters"].items():
            counters[name] = counters.get(name, 0) + value
    metrics = layer_metrics(events, counters, len(traced))
    if tenth is not None:
        rates = layer_rates(events)
        small = layer_rates(normalized_spans([tenth]))
        for growth, layer in (("textir.parse_growth", "textir.parse"),
                              ("rewriting.cse_growth", "rewriting.cse"),
                              ("rewriting.dce_growth", "rewriting.dce")):
            base = per_op(small, layer)
            metrics[growth] = per_op(rates, layer) / base if base else 0.0
    shard = durations(events, "parallel.shard_verify")
    serial = durations(events, "parallel.serial_verify")
    if shard:
        metrics["parallel.shard_verify_s"] = median(shard) / 1e6
        if serial:
            metrics["parallel.speedup"] = median(serial) / median(shard)
        weights = traced[0]["stats"]["shard_weights"]
        metrics["parallel.shard_imbalance"] = (
            max(weights) / (sum(weights) / len(weights)))
    base = median([wall_s(r) for r in untraced])
    metrics["obs.trace_overhead_pct"] = (
        median([wall_s(r) for r in traced]) / base - 1) * 100
    # A pipeline's layers account for its duration minus its own glue.
    accounted = [sum(e["dur"] for e in events
                     if e["parent"] == root["id"]) / 1e6
                 for root in events if root["name"] == "pipeline"]
    metrics["obs.trace_accounted_pct"] = median(accounted) / base * 100
    run.detail["self_ms_per_pipeline"] = self_time_table(events, len(traced))
    return metrics


def run_pipeline(run: Run) -> dict[str, float]:
    prepared = prepare(run)
    run.context["input"] = {"ops": prepared.ops, "bytes": prepared.bytes}
    if run.workload == "text-conorm":
        run.context["input"]["planted_sites"] = prepared.expect.sites
    if run.workload == "irbc-sharded":
        run.context["input"]["planted_invalid"] = prepared.expect[1]
    check = OutputChecker(run, prepared)
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        want_trace = run.trace and len(traced) < len(untraced)
        result = run_worker(run, prepared, want_trace,
                            probes=want_trace and not traced)
        if result is not None and check(result):
            (traced if want_trace else untraced).append(result)
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= 2 and (not run.trace or len(traced) >= 2)
        if (elapsed >= run.seconds and enough) or elapsed >= RUN_CAP_S:
            break
    check.finish()
    if not untraced or (run.trace and not traced):
        return {}
    if run.trace:
        tenth = None
        if run.workload != "irbc-sharded":
            small = prepare(run, scale=0.1)
            small_check = OutputChecker(run, small)
            tenth = run_worker(run, small, True)
            if tenth is not None and not small_check(tenth):
                tenth = None
            small_check.finish()
        run.events = [e for result in traced for e in result["spans"]]
        metrics = pipeline_layers(run, untraced, traced, tenth)
        metrics["failed_ratio"] = run.failed / run.attempted
        return metrics
    walls = [wall_s(r) for r in untraced]
    run.detail.update(samples=len(walls),
                      raw_wall_s=[r["wall_s"] for r in untraced],
                      raw_setup_s=[r["setup_s"] for r in untraced],
                      calibration_s=[r["calibration_s"] for r in untraced])
    return {
        "setup_s": median([r["setup_s"] * speed(*r["calibration_s"])
                           for r in untraced]),
        "us_per_op": median(walls) / prepared.ops * 1e6,
        "output_bytes_per_op": (
            untraced[0]["out_bytes"] if run.workload != "irbc-sharded"
            else prepared.bytes) / prepared.ops,
        "peak_rss_mb": median([r["rss_kb"] for r in untraced]) / 1024,
        "req_per_s": len(walls) / sum(walls),
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p99_ms": percentile(walls, 99) * 1e3,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(run.dir, exist_ok=True)
    run.context = {
        "workload": run.workload, "seed": run.seed, "trace": run.trace,
        "host_cores": os.cpu_count(), "python": platform.python_version(),
        "src_lines": src_lines(),
    }
    try:
        if run.workload == "server-mix":
            from server_mix import run_server_mix

            metrics = run_server_mix(run)
        else:
            metrics = run_pipeline(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    wanted = PER_LAYER if run.trace else END_TO_END
    if not metrics or run.attempted == 0:
        print(json.dumps({"context": run.context, "problems": run.problems}),
              file=sys.stderr)
        print("perfbench: no successful run to report", file=sys.stderr)
        return 1
    if run.trace:
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(
            OUT, f"trace-{run.workload}-s{run.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(run.events), handle)
        run.detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    print(json.dumps({"context": run.context}))
    print(json.dumps({"detail": run.detail, "problems": run.problems}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
