"""One pipeline run in a fresh interpreter, as one ``irdl-opt`` run does.

Usage: ``python3 perfbench/worker.py TASK_JSON``.  The task names the
workload, its input and output files and whether to trace.  The worker
times its own set-up (import ``repro``, which nothing has imported yet,
build the ``Session``, register the dialect, parse the patterns), then
times the pipeline between two runs of the calibration loop, writes the
output and prints one JSON line: the two times, the two loop times, its
peak RSS, the pipeline's statistics and, when tracing, the spans and the
``repro.obs`` counters of the run.
"""

import json
import resource
import sys
import time

from calibrate import calibration_s
from common import add_pass_spans, lex_probe
from spans import Spans


def _module_pipeline(task, session, patterns, spans):
    """parse or decode -> verify -> passes -> verify -> print or encode."""
    ops = task["ops"]
    load, emit = (("textir.parse", "textir.print") if task["emit"] == "text"
                  else ("bytecode.decode", "bytecode.encode"))
    start = time.perf_counter()
    with spans.span("pipeline", ops=ops):
        with open(task["input"], "rb") as handle:
            data = handle.read()
        with spans.span(load, ops=ops):
            module = session.load_module(data, task["name"])
        with spans.span("verify.input", ops=ops):
            session.verify(module)
        with spans.span("rewriting.run_patterns", ops=ops) as run:
            manager = session.run_patterns(module, patterns, task["passes"])
        with spans.span("verify.output") as verify_out:
            session.verify(module)
        with spans.span(emit) as emit_span:
            rendered = session.emit(module, task["emit"])
        if isinstance(rendered, str):
            rendered = rendered.encode("utf-8")
        with open(task["output"], "wb") as handle:
            handle.write(rendered)
    wall_s = time.perf_counter() - start
    out_ops = sum(1 for _ in module.walk())
    stats = {"wall_s": wall_s, "out_ops": out_ops, "out_bytes": len(rendered),
             "history": manager.history,
             "passes": {p.name: dict(p.statistics()) for p in manager.passes}}
    if spans.enabled:
        verify_out["args"]["ops"] = emit_span["args"]["ops"] = out_ops
        emit_span["args"]["bytes"] = len(rendered)
        add_pass_spans(spans, run, manager.records)
        if task["emit"] == "text" and task.get("probes"):
            with spans.span("probe"):
                lex_probe(spans, data.decode("utf-8"), ops)
    return stats


def _sharded_pipeline(task, session, spans):
    """lazy open -> shard_verify_file(workers=nproc)."""
    from repro.bytecode import LazyModuleReader
    from repro.parallel import partition_entries, shard_verify_file

    payloads = [task["irdl_bytes"]]
    start = time.perf_counter()
    with spans.span("pipeline", ops=task["ops"]):
        with spans.span("bytecode.lazy_open", ops=task["ops"]):
            with LazyModuleReader.open(session.ctx, task["input"]) as reader:
                weights = [handle.op_count for handle in reader.handles]
        with spans.span("parallel.shard_verify", ops=task["ops"]):
            report = shard_verify_file(task["input"], workers=task["workers"],
                                       dialect_payloads=payloads)
        diagnostics = [[d.entry_index, d.op_name, d.message]
                       for d in report.diagnostics]
        with open(task["output"], "w", encoding="utf-8") as handle:
            json.dump(diagnostics, handle)
    wall_s = time.perf_counter() - start
    shard_weights = [sum(weights[lo:hi])
                     for lo, hi in partition_entries(weights, report.workers)]
    stats = {"wall_s": wall_s, "entries": len(weights),
             "report_ops": report.ops,
             "workers": report.workers, "shards": report.shards,
             "shard_weights": shard_weights}
    if spans.enabled and task.get("probes"):
        with spans.span("probe"):
            with spans.span("parallel.serial_verify", ops=task["ops"]):
                shard_verify_file(task["input"], workers=1,
                                  dialect_payloads=payloads)
            _force_probe(task, session, spans)
    return stats


def _force_probe(task, session, spans):
    """Force and verify the first tenth of the entries in-process."""
    from repro.bytecode import LazyModuleReader
    from repro.ir.exceptions import VerifyError

    with LazyModuleReader.open(session.ctx, task["input"]) as reader:
        handles = reader.handles[:max(1, len(reader.handles) // 10)]
        forced_ops = sum(handle.op_count for handle in handles)
        with spans.span("bytecode.force", ops=forced_ops):
            ops = [handle.force() for handle in handles]
        with spans.span("verify.input", ops=forced_ops):
            for op in ops:
                try:
                    op.verify()
                except VerifyError:
                    pass


def main() -> int:
    task = json.loads(sys.argv[1])
    sys.path.insert(0, task["src"])
    spans = Spans(enabled=task["trace"])
    registry = None
    start = time.perf_counter()
    with spans.span("setup"):
        if task["trace"]:
            from repro.obs import MetricsRegistry, enable_metrics

            registry = enable_metrics(MetricsRegistry())
        from repro.server.session import Session

        session = Session()
        with open(task["irdl"], "rb") as handle:
            task["irdl_bytes"] = handle.read()
        with spans.span("irdl.register"):
            session.register_dialect_data(task["irdl_bytes"], task["irdl"])
        patterns = []
        if task.get("patterns"):
            with open(task["patterns"], encoding="utf-8") as handle:
                pattern_text = handle.read()
            with spans.span("rewriting.pattern_parse"):
                patterns = session.parse_pattern_text(pattern_text,
                                                      task["patterns"])
    setup_s = time.perf_counter() - start
    calibration = [calibration_s()]
    if task["workload"] == "irbc-sharded":
        stats = _sharded_pipeline(task, session, spans)
    else:
        stats = _module_pipeline(task, session, patterns, spans)
    wall_s = stats.pop("wall_s")
    # Read before the second loop run, whose allocations could otherwise
    # raise the peak above the pipeline's.
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    calibration.append(calibration_s())
    result = {"setup_s": setup_s, "wall_s": wall_s, "rss_kb": rss,
              "calibration_s": calibration,
              "stats": stats, "spans": spans.events,
              "counters": registry.snapshot()["counters"] if registry else {}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
