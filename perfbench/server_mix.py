"""``server-mix``: ``repro-serve`` in its own process, closed-loop clients.

The daemon runs with its default settings (only the port is left to the
OS).  The benchmark drives one closed-loop client per core, each on its
own connection and tenant: a client sends its next request only after
the previous reply arrived.  Each request carries a seeded
``text-conorm``-style module of 1-6 functions; the mix is below.  The
client speaks the length-prefixed JSON framing itself, so no ``repro``
code runs on the client side of a measured request.

The untraced load runs in segments of :data:`SEGMENT_S` with
``calibrate.py``'s loop run in this process between them, while the
clients wait; each segment's times are normalized by the mean of the two
loop times around it, as the pipeline workers' times are by the loops
around each pipeline.  The loop runs no ``repro`` code, so a program
change moves the normalized times as it moves the raw ones.  Set-up
times and the traced run's per-layer times stay raw.

Replies are kept and checked after the load, against the generator's
predictions: the op-name histograms (before and after the conorm
rewrite), the op counts, the rewrite count and the cache hits.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import struct
import sys
import time
from typing import NamedTuple

import workloads as wl
from calibrate import calibration_s, speed
from common import (
    CMATH_IRDL, CONORM_PATTERNS, REQUEST_TYPES, ROOT, SRC, Run,
    add_pass_spans, durations, layer_metrics, lex_probe, self_time_table,
)
from spans import Spans, now_us
from stats import median, percentile, samples_beyond, samples_needed

#: Request types and their shares of the closed loop.
MIX = (("parse", 0.30), ("verify", 0.30), ("rewrite", 0.25),
       ("roundtrip", 0.10), ("register_dialect", 0.05))
#: Requests per deck: each deck holds every type in exactly its share.
DECK = 20
REWRITE_PIPELINE = ["canonicalize", "cse", "dce"]
#: Distinct request modules, generated from the seed; module ``i`` has
#: ``1 + i % 6`` functions, so every seed's pool has the same shape.
MODULE_POOL = 96
#: Enough requests for ten samples above the p99.
MIN_REQUESTS = samples_needed(99)
#: Daemon start-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Length of one load segment between two calibrations.
SEGMENT_S = 2.0
#: Untimed closed-loop load on the final daemon before the timed load.
WARMUP_S = 1.0
#: The load stops here even if it has not reached MIN_REQUESTS.
LOAD_CAP_S = 100.0
REQUEST_TIMEOUT_S = 60.0
#: Requests of each type replayed in-process in the traced run.
REPLAY_PER_TYPE = 12

_LENGTH = struct.Struct(">I")


class Connection:
    """One client connection bound to one tenant."""

    def __init__(self, reader, writer, tenant: str):
        self.reader = reader
        self.writer = writer
        self.tenant = tenant
        self.next_id = 0

    @classmethod
    async def open(cls, port: int, tenant: str) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, tenant)

    async def call(self, message: dict):
        """Send one request; returns (latency in s, request frame bytes,
        reply frame bytes, send time in us, reply body)."""
        self.next_id += 1
        message = dict(message, id=self.next_id, tenant=self.tenant)
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
        sent = now_us()
        start = time.perf_counter()
        self.writer.write(_LENGTH.pack(len(payload)) + payload)
        await self.writer.drain()
        (length,) = _LENGTH.unpack(await self.reader.readexactly(4))
        body = await self.reader.readexactly(length)
        latency = time.perf_counter() - start
        return latency, len(payload) + 4, length + 4, sent, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


class Daemon:
    """A ``repro-serve`` process with default settings on a free port."""

    def __init__(self, run: Run, index: int):
        self.run = run
        self.index = index
        self.proc = None
        self.port = 0
        self.stderr = None

    async def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        self.stderr = open(os.path.join(self.run.dir,
                                        f"daemon-{self.index}.err"), "wb")
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.server.daemon", "--port", "0",
            cwd=ROOT, env=env, stdout=asyncio.subprocess.PIPE,
            stderr=self.stderr,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        if b"listening on" not in line:
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        self.port = int(line.decode().strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    async def stop(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.proc.wait(), 20)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        if self.stderr is not None:
            self.stderr.close()


def _request(kind: str, module: wl.ConormModule, texts: dict) -> dict:
    if kind == "register_dialect":
        return {"type": kind, "irdl": texts["irdl"], "name": "cmath.irdl",
                "replace": True}
    message = {"type": kind, "ir": module.text}
    if kind == "rewrite":
        message.update(patterns=texts["patterns"], pipeline=REWRITE_PIPELINE)
    return message


def check_reply(kind: str, module: wl.ConormModule, body: bytes) -> str | None:
    """``None`` when the reply matches the generator's prediction."""
    reply = json.loads(body)
    if not reply.get("ok"):
        return f"{kind}: error reply {reply.get('error')}"
    result = reply["result"]
    if kind == "register_dialect":
        if not (result["cache_hit"] and result["replaced"]
                and result["dialects"] == ["cmath"]):
            return f"register_dialect: {result}"
        return None
    if kind == "verify":
        if not result["verified"] or result["ops"] != module.ops:
            return f"verify: {result['ops']} ops, generated {module.ops}"
        return None
    text = result["text"] if kind == "roundtrip" else result["ir"]
    expect = (module.rewritten_histogram() if kind == "rewrite"
              else module.histogram)
    if wl.op_histogram(text) != expect:
        return f"{kind}: op histogram differs from the prediction"
    if kind == "roundtrip":
        if not result["stable"] or not result["bytecode_b64"]:
            return "roundtrip: not stable"
        return None
    if result["ops"] != sum(expect.values()):
        return f"{kind}: {result['ops']} ops, predicted {sum(expect.values())}"
    if kind == "rewrite":
        applied = result["statistics"].get("canonicalize", {}).get(
            "pattern-rewrites", 0)
        if applied != module.sites:
            return f"rewrite: {applied} rewrites, {module.sites} sites"
    return None


class Reply(NamedTuple):
    kind: str
    module: int
    latency: float
    request_bytes: int
    reply_bytes: int
    sent_us: float
    body: bytes


async def drive(run: Run, connections, requests, pool, texts: dict,
                seconds: float, min_requests: int
                ) -> tuple[list[Reply], float]:
    """The closed loop: each connection sends the next request of the
    shared ``requests`` sequence only after its previous reply; stops at
    ``seconds`` once ``min_requests`` are in.  Returns the replies and
    how long the load ran."""
    replies: list[Reply] = []
    start = time.perf_counter()

    async def client(connection: Connection) -> None:
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= LOAD_CAP_S or (elapsed >= seconds
                                         and len(replies) >= min_requests):
                return
            kind, module = next(requests)
            try:
                reply = await asyncio.wait_for(
                    connection.call(_request(kind, pool[module], texts)),
                    REQUEST_TIMEOUT_S)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    OSError) as err:
                run.attempted += 1
                run.fail(f"{kind}: connection lost: {err!r}")
                return
            replies.append(Reply(kind, module, *reply))

    await asyncio.gather(*(client(c) for c in connections))
    return replies, time.perf_counter() - start


class TimedLoad(NamedTuple):
    """The untraced load, segment by segment."""

    replies: list[Reply]
    #: Each reply's speed factor: its segment's ``calibrate.speed``.
    factors: list[float]
    #: Raw and normalized time the load ran, summed over the segments.
    wall: float
    normalized_wall: float
    #: The loop times, one before each segment and one after the last.
    calibrations: list[float]


async def timed_load(run: Run, connections, requests, pool, texts: dict,
                     seconds: float, min_requests: int) -> TimedLoad:
    """:func:`drive` in segments of :data:`SEGMENT_S`, the calibration
    loop run between them, until ``seconds`` of load and ``min_requests``
    are in (or a connection is lost)."""
    replies: list[Reply] = []
    factors: list[float] = []
    wall = normalized = 0.0
    calibrations = [calibration_s(1)]
    while ((wall < seconds or len(replies) < min_requests)
           and wall < LOAD_CAP_S and not run.failed):
        segment, segment_wall = await drive(
            run, connections, requests, pool, texts, SEGMENT_S, 0)
        calibrations.append(calibration_s(1))
        factor = speed(*calibrations[-2:])
        replies += segment
        factors += [factor] * len(segment)
        wall += segment_wall
        normalized += segment_wall * factor
    return TimedLoad(replies, factors, wall, normalized, calibrations)


def schedule(rng: random.Random, pool_size: int):
    """The endless request sequence the clients share, as (type, module).

    Each deck of :data:`DECK` requests holds every type in exactly its
    share, in a seeded order, and each type cycles through a seeded
    permutation of the pool.  What a run sends is thus a prefix of the
    sequence whose mix and module sizes depend on the seed's modules and
    hardly at all on its draws, so runs of different seeds time the same
    amount of work.
    """
    deck = [kind for kind, share in MIX for _ in range(round(share * DECK))]
    orders: dict[str, list[int]] = {kind: [] for kind, _ in MIX}
    while True:
        rng.shuffle(deck)
        for kind in deck:
            if not orders[kind]:
                orders[kind] = rng.sample(range(pool_size), pool_size)
            yield kind, orders[kind].pop()


async def _setup(run: Run, index: int, texts: dict, tenants: int):
    """Start a daemon: (daemon, connections, setup seconds, cache hits)."""
    start = time.perf_counter()
    daemon = Daemon(run, index)
    connections: list[Connection] = []
    try:
        await daemon.start()
        probe = await Connection.open(daemon.port, "setup")
        *_, body = await probe.call({"type": "ping"})
        await probe.close()
        if not json.loads(body).get("ok"):
            raise RuntimeError(f"ping failed: {body!r}")
        setup_s = time.perf_counter() - start
        hits = []
        for tenant in range(tenants):
            connection = await Connection.open(daemon.port,
                                               f"tenant-{tenant}")
            connections.append(connection)
            latency, *_, body = await connection.call(
                {"type": "register_dialect", "irdl": texts["irdl"],
                 "name": "cmath.irdl"})
            setup_s += latency
            run.attempted += 1
            reply = json.loads(body)
            if (not reply.get("ok")
                    or reply["result"]["dialects"] != ["cmath"]):
                run.fail(f"cold register_dialect: {reply}")
            else:
                hits.append(reply["result"]["cache_hit"])
    except BaseException:
        for connection in connections:
            await connection.close()
        await daemon.stop()
        raise
    return daemon, connections, setup_s, hits


def _check(run: Run, pool, replies: list[Reply]) -> None:
    run.attempted += len(replies)
    for reply in replies:
        problem = check_reply(reply.kind, pool[reply.module], reply.body)
        if problem is not None:
            run.fail(problem)


def _replay(spans: Spans, pool, replies: list[Reply], texts: dict) -> dict:
    """Each request type's work as the same ``Session`` calls, in-process."""
    from repro.obs import MetricsRegistry, enable_metrics, reset
    from repro.server.cache import DialectCache
    from repro.server.session import Session

    cmath = texts["irdl"].encode("utf-8")
    registry = enable_metrics(MetricsRegistry())
    try:
        for _ in range(3):
            with spans.span("replay"):
                with spans.span("irdl.register"):
                    Session().register_dialect_data(cmath, "cmath.irdl")
        session = Session()
        session.register_dialect_data(cmath, "cmath.irdl")
        cache = DialectCache()
        cache.get_or_compile(cmath, name="cmath.irdl")
        for kind in REQUEST_TYPES:
            seen: list[int] = []
            for reply in replies:
                if reply.kind == kind and reply.module not in seen:
                    seen.append(reply.module)
            for index in (seen or range(len(pool)))[:REPLAY_PER_TYPE]:
                module = pool[index]
                with spans.span("replay"):
                    with spans.span(f"server.{kind}.work", ops=module.ops):
                        _work(kind, session, cache, module, texts, spans)
                    if kind == "parse":
                        lex_probe(spans, module.text, module.ops)
    finally:
        reset()
    return registry.snapshot()["counters"]


def _work(kind, session, cache, module, texts, spans) -> None:
    """The daemon handler's ``Session`` calls for one request type."""
    if kind == "register_dialect":
        compiled, _ = cache.get_or_compile(texts["irdl"].encode("utf-8"),
                                           name="cmath.irdl")
        for binding, dialect_def in zip(compiled.bindings, compiled.defs):
            session.install_binding(binding, dialect_def, replace=True)
        return
    ops = module.ops
    with spans.span("textir.parse", ops=ops):
        ir = session.load_module(module.text.encode("utf-8"), "<request>")
    if kind in ("verify", "rewrite"):
        with spans.span("verify.input", ops=ops):
            session.verify(ir)
    if kind == "rewrite":
        with spans.span("rewriting.pattern_parse"):
            patterns = session.parse_pattern_text(texts["patterns"])
        with spans.span("rewriting.run_patterns", ops=ops) as run_span:
            manager = session.run_patterns(ir, patterns, REWRITE_PIPELINE)
        add_pass_spans(spans, run_span, manager.records)
        ops = sum(module.rewritten_histogram().values())
        with spans.span("verify.output", ops=ops):
            session.verify(ir)
    if kind in ("parse", "rewrite", "roundtrip"):
        with spans.span("textir.print", ops=ops):
            session.emit(ir)
    if kind == "roundtrip":
        # Session.roundtrip: print (above), encode, decode, print again.
        with spans.span("bytecode.encode", ops=ops) as encode:
            data = session.emit(ir, "bytecode")
        encode["args"]["bytes"] = len(data)
        with spans.span("bytecode.decode", ops=ops):
            reloaded = session.load_module(data, "<roundtrip>")
        with spans.span("textir.print", ops=ops):
            session.emit(reloaded)


def _layers(run: Run, events, untraced: list[Reply], traced: list[Reply],
            counters: dict, hits: list[bool]) -> dict[str, float]:
    """Per-layer metrics from the traced load and the in-process replay."""
    metrics = layer_metrics(events, counters, 1)
    work = {}
    for kind in REQUEST_TYPES:
        latencies = [r.latency for r in traced if r.kind == kind]
        if latencies:
            metrics[f"server.{kind}.latency_p50_ms"] = median(latencies) * 1e3
        work[kind] = median(durations(events, f"server.{kind}.work")) / 1e6
        metrics[f"server.{kind}.work_ms"] = work[kind] * 1e3
    metrics["server.overhead_ms"] = median(
        [r.latency - work[r.kind] for r in traced]) * 1e3
    metrics["server.frame_bytes_per_req"] = (
        sum(r.request_bytes + r.reply_bytes for r in traced) / len(traced))
    metrics["server.register_cache_hit_ratio"] = sum(hits) / len(hits)
    metrics["obs.trace_overhead_pct"] = (
        median([r.latency for r in traced])
        / median([r.latency for r in untraced]) - 1) * 100
    # The layers account for each replayed request's in-process work.
    work_spans = [e for e in events if e["name"].endswith(".work")]
    ids = {e["id"] for e in work_spans}
    covered = sum(e["dur"] for e in events if e["parent"] in ids)
    metrics["obs.trace_accounted_pct"] = (
        covered / sum(e["dur"] for e in work_spans) * 100)
    metrics["failed_ratio"] = run.failed / run.attempted
    return metrics


async def _run(run: Run) -> dict[str, float]:
    tenants = os.cpu_count() or 1
    with open(CMATH_IRDL, encoding="utf-8") as handle:
        irdl = handle.read()
    with open(CONORM_PATTERNS, encoding="utf-8") as handle:
        patterns = handle.read()
    texts = {"irdl": irdl, "patterns": patterns}
    rng = random.Random(run.seed)
    pool = [wl.conorm_module(rng.randrange(1 << 32), 1 + index % 6)
            for index in range(MODULE_POOL)]
    run.context["input"] = {
        "modules": len(pool),
        "ops_per_module": [min(m.ops for m in pool),
                           max(m.ops for m in pool)],
        "bytes_per_module": [min(len(m.text) for m in pool),
                             max(len(m.text) for m in pool)],
        "clients": tenants, "mix": dict(MIX),
    }
    setups = []
    daemon = None
    connections: list[Connection] = []
    requests = schedule(rng, len(pool))
    try:
        for index in range(SETUPS):
            if daemon is not None:
                for connection in connections:
                    await connection.close()
                await daemon.stop()
            daemon, connections, setup_s, hits = await _setup(
                run, index, texts, tenants)
            setups.append(setup_s)
        warmup, _ = await drive(run, connections, requests, pool, texts,
                                WARMUP_S, 0)
        if run.trace:
            half = (run.seconds / 2, MIN_REQUESTS // 2)
            untraced, _ = await drive(run, connections, requests, pool,
                                      texts, *half)
            traced, wall = await drive(run, connections, requests, pool,
                                       texts, *half)
        else:
            load = await timed_load(run, connections, requests, pool, texts,
                                    run.seconds, MIN_REQUESTS)
            untraced, traced = load.replies, []
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        for connection in connections:
            await connection.close()
        if daemon is not None:
            await daemon.stop()
    if not untraced or (run.trace and not traced):
        return {}
    everything = warmup + untraced + traced
    _check(run, pool, everything)
    hits.extend(json.loads(r.body).get("result", {}).get("cache_hit", False)
                for r in everything if r.kind == "register_dialect")
    run.detail.update(requests=len(everything), setup_s=setups,
                      p99_samples_beyond=samples_beyond(len(untraced), 99))
    if run.trace:
        spans = Spans()
        load = spans.add("load", traced[0].sent_us, wall * 1e6)
        for reply in traced:
            spans.add("server.request", reply.sent_us, reply.latency * 1e6,
                      load, type=reply.kind)
        counters = _replay(spans, pool, traced, texts)
        events = run.events = spans.events
        replayed = durations(spans.events, "replay")
        run.detail["self_ms_per_replayed_request"] = self_time_table(
            [e for e in events
             if e["name"] not in ("load", "server.request")],
            len(replayed))
        return _layers(run, events, untraced, traced, counters, hits)
    latencies = [r.latency * f for r, f in zip(untraced, load.factors)]
    ir = [(r, latency) for r, latency in zip(untraced, latencies)
          if r.kind != "register_dialect"]
    ops = sum(pool[r.module].ops for r, _ in ir)
    run.detail.update(
        raw_req_per_s=len(untraced) / load.wall,
        raw_latency_p50_ms=median([r.latency for r in untraced]) * 1e3,
        calibration_s=load.calibrations)
    return {
        "setup_s": median(setups),
        "us_per_op": sum(latency for _, latency in ir) / ops * 1e6,
        "output_bytes_per_op": sum(r.reply_bytes for r, _ in ir) / ops,
        "peak_rss_mb": peak_rss_mb,
        "req_per_s": len(untraced) / load.normalized_wall,
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
    }


def run_server_mix(run: Run) -> dict[str, float]:
    return asyncio.run(_run(run))
