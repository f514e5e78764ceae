"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of the same Python code drifts by up to 2x
over minutes, as other tenants load the caches and memory, which swamps
any program change and makes two sets of runs disagree.  Every timed
piece of work is therefore bracketed by a fixed, allocation-heavy loop
of the benchmark's own (an SSA-like object graph built and walked, the
same kind of work as the pipeline), and every time is reported as if
the host ran that loop in :data:`NOMINAL_S`::

    normalized = measured * NOMINAL_S / loop time

The loop runs no program code, so a program change moves the normalized
time exactly as it moves the measured one.  The raw times and the loop
times are printed in each run's details.  For the pipelines the loop
runs in the worker, before and after its pipeline.  ``server-mix``'s
work runs in the daemon, which a loop run only before and after the
whole load did not track; the client process runs the loop between
every two-second segment of the load instead (``server_mix.timed_load``).
"""

from __future__ import annotations

import gc
import time

#: The loop's time on the reference host (a 2-core CPython 3.11 host in
#: its unloaded state); normalized timings are in that host's units.
NOMINAL_S = 0.11
NODES = 40_000


class _Node:
    __slots__ = ("name", "operands", "attrs", "uses")


def _graph() -> dict:
    nodes: list[_Node] = []
    for i in range(NODES):
        node = _Node()
        node.name = f"op{i % 50}"
        node.operands = ([nodes[i - 1 - (i * 7) % min(i, 16)],
                          nodes[i - 1 - (i * 3) % min(i, 16)]] if i else [])
        node.attrs = {"weight": i % 13}
        node.uses = []
        for operand in node.operands:
            operand.uses.append(node)
        nodes.append(node)
    histogram: dict[str, int] = {}
    for node in nodes:
        histogram[node.name] = histogram.get(node.name, 0) + len(node.uses)
    return histogram


def calibration_s(rounds: int = 3) -> float:
    """The median time of ``rounds`` runs of the loop.

    The caller's heap is frozen first, so the collections the loop
    triggers traverse only the loop's own objects and its time does not
    depend on how large the program's heap is.
    """
    times = []
    gc.collect()
    gc.freeze()
    try:
        _graph()  # untimed: grows the allocator's arenas once
        for _ in range(rounds):
            start = time.perf_counter()
            _graph()
            times.append(time.perf_counter() - start)
    finally:
        gc.unfreeze()
        gc.collect()
    times.sort()
    return times[len(times) // 2]


def speed(before: float, after: float) -> float:
    """The factor that puts a time measured between two calibrations in
    reference-host units."""
    return NOMINAL_S / ((before + after) / 2)
