"""Tests of the benchmark's own parts: references, generators, statistics.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from collections import Counter

import pytest

import server_mix
import workloads as wl
from common import END_TO_END, PER_LAYER, ROOT, SRC
from spans import Spans, self_times
from stats import median, percentile, samples_beyond, samples_needed


# ----------------------------------------------------------------------
# The CSE/DCE reference model
# ----------------------------------------------------------------------

def test_cse_dce_model_on_a_hand_computed_block():
    ops = [
        ("bench.source", (), None),            # 0: kept, the one source
        ("bench.source", (), None),            # 1: CSE -> 0
        ("bench.add", (0, 1), None),           # 2: add(0, 0)
        ("bench.add", (0, 0), None),           # 3: CSE -> 2
        ("bench.mul", (2, 3), None),           # 4: mul(2, 2), read only by 7
        ("bench.accumulate", (2,), "1"),       # 5: never read -> DCE
        ("bench.sink", (3,), None),            # 6: root, reads 2
        ("bench.add", (4, 4), None),           # 7: never read -> DCE, then 4
        ("bench.source", (), None),            # 8: CSE -> 0
    ]
    assert wl.cse_dce_model(ops, wl.synth_has_result) == [
        ("bench.source", (), None),
        ("bench.add", (0, 0), None),
        ("bench.sink", (1,), None),
    ]


def test_cse_dce_model_keeps_ops_that_differ_in_attributes():
    ops = [
        ("bench.source", (), None),
        ("bench.accumulate", (0,), "1"),
        ("bench.accumulate", (0,), "2"),
        ("bench.accumulate", (0,), "1"),       # CSE -> 1
        ("bench.sink", (1,), None),
        ("bench.sink", (2,), None),
        ("bench.sink", (3,), None),
    ]
    assert wl.cse_dce_model(ops, wl.synth_has_result) == [
        ("bench.source", (), None),
        ("bench.accumulate", (0,), "1"),
        ("bench.accumulate", (0,), "2"),
        ("bench.sink", (1,), None),
        ("bench.sink", (2,), None),
        ("bench.sink", (1,), None),
    ]


# ----------------------------------------------------------------------
# The conorm generator
# ----------------------------------------------------------------------

_DEF = re.compile(r"^\s*(%\w+) = \"?([\w.]+)\"?[ (](.*)$")


def _count_sites(text: str) -> int:
    """``arith.mulf`` ops whose two operands are both ``cmath.norm``s."""
    defined_by = {}
    sites = 0
    for line in text.splitlines():
        match = _DEF.match(line)
        if match is None:
            continue
        value, name, rest = match.groups()
        defined_by[value] = name
        if name == "arith.mulf":
            operands = re.findall(r"%\w+", rest.split(")")[0])
            sites += all(defined_by.get(v) == "cmath.norm" for v in operands)
    return sites


def test_conorm_prediction_matches_the_text():
    module = wl.conorm_module(seed=5, functions=60)
    assert wl.op_histogram(module.text) == module.histogram
    assert module.histogram["func.func"] == 60
    assert module.sites == _count_sites(module.text) > 0
    after = module.rewritten_histogram()
    assert after["cmath.mul"] - module.histogram["cmath.mul"] == module.sites
    assert module.histogram["cmath.norm"] - after["cmath.norm"] == module.sites
    assert module.histogram["arith.mulf"] - after["arith.mulf"] == module.sites
    assert sum(after.values()) == module.ops - module.sites


def test_conorm_generator_is_seeded():
    assert wl.conorm_module(3, 20).text == wl.conorm_module(3, 20).text
    assert wl.conorm_module(3, 20).text != wl.conorm_module(4, 20).text


def test_about_a_quarter_of_steps_plant_a_site():
    module = wl.conorm_module(seed=1, functions=400)
    steps = len(re.findall(r"%s\d+_r = ", module.text))
    assert 0.2 < module.sites / steps < 0.3


def test_conorm_prediction_holds_on_the_program():
    sys.path.insert(0, SRC)
    session_module = pytest.importorskip("repro.server.session")
    from common import CMATH_IRDL, CONORM_PATTERNS

    module = wl.conorm_module(seed=9, functions=30)
    session = session_module.Session()
    session.register_dialect_path(CMATH_IRDL)
    with open(CONORM_PATTERNS, encoding="utf-8") as handle:
        patterns = session.parse_pattern_text(handle.read())
    ir = session.load_module(module.text)
    manager = session.run_patterns(ir, patterns,
                                   ["canonicalize", "cse", "dce"])
    printed = session.emit(ir)
    assert wl.op_histogram(printed) == module.rewritten_histogram()
    stats = dict(manager.passes[0].statistics())
    assert stats["pattern-rewrites"] == module.sites


# ----------------------------------------------------------------------
# The server-mix request sequence
# ----------------------------------------------------------------------

def test_every_deck_holds_the_mix_and_each_type_cycles_the_pool():
    deck = server_mix.DECK
    requests = server_mix.schedule(random.Random(5), 10)
    sent = [next(requests) for _ in range(4 * deck)]
    for start in range(0, len(sent), deck):
        kinds = Counter(kind for kind, _ in sent[start:start + deck])
        assert kinds == {kind: round(share * deck)
                         for kind, share in server_mix.MIX}
    parses = [module for kind, module in sent if kind == "parse"]
    assert sorted(parses[:10]) == list(range(10))
    again = server_mix.schedule(random.Random(5), 10)
    assert [next(again) for _ in range(len(sent))] == sent


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 99) == 990
    assert percentile(values, 50) == 500
    assert percentile(values, 100) == 1000
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_sample_counts_for_p99():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(0, 99) == 0
    assert samples_needed(99) == 1000
    assert samples_needed(50, beyond=1) == 2


# ----------------------------------------------------------------------
# Spans and the declared metrics
# ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = Spans()
    with spans.span("pipeline") as root:
        with spans.span("textir.parse"):
            pass
    spans.add("rewriting.dce", root["ts"], 10.0, root)
    own = self_times(spans.events)
    children = [e for e in spans.events if e["parent"] == root["id"]]
    assert len(children) == 2
    assert own[root["id"]] == pytest.approx(
        root["dur"] - sum(e["dur"] for e in children))


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    from run import WORKLOADS

    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
