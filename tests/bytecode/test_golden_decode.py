"""Golden accept/reject outcomes of the module decoder.

``golden_decode.json`` pins, for a fixed set of corrupt and valid
inputs, what the eager decoder (``decode_module``) and the lazy reader
(``LazyModuleReader(...).module()``) each make of it, as one
``"<eager> <lazy>"`` string per input: ``E`` for a
:class:`BytecodeError`, or the digest of the printed IR, locations
included, whose text is kept once under ``"texts"``.  The inputs are
the ``RICH_IR`` artifact of ``test_fuzz`` cut at every length, with
every byte overwritten by ``0xFF``, through the seeded mutations of
``TestRandomMutations.test_module_mutations``, and with its op index
corrupted the ways ``TestLazyIndexCorruption`` corrupts it; the same
index corruptions of a small synth module with several top-level ops;
plus the generated module of every corpus dialect of
``test_corpus_roundtrip``.

Any rewrite of the decoder must reproduce every outcome: the same
accept/reject split, the same printed IR, and every rejection a
``BytecodeError``.  Re-record (only for a deliberate format change)
with::

    PYTHONPATH=src python -m tests.bytecode.test_golden_decode
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from repro.builtin import default_context
from repro.bytecode import (
    BytecodeError,
    LazyModuleReader,
    decode_module,
    encode_module,
)
from repro.bytecode.encoder import SECTION_OP_INDEX
from repro.bytecode.wire import Reader, Writer
from repro.corpus import CORPUS_ORDER, cmath_source, load_hand_corpus
from repro.corpus.synth import register_bench_dialect, synthesize_module
from repro.irdl import register_irdl
from repro.irdl.irgen import IRGenerator, seed_values_dialect
from repro.textir.parser import parse_module
from repro.textir.printer import print_op
from tests.bytecode.test_fuzz import RICH_IR, mutate_index, split_sections

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_decode.json")
ERROR = "E"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _outcome(decode, texts: dict[str, str]) -> str:
    try:
        op = decode()
    except BytecodeError:
        return ERROR
    text = print_op(op, print_locations=True)
    key = _digest(text)
    texts[key] = text
    return key


def _mutations(data: bytes):
    """The seeded mutations of ``test_module_mutations``, in order."""
    for seed in range(8):
        rng = random.Random(seed)
        for _ in range(200):
            mutated = bytearray(data)
            for _ in range(rng.randrange(1, 6)):
                choice = rng.random()
                if choice < 0.5 and mutated:
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                elif choice < 0.75 and mutated:
                    del mutated[rng.randrange(len(mutated))]
                else:
                    mutated.insert(
                        rng.randrange(len(mutated) + 1), rng.randrange(256)
                    )
            yield bytes(mutated)


def _edit_field(field: int, delta: int):
    def edit(payload: bytes) -> bytes:
        reader = Reader(payload)
        writer = Writer()
        count = reader.varint()
        writer.varint(count)
        for entry in range(count):
            for pos in range(3):
                value = reader.varint()
                if entry == 0 and pos == field:
                    value = max(0, value + delta)
                writer.varint(value)
        return writer.getvalue()

    return edit


def _change_count(delta: int):
    def edit(payload: bytes) -> bytes:
        reader = Reader(payload)
        writer = Writer()
        writer.varint(max(0, reader.varint() + delta))
        writer.raw(payload[reader.pos:])
        return writer.getvalue()

    return edit


def _flip(pos: int, flip: int):
    def edit(payload: bytes) -> bytes:
        corrupt = bytearray(payload)
        corrupt[pos] ^= flip
        return bytes(corrupt)

    return edit


def _index_corruptions(data: bytes):
    """The op-index corruptions of ``TestLazyIndexCorruption``."""
    _, sections = split_sections(data)
    index_len = next(len(p) for sid, p in sections if sid == SECTION_OP_INDEX)
    for cut in range(index_len):
        yield mutate_index(data, lambda p, cut=cut: p[:cut])
    for field, deltas in ((0, (1, -1, 1 << 24)), (1, (1, -1, 1 << 24)),
                          (2, (1, -1))):
        for delta in deltas:
            yield mutate_index(data, _edit_field(field, delta))
    for delta in (-1, 1, 1000):
        yield mutate_index(data, _change_count(delta))
    for pos in range(index_len):
        for flip in (0x01, 0x80, 0xFF):
            yield mutate_index(data, _flip(pos, flip))


def _overwrites(data: bytes):
    for pos in range(len(data)):
        mutated = bytearray(data)
        mutated[pos] = 0xFF
        yield bytes(mutated)


def _inputs() -> dict[str, tuple[object, list[bytes]]]:
    """Category -> (base context, inputs)."""
    context = default_context()
    register_irdl(context, cmath_source())
    data = encode_module(parse_module(context, RICH_IR, name="rich.mlir"))
    synth = default_context()
    register_bench_dialect(synth)
    synth_data = encode_module(synthesize_module(8, seed=3, context=synth))
    return {
        "truncation": (context, [data[:n] for n in range(len(data))]),
        "overwrite_ff": (context, list(_overwrites(data))),
        "random_mutation": (context, list(_mutations(data))),
        "index_corruption": (context, list(_index_corruptions(data))),
        "synth_index_corruption": (
            synth, list(_index_corruptions(synth_data))
        ),
    }


def _outcomes(base, inputs, texts) -> list[str]:
    """``"<eager> <lazy>"`` outcomes per input, in input order."""
    return [
        _outcome(lambda: decode_module(base.clone(), data), texts) + " "
        + _outcome(lambda: LazyModuleReader(base.clone(), data).module(),
                   texts)
        for data in inputs
    ]


def _corpus_modules():
    context, defs = load_hand_corpus()
    seeds = register_irdl(context, seed_values_dialect())
    defs_by_name = {d.name: d for d in defs}
    for name in CORPUS_ORDER:
        generator = IRGenerator(context, [defs_by_name[name], *seeds], seed=7)
        yield name, context, encode_module(generator.generate_module(6))


def record() -> None:
    texts: dict[str, str] = {}
    golden = {
        "mutated": {
            kind: _outcomes(base, data, texts)
            for kind, (base, data) in _inputs().items()
        },
        "corpus": {
            name: print_op(decode_module(context, data), print_locations=True)
            for name, context, data in _corpus_modules()
        },
        "texts": texts,
    }
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


@pytest.mark.parametrize(
    "kind",
    ["truncation", "overwrite_ff", "random_mutation", "index_corruption",
     "synth_index_corruption"],
)
def test_outcomes_match_golden(kind, golden, inputs):
    base, data = inputs[kind]
    texts: dict[str, str] = {}
    outcomes = _outcomes(base, data, texts)
    expected = golden["mutated"][kind]
    assert len(outcomes) == len(expected)
    mismatches = [
        (index, want, got)
        for index, (want, got) in enumerate(zip(expected, outcomes))
        if want != got
    ]
    assert not mismatches, mismatches[:10]
    for key, text in texts.items():
        assert golden["texts"][key] == text


def test_corpus_modules_match_golden(golden):
    for name, context, data in _corpus_modules():
        for decoded in (
            decode_module(context, data),
            LazyModuleReader(context, data).module(),
        ):
            assert print_op(decoded, print_locations=True) == (
                golden["corpus"][name]
            ), name


if __name__ == "__main__":
    record()
