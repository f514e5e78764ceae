"""Golden bytes of the module encoder.

``golden_encode.json`` pins, for a fixed set of modules, the sha256 and
the length of three artifacts each: ``encode_module(index=True)``,
``encode_module(index=False)`` and ``encode_module_stream`` into a
``BytesIO``.  The modules are ``test_fuzz``'s ``RICH_IR`` (locations,
regions, name hints), ``test_lazy``'s ``MULTI_BLOCK_ROOT`` (successors,
several blocks and regions at the root, a forward reference), the
generated module of every corpus dialect of ``test_corpus_roundtrip``,
and 20k-op synth modules of seeds 1-3.

Any rewrite of the encoder must reproduce every artifact byte for
byte: the wire format is fixed by ``FORMAT_VERSION``.  Re-record (only
for a deliberate format change) with::

    PYTHONPATH=src python -m tests.bytecode.test_golden_encode
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import pytest

from repro.builtin import default_context
from repro.bytecode import encode_module, encode_module_stream
from repro.bytecode.encoder import STREAM_CHUNK
from repro.bytecode.wire import MAGIC, Reader
from repro.corpus import CORPUS_ORDER, cmath_source, load_hand_corpus
from repro.corpus.synth import synthesize_module
from repro.irdl import register_irdl
from repro.irdl.irgen import IRGenerator, seed_values_dialect
from repro.textir.parser import parse_module
from tests.bytecode.test_fuzz import RICH_IR
from tests.bytecode.test_lazy import MULTI_BLOCK_ROOT

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_encode.json")
SYNTH_OPS = 20_000
SYNTH_SEEDS = (1, 2, 3)
KINDS = ("index", "no_index", "stream")


def _digests(module) -> dict[str, list]:
    """``kind -> [sha256, length]`` of the module's three artifacts."""
    stream = io.BytesIO()
    encode_module_stream(module, stream)
    artifacts = {
        "index": encode_module(module),
        "no_index": encode_module(module, index=False),
        "stream": stream.getvalue(),
    }
    return {
        kind: [hashlib.sha256(data).hexdigest(), len(data)]
        for kind, data in artifacts.items()
    }


def _modules():
    """``(name, module)`` for every pinned module, in a fixed order."""
    context = default_context()
    register_irdl(context, cmath_source())
    yield "rich", parse_module(context, RICH_IR, name="rich.mlir")
    context = default_context()
    context.allow_unregistered = True
    module = parse_module(context, MULTI_BLOCK_ROOT, name="root.mlir")
    yield "multi_block_root", module.regions[0].blocks[0].ops[0].detach()
    corpus, defs = load_hand_corpus()
    seeds = register_irdl(corpus, seed_values_dialect())
    defs_by_name = {d.name: d for d in defs}
    for name in CORPUS_ORDER:
        generator = IRGenerator(corpus, [defs_by_name[name], *seeds], seed=7)
        yield f"corpus/{name}", generator.generate_module(6)
    for seed in SYNTH_SEEDS:
        yield f"synth/{seed}", synthesize_module(
            SYNTH_OPS, seed, default_context()
        )


def _all_digests() -> dict[str, dict[str, list]]:
    return {name: _digests(module) for name, module in _modules()}


def record() -> None:
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(_all_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def digests():
    return _all_digests()


def test_every_module_is_pinned(golden, digests):
    assert sorted(digests) == sorted(golden)


@pytest.mark.parametrize("kind", KINDS)
def test_artifacts_match_golden(golden, digests, kind):
    mismatches = [
        name
        for name, expected in golden.items()
        if digests[name][kind] != expected[kind]
    ]
    assert not mismatches, mismatches


class _RecordingFile(io.BytesIO):
    """A file that remembers the offset and size of every write."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[tuple[int, int]] = []

    def write(self, data) -> int:
        self.writes.append((self.tell(), len(data)))
        return super().write(data)


def test_stream_writes_the_op_stream_in_bounded_pieces():
    handle = _RecordingFile()
    encode_module_stream(synthesize_module(SYNTH_OPS, 1, default_context()),
                         handle)
    # The streamed OPS section comes first: magic, version, kind, the
    # section id, then its padded length.
    reader = Reader(handle.getvalue(), start=len(MAGIC) + 3)
    length = reader.varint()
    start, end = reader.pos, reader.pos + length
    assert length > 3 * STREAM_CHUNK
    ops_writes = [size for offset, size in handle.writes
                  if offset < end and offset + size > start]
    # Each write is one chunk plus at most the op that crossed it.
    assert max(ops_writes) < STREAM_CHUNK + 256
    assert sum(ops_writes) == length
    assert len(ops_writes) >= length // (STREAM_CHUNK + 256)


if __name__ == "__main__":
    record()
