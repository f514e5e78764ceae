"""Force-order tests of the lazy reader.

Eager decoding forces every top-level op in order; the differential
tests here force the same artifact's ops in a seeded random order
through :class:`~repro.bytecode.lazy.LazyModuleReader` and require
*exactly* the same module — same printed IR with locations, same
interned attribute identities, the same bytes when re-encoded — for
every corpus dialect, for streamed artifacts, and through a real mmap.
"""

from __future__ import annotations

import gc
import io
import random
import sys
import warnings

import pytest

from repro.builtin import default_context
from repro.bytecode import (
    LazyModuleReader,
    decode_module,
    encode_module,
    encode_module_stream,
)
from repro.bytecode.wire import BytecodeError
from repro.corpus import (
    CORPUS_ORDER,
    cmath_source,
    load_hand_corpus,
    synthesize_module,
)
from repro.irdl import register_irdl
from repro.irdl.irgen import IRGenerator, seed_values_dialect
from repro.textir.parser import parse_module
from repro.textir.printer import print_op

LOCATED_IR = """
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
  %prod = "cmath.mul"(%p, %q)
      : (!cmath.complex<f32>, !cmath.complex<f32>) -> (!cmath.complex<f32>)
  %len = cmath.norm %prod : f32
  "func.return"(%len) : (f32) -> ()
}) {sym_name = "mag2", function_type = (!cmath.complex<f32>,
    !cmath.complex<f32>) -> f32} : () -> ()
"""


def cmath_context():
    context = default_context()
    register_irdl(context, cmath_source())
    return context


@pytest.fixture(scope="module")
def corpus_ctx():
    context, defs = load_hand_corpus()
    seeds = register_irdl(context, seed_values_dialect())
    return context, {d.name: d for d in defs}, seeds


def _interned(op):
    """Every attribute and type of an op tree, in walk order."""
    for inner in op.walk():
        yield from inner.attributes.values()
        yield from (value.type for value in inner.results)
        for region in inner.regions:
            for block in region.blocks:
                yield from (arg.type for arg in block.args)


def assert_lazy_matches_eager(context, data, *, expect_lazy=True, seed=0):
    """Force ``data`` in order (eagerly) and in a seeded random order
    (lazily); both must build the same module."""
    eager = decode_module(context, data)
    reader = LazyModuleReader(context, data)
    assert reader.lazy is expect_lazy
    order = list(range(len(reader.handles)))
    random.Random(seed).shuffle(order)
    for index in order:
        reader.handles[index].force()
    forced = reader.module()
    assert print_op(forced, print_locations=True) == print_op(
        eager, print_locations=True
    )
    for original, copy in zip(_interned(eager), _interned(forced),
                              strict=True):
        assert copy is original
    assert encode_module(forced) == encode_module(eager)
    return eager, forced


@pytest.mark.parametrize("name", CORPUS_ORDER)
def test_corpus_lazy_matches_eager(name, corpus_ctx):
    context, defs_by_name, seeds = corpus_ctx
    generator = IRGenerator(context, [defs_by_name[name], *seeds], seed=13)
    data = encode_module(generator.generate_module(6))
    eager, forced = assert_lazy_matches_eager(context, data, seed=len(name))
    assert encode_module(forced) == data


@pytest.mark.parametrize("seed", range(4))
def test_streamed_synth_force_orders_agree(seed):
    context = default_context()
    stream = io.BytesIO()
    encode_module_stream(
        synthesize_module(60, seed=seed, context=context), stream
    )
    assert_lazy_matches_eager(context, stream.getvalue(), seed=seed)


def test_locations_survive_lazy_loading():
    context = cmath_context()
    module = parse_module(context, LOCATED_IR, name="mag2.mlir")
    data = encode_module(module)
    eager, forced = assert_lazy_matches_eager(context, data)
    assert "mag2.mlir" in print_op(forced, print_locations=True)


def test_interned_attributes_are_identical():
    context = cmath_context()
    module = parse_module(context, LOCATED_IR)
    _, forced = assert_lazy_matches_eager(context, encode_module(module))
    for original, copy in zip(
        module.walk(), forced.walk(), strict=True
    ):
        for key, attr in original.attributes.items():
            assert copy.attributes[key] is context.intern(attr)


def test_streamed_artifact_matches_eager_artifact():
    context = cmath_context()
    module = parse_module(context, LOCATED_IR, name="mag2.mlir")
    stream = io.BytesIO()
    written = encode_module_stream(module, stream)
    data = stream.getvalue()
    assert written == len(data)
    # Streamed bytes differ (section order, padded lengths) but decode
    # to the same module, eagerly and lazily.
    eager_from_stream = decode_module(context, data)
    assert print_op(eager_from_stream, print_locations=True) == print_op(
        module, print_locations=True
    )
    assert_lazy_matches_eager(context, data)


def test_mmap_open_from_file(tmp_path):
    context = cmath_context()
    module = parse_module(context, LOCATED_IR)
    path = tmp_path / "mod.irbc"
    with open(path, "wb") as handle:
        encode_module_stream(module, handle)
    with LazyModuleReader.open(context, str(path)) as reader:
        assert reader.lazy
        forced = reader.module()
        assert print_op(forced) == print_op(module)


def test_open_missing_file_raises_bytecode_error(tmp_path):
    with pytest.raises(BytecodeError):
        LazyModuleReader.open(cmath_context(), str(tmp_path / "nope.irbc"))


def test_failed_open_closes_the_file(tmp_path):
    """Opening a corrupt artifact must not leak the file or its map."""
    context = default_context()
    data = encode_module(synthesize_module(10, seed=1, context=context))
    path = tmp_path / "truncated.irbc"
    path.write_bytes(data[: len(data) // 2])
    # An unclosed file warns from its finalizer, where the "error"
    # filter turns the warning into an unraisable exception.
    unraisable = []
    hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(BytecodeError):
                LazyModuleReader.open(context, str(path))
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert not unraisable


def test_out_of_order_forcing():
    context = default_context()
    module = synthesize_module(40, seed=9, context=context)
    data = encode_module(module)
    reader = LazyModuleReader(context, data)
    assert len(reader.handles) == 40
    # Force back-to-front; insertion order must still match.
    for handle in reversed(reader.handles):
        handle.force()
    assert print_op(reader.module()) == print_op(module)


def test_partial_forcing_leaves_other_handles_cold():
    context = default_context()
    module = synthesize_module(40, seed=9, context=context)
    reader = LazyModuleReader(context, encode_module(module))
    reader.handles[5].force()
    assert reader.handles[5].materialized
    cold = [h for h in reader.handles if not h.materialized]
    assert len(cold) == 39


def test_handle_names_without_forcing():
    context = default_context()
    module = synthesize_module(25, seed=4, context=context)
    reader = LazyModuleReader(context, encode_module(module))
    expected = [op.name for op in module.regions[0].blocks[0].ops]
    assert [h.name for h in reader.handles] == expected
    assert not any(h.materialized for h in reader.handles)


def test_unindexed_artifact_falls_back_to_eager():
    context = cmath_context()
    module = parse_module(context, LOCATED_IR)
    data = encode_module(module, index=False)
    eager, forced = assert_lazy_matches_eager(
        context, data, expect_lazy=False
    )
    assert print_op(forced) == print_op(module)


def test_index_section_is_skipped_by_old_readers():
    """Eager decoding never reads the index, so indexed artifacts stay
    loadable by readers that predate the section."""
    context = cmath_context()
    module = parse_module(context, LOCATED_IR)
    indexed = encode_module(module, index=True)
    plain = encode_module(module, index=False)
    assert len(indexed) > len(plain)
    assert print_op(decode_module(context, indexed)) == print_op(
        decode_module(context, plain)
    )


def test_closed_reader_refuses_to_force(tmp_path):
    context = default_context()
    module = synthesize_module(10, seed=1, context=context)
    path = tmp_path / "mod.irbc"
    with open(path, "wb") as handle:
        encode_module_stream(module, handle)
    reader = LazyModuleReader.open(context, str(path))
    handle = reader.handles[0]
    reader.close()
    with pytest.raises(BytecodeError):
        handle.force()


def test_self_roundtrip_of_forced_module():
    """Forcing in any order then re-encoding reproduces the original
    artifact, locations included."""
    context = cmath_context()
    text = "\n".join(
        LOCATED_IR.replace('"mag2"', f'"mag{i}"') for i in range(5)
    )
    data = encode_module(parse_module(context, text, name="mags.mlir"))
    for seed in range(3):
        _, forced = assert_lazy_matches_eager(context, data, seed=seed)
        assert encode_module(forced) == data
        assert "mags.mlir" in print_op(forced, print_locations=True)


def test_decode_ops_counts_every_materialized_op():
    """Eager decodes and lazy forces both count the ops they build."""
    from repro.obs import MetricsRegistry, enable_metrics, reset

    context = cmath_context()
    text = "\n".join(
        LOCATED_IR.replace('"mag2"', f'"mag{i}"') for i in range(3)
    )
    data = encode_module(parse_module(context, text))
    registry = enable_metrics(MetricsRegistry())
    try:
        module = decode_module(context, data)
        eager = registry.snapshot()["counters"]["bytecode.decode.ops"]
        reader = LazyModuleReader(context, data)
        reader.handles[1].force()
        reader.module()
        counters = registry.snapshot()["counters"]
    finally:
        reset()
    ops = sum(1 for _ in module.walk())
    assert eager == ops
    assert counters["bytecode.decode.ops"] == 2 * ops
    assert counters["bytecode.lazy.ops_forced"] == 3


MULTI_BLOCK_ROOT = """
"test.root"() ({
^bb0(%a: i32):
  %x = "test.use"(%y) : (i32) -> (i32)
  "test.br"(%x)[^bb1] : (i32) -> ()
^bb1(%b: i32):
  %y = "test.def"(%b) : (i32) -> (i32)
  "test.ret"(%y) : (i32) -> ()
}, {
^bb0:
  "test.z"() : () -> ()
}) : () -> ()
"""


def test_multi_block_root_force_orders_agree():
    """Top-level ops in several blocks and regions of the root, with
    successors and a forward reference across them."""
    context = default_context()
    context.allow_unregistered = True
    module = parse_module(context, MULTI_BLOCK_ROOT, name="root.mlir")
    root = module.regions[0].blocks[0].ops[0].detach()
    data = encode_module(root)
    for seed in range(6):
        _, forced = assert_lazy_matches_eager(context, data, seed=seed)
        assert encode_module(forced) == data
