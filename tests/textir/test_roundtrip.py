"""Print → parse round-trip guarantees, including property-based ones."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builtin import (
    DYNAMIC,
    ArrayAttr,
    DictionaryAttr,
    FloatAttr,
    FloatType,
    FunctionType,
    IntegerAttr,
    IntegerType,
    MemRefType,
    Signedness,
    StringAttr,
    SymbolRefAttr,
    TensorType,
    UnitAttr,
    VectorType,
    default_context,
    f32,
    index,
)
from repro.textir.parser import IRParser, parse_module
from repro.textir.printer import print_attribute, print_op, print_type

CTX = default_context()


# ---------------------------------------------------------------------------
# Hypothesis strategies over builtin types and attributes
# ---------------------------------------------------------------------------

signedness = st.sampled_from(list(Signedness))
scalar_types = st.one_of(
    st.builds(IntegerType, st.integers(1, 128), signedness),
    st.builds(FloatType, st.sampled_from([16, 32, 64])),
    st.just(index),
)
shapes = st.lists(
    st.one_of(st.integers(0, 9), st.just(DYNAMIC)), min_size=0, max_size=3
)


def types(depth=2):
    if depth == 0:
        return scalar_types
    inner = types(depth - 1)
    return st.one_of(
        scalar_types,
        st.builds(TensorType, shapes, inner),
        st.builds(MemRefType, shapes, inner),
        st.builds(
            VectorType, st.lists(st.integers(1, 8), min_size=1, max_size=2),
            scalar_types,
        ),
        st.builds(
            FunctionType,
            st.lists(inner, max_size=2),
            st.lists(inner, max_size=2),
        ),
    )


# Any text: quotes, backslashes, newlines and tabs must survive printing.
any_text = st.text(max_size=12)


def attributes(depth=2):
    leaves = st.one_of(
        st.builds(StringAttr, any_text),
        st.builds(IntegerAttr, st.integers(-100, 100),
                  st.builds(IntegerType, st.integers(8, 64))),
        st.builds(FloatAttr, st.floats(allow_nan=False, allow_infinity=False,
                                       width=32),
                  st.just(f32)),
        st.just(UnitAttr()),
        st.builds(SymbolRefAttr, st.text(alphabet="abcxyz", min_size=1,
                                         max_size=6)),
        types(1).map(lambda t: t),
    )
    if depth == 0:
        return leaves
    inner = attributes(depth - 1)
    return st.one_of(leaves, st.builds(ArrayAttr, st.lists(inner, max_size=3)))


class TestPropertyRoundTrips:
    @given(types())
    @settings(max_examples=200, deadline=None)
    def test_type_roundtrip(self, ty):
        text = print_type(ty)
        parsed = IRParser(CTX, text).parse_type()
        assert parsed == ty, text

    @given(attributes())
    @settings(max_examples=200, deadline=None)
    def test_attribute_roundtrip(self, attr):
        text = print_attribute(attr)
        parsed = IRParser(CTX, text).parse_attribute()
        assert parsed == attr, text

    @given(st.dictionaries(st.text(alphabet="abcdef", min_size=1, max_size=4),
                           attributes(1), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_dictionary_roundtrip(self, entries):
        attr = DictionaryAttr(entries)
        text = print_attribute(attr)
        parsed = IRParser(CTX, text).parse_attribute()
        assert parsed == attr, text


MODULE_TEXT = """
"func.func"() ({
^bb0(%a: f32, %b: f32):
  %c = "arith.constant"() {value = true} : () -> (i1)
  "cf.cond_br"(%c)[^bb1, ^bb2] : (i1) -> ()
^bb1:
  %s = "arith.addf"(%a, %b) : (f32, f32) -> (f32)
  "cf.br"(%s)[^bb3] : (f32) -> ()
^bb2:
  %m = "arith.mulf"(%a, %b) : (f32, f32) -> (f32)
  "cf.br"(%m)[^bb3] : (f32) -> ()
^bb3(%r: f32):
  "func.return"(%r) : (f32) -> ()
}) {sym_name = "mix", function_type = (f32, f32) -> f32} : () -> ()
"""


class TestModuleRoundTrips:
    def test_cfg_module_fixpoint(self, ctx):
        module = parse_module(ctx, MODULE_TEXT)
        module.verify()
        once = print_op(module)
        again = print_op(parse_module(ctx.clone(), once))
        assert once == again

    def test_nested_region_fixpoint(self, cmath_ctx):
        text = """
        "builtin.module"() ({
          "func.func"() ({
          ^bb0(%p: !cmath.complex<f32>):
            %n = cmath.norm %p : f32
            "func.return"(%n) : (f32) -> ()
          }) {sym_name = "n", function_type = (!cmath.complex<f32>) -> f32}
             : () -> ()
        }) : () -> ()
        """
        module = parse_module(cmath_ctx, text)
        module.verify()
        once = print_op(module)
        again = print_op(parse_module(cmath_ctx.clone(), once))
        assert once == again

    def test_value_name_hints_preserved(self, ctx):
        module = parse_module(ctx, """
        %answer = "arith.constant"() {value = 42 : i32} : () -> (i32)
        """)
        assert "%answer" in print_op(module)
