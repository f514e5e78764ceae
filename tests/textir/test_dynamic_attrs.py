"""Parsing/printing IRDL-instantiated (dynamic) attributes and types."""

import pytest

from repro.builtin import default_context, f32
from repro.ir import EnumParam, IntegerParam, StringParam
from repro.irdl import register_irdl
from repro.textir import TokenKind
from repro.textir.parser import IRParser
from repro.textir.printer import print_attribute, print_type
from repro.utils import DiagnosticError

SPEC = """
Dialect meta {
  Enum mode { Fast, Safe }
  Type handle {
    Parameters (name: string, bits: uint32_t)
  }
  Attribute config {
    Parameters (level: int32_t, mode_param: mode)
  }
  Attribute marker {}
}
"""


@pytest.fixture
def mctx():
    ctx = default_context()
    register_irdl(ctx, SPEC)
    return ctx


class TestDynamicTypes:
    def test_print_and_parse_with_params(self, mctx):
        handle = mctx.make_type("meta.handle",
                                [StringParam("h1"), IntegerParam(8, 32, False)])
        text = print_type(handle)
        assert text == '!meta.handle<"h1", 8 : uint32_t>'
        assert IRParser(mctx, text).parse_type() == handle

    def test_nested_in_builtin_shaped_type(self, mctx):
        handle = mctx.make_type("meta.handle",
                                [StringParam("x"), IntegerParam(1, 32, False)])
        from repro.builtin import TensorType

        tensor = TensorType([2], handle)
        text = print_type(tensor)
        assert text == 'tensor<2x!meta.handle<"x", 1 : uint32_t>>'
        assert IRParser(mctx, text).parse_type() == tensor

    def test_param_constraints_enforced_at_parse(self, mctx):
        with pytest.raises(DiagnosticError, match="bits"):
            IRParser(mctx, '!meta.handle<"h", "not-an-int">').parse_type()

    def test_wrong_arity_at_parse(self, mctx):
        with pytest.raises(DiagnosticError, match="2 parameters"):
            IRParser(mctx, '!meta.handle<"h">').parse_type()


class TestParseMemo:
    """Repeated type text within one parse returns the first parse's object."""

    def parse_types(self, mctx, text):
        parser = IRParser(mctx, text)
        types = [parser.parse_type()]
        while parser.accept(TokenKind.COMMA):
            types.append(parser.parse_type())
        assert parser.at_end()
        return types

    def test_repeats_are_identical(self, mctx):
        text = ('!meta.handle<"h", 8 : uint32_t>, f32, '
                '!meta.handle<"h", 8 : uint32_t>, f32, '
                '!meta.handle<"h", 9 : uint32_t>')
        first, scalar, again, scalar_again, other = self.parse_types(mctx, text)
        assert again is first and scalar_again is scalar is f32
        assert other is not first
        assert other.parameters[1] == IntegerParam(9, 32, False)

    def test_closing_bracket_inside_a_string(self, mctx):
        text = ('!meta.handle<"a>b", 1 : uint32_t>, '
                '!meta.handle<"a>c", 1 : uint32_t>, '
                '!meta.handle<"a>b", 1 : uint32_t>')
        first, second, third = self.parse_types(mctx, text)
        assert first.parameters[0] == StringParam("a>b")
        assert second.parameters[0] == StringParam("a>c")
        assert third is first

    def test_spacing_variants_agree(self, mctx):
        text = ('!meta.handle<"h", 8 : uint32_t>, '
                '!meta.handle < "h" , 8 : uint32_t >, '
                '!meta.handle<"h",8:uint32_t>')
        first, spaced, tight = self.parse_types(mctx, text)
        assert spaced is first and tight is first


class TestDynamicAttributes:
    def test_roundtrip_with_enum_param(self, mctx):
        config = mctx.make_attr("meta.config", [
            IntegerParam(3, 32, True), EnumParam("meta.mode", "Fast"),
        ])
        text = print_attribute(config)
        assert text == "#meta.config<3 : int32_t, mode.Fast>"
        assert IRParser(mctx, text).parse_attribute() == config

    def test_parameterless_attribute(self, mctx):
        marker = mctx.make_attr("meta.marker")
        text = print_attribute(marker)
        assert text == "#meta.marker"
        assert IRParser(mctx, text).parse_attribute() == marker

    def test_enum_constructor_validated(self, mctx):
        with pytest.raises(DiagnosticError, match="no constructor"):
            IRParser(mctx, "#meta.config<3 : int32_t, mode.Turbo>").parse_attribute()

    def test_unknown_dynamic_attr(self, mctx):
        with pytest.raises(DiagnosticError, match="unknown attribute"):
            IRParser(mctx, "#meta.nothing").parse_attribute()

    def test_attr_in_operation_dict(self, mctx):
        from repro.textir import parse_module, print_op

        register_irdl(mctx, """
        Dialect u { Operation tagged { Attributes (cfg: #meta.config) } }
        """)
        module = parse_module(mctx, """
        "u.tagged"() {cfg = #meta.config<1 : int32_t, mode.Safe>} : () -> ()
        """)
        module.verify()
        text = print_op(module)
        assert "#meta.config<1 : int32_t, mode.Safe>" in text
