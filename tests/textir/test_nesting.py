"""Nesting depth is bounded: too-deep input is a diagnostic, not a crash."""

import pytest

from repro.builtin import default_context
from repro.irdl import parse_irdl
from repro.textir.lexer import MAX_NESTING
from repro.textir.parser import IRParser, parse_module
from repro.utils import DiagnosticError

CTX = default_context()
LIMIT_MESSAGE = f"nesting exceeds the limit of {MAX_NESTING} levels"


def nested_regions(depth: int) -> str:
    return '"builtin.module"() ({\n' * depth + "}) : () -> ()\n" * depth


def nested_arrays(depth: int) -> str:
    return "[" * depth + "]" * depth


def nested_any_of(depth: int) -> str:
    return ("Dialect d { Alias !T = " + "!AnyOf<" * depth + "!f32"
            + ">" * depth + " }")


def assert_limit_error(err: DiagnosticError, text: str, opener: str,
                       skip: int = 0):
    """The error names the limit and points at the first opener too deep."""
    (diag,) = err.diagnostics
    assert diag.message == LIMIT_MESSAGE
    offset = -1
    for _ in range(skip + MAX_NESTING + 1):
        offset = text.index(opener, offset + 1)
    assert diag.span.start == offset


def test_regions_500_deep():
    text = nested_regions(500)
    with pytest.raises(DiagnosticError) as info:
        parse_module(CTX, text)
    assert_limit_error(info.value, text, "{")


def test_array_attributes_2000_deep():
    text = nested_arrays(2000)
    with pytest.raises(DiagnosticError) as info:
        IRParser(CTX, text).parse_attribute()
    assert_limit_error(info.value, text, "[")


def test_any_of_nested_in_irdl():
    text = nested_any_of(1000)
    with pytest.raises(DiagnosticError) as info:
        parse_irdl(text)
    assert_limit_error(info.value, text, "<")


def test_nested_types_and_params_bounded():
    deep_function = "(" * 1000 + ") -> ()" * 1000
    with pytest.raises(DiagnosticError):
        IRParser(CTX, deep_function).parse_type()
    deep_tensor = "tensor<" * 1000 + "f32" + ">" * 1000
    with pytest.raises(DiagnosticError):
        IRParser(CTX, deep_tensor).parse_type()
    with pytest.raises(DiagnosticError):
        IRParser(CTX, nested_arrays(1000)).parse_param()


def test_nesting_at_the_limit_parses():
    module = parse_module(CTX, nested_regions(MAX_NESTING))
    assert module.name == "builtin.module"
    attr = IRParser(CTX, nested_arrays(MAX_NESTING)).parse_attribute()
    assert attr is not None
    (dialect,) = parse_irdl(nested_any_of(MAX_NESTING - 1))
    assert dialect.name == "d"


def test_depth_returns_to_zero():
    parser = IRParser(CTX, nested_arrays(10) + " " + nested_arrays(10))
    parser.parse_attribute()
    assert parser.depth == 0
    parser.parse_attribute()
    assert parser.depth == 0


def test_memoized_signature_still_bounded():
    """A signature parsed at the top level is memoized on its text; the
    same text nested past the limit is still a diagnostic."""
    levels = MAX_NESTING - 18
    nested_type = "(" * levels + ") -> ()" * levels
    line = '%r = "builtin.module"() : () -> (' + nested_type + ")\n"
    regions = 30
    text = (line + '"builtin.module"() ({\n' * regions + line
            + "}) : () -> ()\n" * regions)
    with pytest.raises(DiagnosticError) as info:
        parse_module(CTX, text)
    assert info.value.diagnostics[0].message == LIMIT_MESSAGE
    # Each copy on its own parses: the limit, not the memo, rejects it.
    parse_module(CTX, line)
