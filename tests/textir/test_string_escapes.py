"""String literals round-trip through every printer and the lexer."""

import pytest

from repro.builtin import StringAttr, default_context
from repro.ir.params import StringParam
from repro.irdl import parse_irdl
from repro.irdl.printer import print_dialect
from repro.textir import Lexer, TokenKind
from repro.textir.parser import IRParser
from repro.utils import SourceFile
from repro.utils.escapes import escape, quote, unescape

CTX = default_context()

AWKWARD = [
    "a\\nb",          # backslash then 'n': not a newline
    "a\nb",           # a real newline
    "tab\there",
    'say "hi"',
    "\\",
    "\\\\n",
    'end\\"',
    "",
    "plain",
]


@pytest.mark.parametrize("value", AWKWARD)
def test_escape_and_unescape_are_inverse(value):
    assert unescape(escape(value)) == value


@pytest.mark.parametrize("value", AWKWARD)
def test_string_attr_roundtrips(value):
    text = str(StringAttr(value))
    assert IRParser(CTX, text).parse_attribute().data == value


def test_backslash_n_is_not_read_as_newline():
    text = str(StringAttr("a\\nb"))
    assert text == '"a\\\\nb"'
    assert IRParser(CTX, text).parse_attribute().data == "a\\nb"


def test_control_characters_print_escaped():
    text = str(StringAttr("x\ny\tz"))
    assert text == '"x\\ny\\tz"'
    assert "\n" not in text
    assert IRParser(CTX, text).parse_attribute().data == "x\ny\tz"


def test_unknown_escape_kept_as_written():
    assert unescape("\\x\\q") == "\\x\\q"


@pytest.mark.parametrize("value", AWKWARD)
def test_string_param_roundtrips(value):
    param = StringParam(value)
    assert IRParser(CTX, str(param)).parse_param() == param


@pytest.mark.parametrize("value", AWKWARD)
def test_lexer_string_value(value):
    (token, _eof) = Lexer(SourceFile(quote(value))).tokenize()
    assert token.kind is TokenKind.STRING
    assert token.value == value


def test_irdl_printer_strings_roundtrip():
    source = (
        'Dialect d {\n'
        '  Operation op {\n'
        '    Summary "a \\"quoted\\" summary\\nwith a newline"\n'
        '    PyConstraint "$_self != \\"a\\\\nb\\""\n'
        '  }\n'
        '}\n'
    )
    (decl,) = parse_irdl(source)
    (reparsed,) = parse_irdl(print_dialect(decl))
    op, again = decl.operations[0], reparsed.operations[0]
    assert op.summary == 'a "quoted" summary\nwith a newline'
    assert again.summary == op.summary
    assert again.py_constraints == op.py_constraints == ['$_self != "a\\nb"']
