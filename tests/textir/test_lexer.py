"""Token-level behaviour of the shared lexer."""

import pytest

from repro.builtin import default_context
from repro.textir import Lexer, TokenKind
from repro.textir.lexer import TokenStream
from repro.textir.parser import parse_module
from repro.utils import DiagnosticError, SourceFile


def lex(text):
    return [t for t in Lexer(SourceFile(text)).tokenize()[:-1]]


def kinds(text):
    return [t.kind for t in lex(text)]


class TestSigils:
    @pytest.mark.parametrize(
        "text,kind,value",
        [
            ("%value", TokenKind.PERCENT_IDENT, "value"),
            ("^bb0", TokenKind.CARET_IDENT, "bb0"),
            ("@func", TokenKind.AT_IDENT, "func"),
            ("!cmath.complex", TokenKind.BANG_IDENT, "cmath.complex"),
            ("#attr", TokenKind.HASH_IDENT, "attr"),
        ],
    )
    def test_sigil_tokens(self, text, kind, value):
        (token,) = lex(text)
        assert token.kind is kind
        assert token.value == value

    def test_sigil_without_ident_rejected(self):
        with pytest.raises(DiagnosticError):
            lex("% ")


class TestNumbers:
    def test_integer(self):
        (token,) = lex("42")
        assert token.kind is TokenKind.INTEGER

    def test_negative_integer(self):
        (token,) = lex("-42")
        assert token.kind is TokenKind.INTEGER and token.text == "-42"

    def test_float(self):
        (token,) = lex("4.25")
        assert token.kind is TokenKind.FLOAT

    def test_float_exponent(self):
        (token,) = lex("1e10")
        assert token.kind is TokenKind.FLOAT

    def test_minus_alone_is_punct(self):
        assert kinds("- x") == [TokenKind.MINUS, TokenKind.BARE_IDENT]


class TestStrings:
    def test_simple_string(self):
        (token,) = lex('"hello"')
        assert token.kind is TokenKind.STRING and token.value == "hello"

    def test_escapes(self):
        (token,) = lex(r'"a\"b\\c"')
        assert token.value == 'a"b\\c'

    def test_unterminated_rejected(self):
        with pytest.raises(DiagnosticError):
            lex('"oops')

    def test_newline_in_string_rejected(self):
        with pytest.raises(DiagnosticError):
            lex('"a\nb"')


class TestTrivia:
    def test_comments_skipped(self):
        assert kinds("a // comment\n b") == [TokenKind.BARE_IDENT] * 2

    def test_arrow(self):
        assert kinds("->") == [TokenKind.ARROW]

    def test_punctuation(self):
        assert kinds("(){}[]<>,:=?") == [
            TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.LBRACE,
            TokenKind.RBRACE, TokenKind.LBRACKET, TokenKind.RBRACKET,
            TokenKind.LESS, TokenKind.GREATER, TokenKind.COMMA,
            TokenKind.COLON, TokenKind.EQUAL, TokenKind.QUESTION,
        ]

    def test_unexpected_character(self):
        with pytest.raises(DiagnosticError):
            lex("§")

    def test_spans_track_positions(self):
        tokens = lex("a\n  b")
        assert tokens[1].span.start_position.line == 2
        assert tokens[1].span.start_position.column == 3


class TestTokenStream:
    """The cursor over lexer chunks agrees with ``Lexer.tokenize``."""

    LONG = "%v = f(%a, [1, 2.5]) : i32 // note\n" * 700  # several chunks

    def test_walk_with_lookahead_matches_tokenize(self):
        tokens = Lexer(SourceFile(self.LONG)).tokenize()
        stream = TokenStream(self.LONG)
        for index, token in enumerate(tokens):
            assert stream.kind is token.kind
            assert stream.text == token.text
            for offset in (1, 2):
                ahead = tokens[min(index + offset, len(tokens) - 1)]
                assert stream.peek_kind(offset) is ahead.kind
            assert stream.peek().span.start == token.span.start
            assert stream.tokens_consumed == index
            if index:
                assert stream.prev_end == tokens[index - 1].span.end
            stream.advance()
        assert stream.at_end()

    def test_cursor_stays_at_eof(self):
        stream = TokenStream("a")
        stream.advance()
        stream.advance()
        assert stream.at_end()
        assert stream.peek_kind(3) is TokenKind.EOF
        assert stream.tokens_consumed == 1

    def test_lex_error_raised_only_when_reached(self):
        text = "a " * 5000 + "§"
        stream = TokenStream(text)
        for _ in range(4999):
            stream.advance()
        with pytest.raises(DiagnosticError, match="unexpected character"):
            stream.advance()

    def test_parse_error_before_a_lex_error_wins(self):
        text = '"builtin.module"() ({\n}) : () -> )\n' + "x\n" * 3000 + "§"
        with pytest.raises(DiagnosticError) as info:
            parse_module(default_context(), text)
        (diag,) = info.value.diagnostics
        assert diag.message == "expected a type, found ')'"
