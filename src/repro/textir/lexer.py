"""The streaming lexer and token cursor shared by every text front end.

The token inventory follows MLIR's generic syntax: sigil-prefixed
identifiers for SSA values (``%x``), blocks (``^bb0``), symbols (``@f``),
types (``!cmath.complex``) and attributes (``#cmath.attr``), plus bare
identifiers, numbers, strings, and punctuation.  The textual IR parser,
the IRDL parser and the pattern parser all read it through one
:class:`TokenStream`.

Scanning is one ``finditer`` over a compiled *master regex*.  Each match
is a run of trivia (whitespace, ``//`` comments) followed by exactly one
token, and every alternative ends in an empty named group, so
``match.lastindex`` names the token kind with no Python-level dispatch.
Every alternative starts with a literal or a character class, which
lets the regex engine reject non-matching alternatives on their first
character.  Matches land in fixed-size chunks of parallel
kind/start/end lists (:data:`CHUNK_TOKENS`), never in whole-file lists,
so memory stays flat however large the input.  :class:`Token` objects
(and their :class:`~repro.utils.source.Span`) are only built when asked
for: by :meth:`Lexer.tokenize`, for diagnostics (rebuilt from an offset
by :meth:`TokenStream.token_at`), and by parser paths that keep a token.

Malformed input lexes as an error entry that ends its chunk; the
diagnostic is raised only when the cursor reaches that offset, so a
parse error earlier in the file is still reported first.  Diagnostic
messages and spans are pinned by ``tests/textir/golden``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from enum import Enum, auto
from itertools import islice
from typing import Iterator

from repro.utils.diagnostics import DiagnosticError
from repro.utils.escapes import unescape
from repro.utils.source import SourceFile, Span


class TokenKind(Enum):
    PERCENT_IDENT = auto()   # %value
    CARET_IDENT = auto()     # ^block
    AT_IDENT = auto()        # @symbol
    BANG_IDENT = auto()      # !type
    HASH_IDENT = auto()      # #attr
    BARE_IDENT = auto()      # keyword-ish identifiers
    INTEGER = auto()
    FLOAT = auto()
    STRING = auto()
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    LESS = auto()
    GREATER = auto()
    COMMA = auto()
    COLON = auto()
    EQUAL = auto()
    ARROW = auto()           # ->
    QUESTION = auto()        # ? (dynamic dimension)
    STAR = auto()
    PLUS = auto()
    MINUS = auto()
    DOT = auto()
    EOF = auto()


PUNCTUATION = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "<": TokenKind.LESS,
    ">": TokenKind.GREATER,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    "=": TokenKind.EQUAL,
    "?": TokenKind.QUESTION,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    ".": TokenKind.DOT,
}

#: Sigil-identifier kinds, for ``Token.value``'s prefix stripping.
_SIGIL_KINDS = frozenset({
    TokenKind.PERCENT_IDENT, TokenKind.CARET_IDENT, TokenKind.AT_IDENT,
    TokenKind.BANG_IDENT, TokenKind.HASH_IDENT,
})

#: Tokens per chunk.  A fixed bound on the lexer's buffered state.
CHUNK_TOKENS = 2048

#: The deepest nesting of regions, attributes, types and constraint
#: expressions a parser accepts.  Each level costs a handful of Python
#: frames, so this stays well inside the interpreter's recursion limit.
MAX_NESTING = 128


class Token:
    """One token: its kind, its text and where it sits in its source."""

    __slots__ = ("kind", "text", "start", "end", "source")

    def __init__(self, kind: TokenKind, text: str, start: int, end: int,
                 source: SourceFile):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end
        self.source = source

    @property
    def span(self) -> Span:
        return Span(self.start, self.end, self.source)

    @property
    def value(self) -> str:
        """Identifier text without its sigil; string text without quotes."""
        if self.kind in _SIGIL_KINDS:
            return self.text[1:]
        if self.kind is TokenKind.STRING:
            return unescape(self.text[1:-1])
        return self.text

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"


#: The error entry a malformed character lexes as (never a parser kind).
_BAD = object()

# The master token regex: trivia, then one token.  Each alternative ends
# in an empty group naming its kind (``match.lastindex``).  The order is
# by frequency where alternatives cannot overlap; where they can, it is
# load-bearing:
#
# * ``->`` precedes the negative numbers and ``-`` so it never splits;
# * numbers consume a fraction or exponent only when a digit follows
#   (``4.`` is INTEGER then DOT; ``1e`` is INTEGER then a bare ``e``), and
#   a FLOAT is exactly a number with a fraction or an exponent;
# * strings treat a backslash as escaping *any* following character
#   (newline included) and refuse unescaped newlines, so a ``"`` that
#   reaches the catch-all means exactly "unterminated string literal";
# * a sigil with no identifier after it, an unterminated string and any
#   other non-trivia character all fall through to the catch-all, so the
#   scan never silently skips input;
# * identifier classes are built from ``\w`` (minus digits for the
#   leading character) to accept Unicode letters.
#
# The trivia run is greedy and never needs to give characters back: after
# it, ``\Z`` or the catch-all always matches.
_TRIVIA = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
_NUMBER_TAIL = r"(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+)"
_ALTERNATIVES = (
    (r"%[\w$.]+", TokenKind.PERCENT_IDENT),
    (r"\(", TokenKind.LPAREN),
    (r"\)", TokenKind.RPAREN),
    (r":", TokenKind.COLON),
    (r",", TokenKind.COMMA),
    (r"=", TokenKind.EQUAL),
    (r"[^\W\d][\w$]*", TokenKind.BARE_IDENT),
    (r"![\w$.]+", TokenKind.BANG_IDENT),
    (r"<", TokenKind.LESS),
    (r">", TokenKind.GREATER),
    (r'"(?:\\[\s\S]|[^"\\\n])*"', TokenKind.STRING),
    (r"->", TokenKind.ARROW),
    (r"\{", TokenKind.LBRACE),
    (r"\}", TokenKind.RBRACE),
    (r"\^[\w$.]+", TokenKind.CARET_IDENT),
    (r"\[", TokenKind.LBRACKET),
    (r"\]", TokenKind.RBRACKET),
    (r"\d\d*" + _NUMBER_TAIL, TokenKind.FLOAT),
    (r"\d\d*", TokenKind.INTEGER),
    (r"-\d+" + _NUMBER_TAIL, TokenKind.FLOAT),
    (r"-\d+", TokenKind.INTEGER),
    (r"@[\w$.]+", TokenKind.AT_IDENT),
    (r"\#[\w$.]+", TokenKind.HASH_IDENT),
    (r"\.", TokenKind.DOT),
    (r"\?", TokenKind.QUESTION),
    (r"\*", TokenKind.STAR),
    (r"\+", TokenKind.PLUS),
    (r"-", TokenKind.MINUS),
    (r"\Z", TokenKind.EOF),
    (r"[^ \t\r\n][\s\S]*", _BAD),
)
_MASTER_RE = re.compile(
    "(" + _TRIVIA + ")(?:"
    + "|".join(f"{pattern}(?P<k{index}>)"
               for index, (pattern, _) in enumerate(_ALTERNATIVES))
    + ")"
)
#: Token kind by ``match.lastindex`` (group 1 is the trivia run).
_KIND_OF_GROUP = (None, None) + tuple(kind for _, kind in _ALTERNATIVES)

_EOF = TokenKind.EOF


class Lexer:
    """Scans a source into chunks of tokens."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.text = source.contents

    def chunks(self) -> Iterator[tuple[list, list[int], list[int]]]:
        """Parallel ``(kinds, starts, ends)`` lists, at most
        :data:`CHUNK_TOKENS` entries each.

        The last chunk ends with the EOF token.  On malformed input the
        chunk stops before the bad offset and the lex error is raised by
        the following ``next()``.
        """
        text = self.text
        matches = _MASTER_RE.finditer(text)
        kind_of = _KIND_OF_GROUP
        while True:
            kinds: list = []
            starts: list[int] = []
            ends: list[int] = []
            append_kind = kinds.append
            append_start = starts.append
            append_end = ends.append
            for match in islice(matches, CHUNK_TOKENS):
                append_kind(kind_of[match.lastindex])
                append_start(match.end(1))
                append_end(match.end())
            # An error entry swallows the rest of the input, so only the
            # EOF that matches right after it can follow it.
            tail = kinds[-2:]
            if _BAD in tail:
                bad = len(kinds) - len(tail) + tail.index(_BAD)
                yield kinds[:bad], starts[:bad], ends[:bad]
                raise self._error(starts[bad])
            if kinds[-1] is _EOF:
                if len(kinds) > 1 and kinds[-2] is _EOF:
                    # Trailing trivia: EOF matched both after it and as
                    # an empty match at the end.
                    del kinds[-1], starts[-1], ends[-1]
                yield kinds, starts, ends
                return
            yield kinds, starts, ends

    def _error(self, start: int) -> DiagnosticError:
        """The diagnostic for the malformed token at ``start``."""
        text = self.text
        char = text[start]
        if char in "%^@!#":
            message = f"expected identifier after {char!r}"
            end = start + 2
        elif char == '"':
            # Land where a character-by-character scan gives up: at the
            # newline or past the end (escapes skip two characters).
            cursor = start + 1
            while cursor < len(text) and text[cursor] != "\n":
                cursor += 2 if text[cursor] == "\\" else 1
            message = "unterminated string literal"
            end = cursor + 1
        else:
            message = f"unexpected character {char!r}"
            end = start + 1
        return DiagnosticError.at(message, self.source.span(start, end))

    def tokenize(self) -> list[Token]:
        """Every token of the source, EOF included."""
        source = self.source
        text = self.text
        tokens = []
        for kinds, starts, ends in self.chunks():
            tokens.extend(
                Token(kind, text[start:end], start, end, source)
                for kind, start, end in zip(kinds, starts, ends)
            )
        return tokens


class TokenStream:
    """A cursor over a :class:`Lexer`'s chunks: the parsers' token API.

    ``kind`` is the current token's kind, a plain attribute, so hot
    parser paths branch on it and read the lexeme with :attr:`text`
    without building a :class:`Token`.  :meth:`peek`, :meth:`next` and
    :meth:`expect` build one for callers that keep it.  The cursor never
    moves past EOF.  :meth:`enter` and :meth:`leave` bracket every
    recursive construct and bound the nesting depth.
    """

    def __init__(self, source: SourceFile | str, name: str = "<input>"):
        if isinstance(source, str):
            source = SourceFile(source, name)
        self.source = source
        self._text = source.contents
        self._chunks = Lexer(source).chunks()
        self._kinds: list = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._i = 0
        self._n = 0
        #: Tokens before the current chunk.
        self._base = 0
        #: Current nesting depth (see :meth:`enter`).
        self.depth = 0
        self._i = self._fill(0)
        self.kind = self._kinds[self._i]

    # -- chunk window ----------------------------------------------------

    def _fill(self, index: int) -> int:
        """Make chunk-relative ``index`` available; return where it now is.

        The window slides to start one token before the current one (for
        :attr:`prev_end`), so ``index`` comes back rebased.  Past EOF it
        is clamped to EOF.  Pulling the chunk after a malformed offset
        raises that lex error.
        """
        keep = max(self._i - 1, 0)
        kinds = self._kinds[keep:]
        starts = self._starts[keep:]
        ends = self._ends[keep:]
        self._base += keep
        self._i -= keep
        index -= keep
        while index >= len(kinds):
            if kinds and kinds[-1] is _EOF:
                index = len(kinds) - 1
                break
            more_kinds, more_starts, more_ends = next(self._chunks)
            kinds += more_kinds
            starts += more_starts
            ends += more_ends
        self._kinds, self._starts, self._ends = kinds, starts, ends
        self._n = len(kinds)
        return index

    # -- token-free hot path -----------------------------------------------

    def advance(self) -> None:
        """Move to the next token."""
        i = self._i + 1
        if i >= self._n:
            i = self._fill(i)
        self._i = i
        self.kind = self._kinds[i]

    @property
    def text(self) -> str:
        """The current token's lexeme."""
        i = self._i
        return self._text[self._starts[i]:self._ends[i]]

    @property
    def prev_end(self) -> int:
        """The end offset of the token before the current one."""
        i = self._i
        if i == 0:
            return self._starts[0]
        return self._ends[i - 1]

    @property
    def tokens_consumed(self) -> int:
        """Tokens before the current one (at EOF: every token)."""
        return self._base + self._i

    def skip_to(self, offset: int) -> None:
        """Move to the first token that starts at or after ``offset``."""
        i = bisect_left(self._starts, offset, self._i)
        if i < self._n:
            self._i = i
            self.kind = self._kinds[i]
            return
        while self._starts[self._i] < offset:
            self.advance()

    def peek_kind(self, offset: int = 1) -> TokenKind:
        """The kind of the token ``offset`` places ahead."""
        index = self._i + offset
        if index >= self._n:
            index = self._fill(index)
        return self._kinds[index]

    def accept(self, kind: TokenKind) -> bool:
        """Consume the current token if it has ``kind``."""
        if self.kind is kind:
            self.advance()
            return True
        return False

    def consume(self, kind: TokenKind, what: str) -> None:
        """Consume the current token, which must have ``kind``."""
        if self.kind is not kind:
            raise self._expected(what)
        self.advance()

    def expect_text(self, kind: TokenKind, what: str) -> str:
        """Consume a token of ``kind`` and return its lexeme."""
        if self.kind is not kind:
            raise self._expected(what)
        i = self._i
        text = self._text[self._starts[i]:self._ends[i]]
        self.advance()
        return text

    # -- tokens ------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        """The token ``offset`` places ahead, without consuming it."""
        index = self._i + offset
        if index >= self._n:
            index = self._fill(index)
        start = self._starts[index]
        end = self._ends[index]
        return Token(self._kinds[index], self._text[start:end], start, end,
                     self.source)

    def next(self) -> Token:
        """Consume and return the current token."""
        token = self.peek()
        self.advance()
        return token

    def expect(self, kind: TokenKind, what: str) -> Token:
        """Consume and return a token of ``kind``."""
        if self.kind is not kind:
            raise self._expected(what)
        return self.next()

    def expect_keyword(self, keyword: str) -> Token:
        """Consume and return the bare identifier ``keyword``."""
        if self.kind is not TokenKind.BARE_IDENT or self.text != keyword:
            raise self._expected(repr(keyword))
        return self.next()

    def at_end(self) -> bool:
        return self.kind is _EOF

    def token_at(self, offset: int) -> Token:
        """The token that starts at ``offset``, rebuilt from the source.

        For diagnostics about a token the parser kept only as an offset.
        """
        match = _MASTER_RE.match(self._text, offset)
        return Token(_KIND_OF_GROUP[match.lastindex], match.group(), offset,
                     match.end(), self.source)

    # -- diagnostics and nesting -------------------------------------------

    def error(self, message: str, token: Token | None = None) -> DiagnosticError:
        """A diagnostic at ``token``, or at the current token."""
        return DiagnosticError.at(message, (token or self.peek()).span)

    def _expected(self, what: str) -> DiagnosticError:
        return self.error(f"expected {what}, found {self.text!r}")

    def enter(self) -> None:
        """Open one nesting level; too deep is a diagnostic, not a crash."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(
                f"nesting exceeds the limit of {MAX_NESTING} levels"
            )

    def leave(self) -> None:
        self.depth -= 1
