"""The string-literal escape table shared by every printer and the lexer.

String literals in textual IR and IRDL use four escapes: ``\\\\``,
``\\"``, ``\\n`` and ``\\t``.  :func:`escape` and :func:`unescape` are
exact inverses over any string, so printed strings always re-parse to
the same value.  Both work in a single pass: replacing one escape at a
time (``\\n`` before ``\\\\``) mis-reads a literal backslash followed by
``n``.  An unknown escape such as ``\\x`` is kept as written.
"""

from __future__ import annotations

import re

#: Raw character -> its escape sequence inside a quoted literal.
ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}

_ESCAPE_TABLE = str.maketrans(ESCAPES)
_UNESCAPES = {sequence[1]: char for char, sequence in ESCAPES.items()}
_UNESCAPE_RE = re.compile(r"\\([\\\"nt])")


def escape(text: str) -> str:
    """``text`` with every character of :data:`ESCAPES` escaped."""
    return text.translate(_ESCAPE_TABLE)


def quote(text: str) -> str:
    """``text`` as a double-quoted string literal."""
    return f'"{text.translate(_ESCAPE_TABLE)}"'


def unescape(text: str) -> str:
    """The value of a literal's body (the text between the quotes)."""
    if "\\" not in text:
        return text
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPES[m.group(1)], text)
