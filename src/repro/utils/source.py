"""Source-file bookkeeping shared by the IRDL and textual-IR frontends.

Both parsers in this project (the IRDL definition-language parser and the
MLIR-like textual IR parser) report errors against precise source spans.
This module provides the small amount of machinery needed for that:
a :class:`SourceFile` wrapper that memoizes line offsets, and immutable
:class:`Position` / :class:`Span` records.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Position:
    """A 1-based line/column position in a source file."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Span:
    """A half-open byte range ``[start, end)`` inside a source file."""

    start: int
    end: int
    source: "SourceFile"

    @property
    def text(self) -> str:
        return self.source.contents[self.start : self.end]

    @property
    def start_position(self) -> Position:
        return self.source.position_of(self.start)

    @property
    def end_position(self) -> Position:
        return self.source.position_of(self.end)

    def until(self, other: "Span") -> "Span":
        """The span covering this span up to the end of ``other``."""
        return Span(self.start, other.end, self.source)

    def __str__(self) -> str:
        return f"{self.source.name}:{self.start_position}"


@dataclass
class SourceFile:
    """A named piece of source text with cached line-offset lookup."""

    contents: str
    name: str = "<input>"
    _line_starts: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        contents = self.contents
        find = contents.find
        starts = [0]
        newline = find("\n")
        while newline >= 0:
            starts.append(newline + 1)
            newline = find("\n", newline + 1)
        self._line_starts = starts

    def line_col(self, offset: int) -> tuple[int, int]:
        """The 1-based ``(line, column)`` of a byte offset."""
        offset = max(0, min(offset, len(self.contents)))
        line_index = bisect.bisect_right(self._line_starts, offset) - 1
        return line_index + 1, offset - self._line_starts[line_index] + 1

    def position_of(self, offset: int) -> Position:
        """Convert a byte offset into a 1-based line/column position."""
        return Position(*self.line_col(offset))

    def line_text(self, line: int) -> str:
        """The text of a 1-based line, without its trailing newline."""
        if not 1 <= line <= len(self._line_starts):
            return ""
        start = self._line_starts[line - 1]
        end = self.contents.find("\n", start)
        if end == -1:
            end = len(self.contents)
        return self.contents[start:end]

    def span(self, start: int, end: int) -> Span:
        return Span(start, end, self)
