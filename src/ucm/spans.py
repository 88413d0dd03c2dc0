"""Source positions for AST nodes and diagnostics."""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple


class _SpanFields(NamedTuple):
    file: str
    start: int
    end: int


class SourceSpan(_SpanFields):
    """Half-open offset range [start, end) in one LF-normalized file.

    Tuple-backed, so immutable, hashable and equal by value; the parser builds
    one per AST node, and a tuple costs about half what a frozen dataclass does.
    Line and column are not stored: a `LineIndex` computes them from `start`.
    """

    __slots__ = ()

    def __new__(cls, file: str, start: int, end: int) -> SourceSpan:
        if start > end:
            raise ValueError(f"span start {start} after end {end}")
        return tuple.__new__(cls, (file, start, end))


ZERO_SPAN = SourceSpan("<synthetic>", 0, 0)


class LineIndex:
    """The line starts of one LF-normalized text, indexed once, so each
    offset's position costs a binary search."""

    __slots__ = ("text", "starts")

    def __init__(self, text: str):
        self.text = text
        self.starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def position(self, offset: int) -> tuple[int, int]:
        """(line, column), both 1-based. Offsets past the end of the text land
        one column past the last character of the final line."""
        offset = min(offset, len(self.text))
        line = bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1
