"""Source positions for AST nodes and diagnostics."""

from __future__ import annotations

from typing import NamedTuple


class _SpanFields(NamedTuple):
    file: str
    start: int
    end: int
    line: int
    column: int


class SourceSpan(_SpanFields):
    """Half-open byte range [start, end) in one file, with 1-based start position.

    Tuple-backed, so immutable, hashable and equal by value; the lexer builds
    one per token, and a tuple costs about half what a frozen dataclass does.
    """

    __slots__ = ()

    def __new__(cls, file: str, start: int, end: int, line: int, column: int) -> SourceSpan:
        if start > end:
            raise ValueError(f"span start {start} after end {end}")
        return tuple.__new__(cls, (file, start, end, line, column))

    def contains(self, other: SourceSpan) -> bool:
        return (
            self.file == other.file
            and self.start <= other.start
            and other.end <= self.end
        )


ZERO_SPAN = SourceSpan("<synthetic>", 0, 0, 1, 1)


def position_at(source: str, offset: int) -> tuple[int, int]:
    """(line, column), both 1-based, for an offset into LF-normalized text.

    Offsets at or past the end of the text land one column past the last
    character of the final line.
    """
    offset = max(0, min(offset, len(source)))
    line = source.count("\n", 0, offset) + 1
    last_nl = source.rfind("\n", 0, offset)
    return line, offset - last_nl
