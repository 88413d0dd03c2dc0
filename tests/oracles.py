"""Brute-force reference implementations used only as test oracles.

Kept deliberately independent of the production code: plain edge
lists, frontier expansion instead of recursive DFS, newline counting instead
of a line index, a two-pass `finditer` lexer instead of one match per token,
no shared helpers.
"""

from __future__ import annotations

import re

from ucm.lexer import LexError, TokenKind
from ucm.spans import SourceSpan


def brute_force_paths(
    nodes: list[str], edges: list[tuple[str, str]], target: str
) -> list[tuple[str, ...]]:
    """Every simple path from any root (node without incoming edges) to
    target, found by exhaustively growing all simple paths one edge at a
    time. Duplicate edges in the input each contribute their own paths.
    """
    has_incoming = {b for _, b in edges}
    frontier: list[tuple[str, ...]] = [(n,) for n in nodes if n not in has_incoming]
    found: list[tuple[str, ...]] = []
    while frontier:
        grown: list[tuple[str, ...]] = []
        for path in frontier:
            if path[-1] == target:
                found.append(path)
                continue
            for a, b in edges:
                if a == path[-1] and b not in path:
                    grown.append(path + (b,))
        frontier = grown
    return sorted(found)


def position_at(source: str, offset: int) -> tuple[int, int]:
    """(line, column), both 1-based, for an offset into LF-normalized text,
    counted from scratch. Offsets at or past the end of the text land one
    column past the last character of the final line."""
    offset = max(0, min(offset, len(source)))
    line = source.count("\n", 0, offset) + 1
    last_nl = source.rfind("\n", 0, offset)
    return line, offset - last_nl


_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\n]+)
    | (?P<comment>//[^\n]*)
    | (?P<number>\d+\.\d+)
    | (?P<label>\d+(?:-\d+)?(?:[a-z]\d*)*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<arrow>->)
    | (?P<coloncolon>::)
    | (?P<dotdot>\.\.)
    | (?P<punct>[:,.{}\[\]*])
    """,
    re.VERBOSE,
)

_REFERENCE_KINDS = {
    "number": TokenKind.NUMBER,
    "label": TokenKind.LABEL,
    "ident": TokenKind.IDENT,
    "string": TokenKind.STRING,
    "arrow": TokenKind.ARROW,
    "coloncolon": TokenKind.COLONCOLON,
    "dotdot": TokenKind.DOTDOT,
    ":": TokenKind.COLON,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "*": TokenKind.STAR,
}


def reference_tokenize(source: str, file: str) -> list[tuple[TokenKind, str, int, int]]:
    """(kind, text, start, end) of every token of LF-normalized source, EOF
    last. First pass: `finditer` over whitespace, comments and tokens, one
    group each, stopping where it skips text. Second pass: drop whitespace and
    comments. Raises LexError at the first offset nothing matches."""
    matches = []
    pos = 0
    for m in _REFERENCE_TOKEN_RE.finditer(source):
        if m.start() != pos:
            break
        matches.append(m)
        pos = m.end()
    if pos < len(source):
        raise LexError(f"unrecognized character {source[pos]!r}", SourceSpan(file, pos, pos + 1))
    tokens = []
    for m in matches:
        group = m.lastgroup
        if group not in ("ws", "comment"):
            kind = _REFERENCE_KINDS[m.group() if group == "punct" else group]
            tokens.append((kind, m.group(), m.start(), m.end()))
    return tokens + [(TokenKind.EOF, "", pos, pos)]
