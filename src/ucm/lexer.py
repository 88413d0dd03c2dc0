"""Tokenizer for `.ucm` sources.

Keywords are context-sensitive: the lexer emits plain IDENT tokens and the
parser matches keyword values, so clause names remain usable as model
identifiers. Labels (``2``, ``2-6a1``) are digit-led and lexed greedily,
which keeps them distinct from identifiers. `//` comments run to end of line.

Each token is one anchored regex match whose prefix skips the whitespace and
comments before it. Tokens carry offsets, not spans: `(kind, text, start,
end)`, with the parser building a `SourceSpan` only for AST nodes and errors.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .spans import SourceSpan


class TokenKind(Enum):
    IDENT = "identifier"
    LABEL = "label"
    NUMBER = "number"
    STRING = "string"
    ARROW = "'->'"
    COLONCOLON = "'::'"
    COLON = "':'"
    COMMA = "','"
    DOT = "'.'"
    DOTDOT = "'..'"
    LBRACE = "'{'"
    RBRACE = "'}'"
    LBRACKET = "'['"
    RBRACKET = "']'"
    STAR = "'*'"
    EOF = "end of file"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int


class LexError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.message = message
        self.span = span


# Identifiers may contain single hyphens between word parts so multi-word
# keywords (user-goal, interrupt-continue) lex as one token. A hyphen not
# followed by a letter is left for the next token (e.g. `->`).
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*")

# Whitespace and comments before a token. Each run is matched whole (the
# lookaheads forbid a shorter one), so the prefix can match in only one way:
# a failed token match backtracks in linear time and never re-reads comment
# text as tokens.
_SKIP = r"(?:[ \t\n]+(?![ \t\n])|//[^\n]*(?![^\n]))*"
_SKIP_RE = re.compile(_SKIP)

# One group per token kind, named after its TokenKind member; _KINDS maps
# each group's index to its kind. Strings are unrolled to match one way too.
_TOKEN_RE = re.compile(
    _SKIP
    + r"""(?:
      (?P<NUMBER>\d+\.\d+)
    | (?P<LABEL>\d+(?:-\d+)?(?:[a-z]\d*)*)
    | (?P<IDENT>"""
    + IDENT_RE.pattern
    + r""")
    | (?P<STRING>"[^"\\\n]*(?:\\.[^"\\\n]*)*")
    | (?P<ARROW>->)
    | (?P<COLONCOLON>::)
    | (?P<DOTDOT>\.\.)
    | (?P<COLON>:)
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    | (?P<LBRACE>\{)
    | (?P<RBRACE>\})
    | (?P<LBRACKET>\[)
    | (?P<RBRACKET>\])
    | (?P<STAR>\*)
    )""",
    re.VERBOSE,
)

_KINDS = {index: TokenKind[name] for name, index in _TOKEN_RE.groupindex.items()}


def normalize(source: str) -> str:
    """CRLF and lone CR become LF so offsets are stable across platforms;
    a leading UTF-8 BOM is dropped."""
    if source.startswith("﻿"):
        source = source[1:]
    return source.replace("\r\n", "\n").replace("\r", "\n")


def tokenize(source: str, file: str) -> list[Token]:
    """Lex LF-normalized source; raises LexError at the first offset that no
    token, whitespace or comment matches."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    new = tuple.__new__
    pos = 0
    while m := match(source, pos):
        group = m.lastindex
        pos = m.end()
        append(new(Token, (_KINDS[group], m[group], m.start(group), pos)))
    pos = _SKIP_RE.match(source, pos).end()
    if pos < len(source):
        raise LexError(f"unrecognized character {source[pos]!r}", SourceSpan(file, pos, pos + 1))
    append(Token(TokenKind.EOF, "", pos, pos))
    return tokens


def string_value(token: Token) -> str:
    """Unquote a STRING token, handling backslash escapes."""
    body = token.text[1:-1]
    return re.sub(r"\\(.)", r"\1", body) if "\\" in body else body
