"""Tokenizer for `.ucm` sources.

Keywords are context-sensitive: the lexer emits plain IDENT tokens and the
parser matches keyword values, so clause names remain usable as model
identifiers. Labels (``2``, ``2-6a1``) are digit-led and lexed greedily,
which keeps them distinct from identifiers. `//` comments run to end of line.
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
    span: SourceSpan


class LexError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.message = message
        self.span = span


# Identifiers may contain single hyphens between word parts so multi-word
# keywords (user-goal, interrupt-continue) lex as one token. A hyphen not
# followed by a letter is left for the next token (e.g. `->`).
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*")

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\n]+)
    | (?P<comment>//[^\n]*)
    | (?P<number>\d+\.\d+)
    | (?P<label>\d+(?:-\d+)?(?:[a-z]\d*)*)
    | (?P<ident>"""
    + IDENT_RE.pattern
    + r""")
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<arrow>->)
    | (?P<coloncolon>::)
    | (?P<dotdot>\.\.)
    | (?P<punct>[:,.{}\[\]*])
    """,
    re.VERBOSE,
)

_GROUP_KINDS = {
    "number": TokenKind.NUMBER,
    "label": TokenKind.LABEL,
    "ident": TokenKind.IDENT,
    "string": TokenKind.STRING,
    "arrow": TokenKind.ARROW,
    "coloncolon": TokenKind.COLONCOLON,
    "dotdot": TokenKind.DOTDOT,
}

_PUNCT_KINDS = {
    ":": TokenKind.COLON,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "*": TokenKind.STAR,
}


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
    pos = 0
    for m in _TOKEN_RE.finditer(source):
        start, end = m.span()
        if start != pos:  # finditer skipped text that nothing matches
            break
        pos = end
        group = m.lastgroup
        if group != "ws" and group != "comment":
            text = m.group()
            kind = _PUNCT_KINDS[text] if group == "punct" else _GROUP_KINDS[group]
            tokens.append(Token(kind, text, SourceSpan(file, start, end)))
    if pos < len(source):
        raise LexError(f"unrecognized character {source[pos]!r}", SourceSpan(file, pos, pos + 1))
    tokens.append(Token(TokenKind.EOF, "", SourceSpan(file, pos, pos)))
    return tokens


def string_value(token: Token) -> str:
    """Unquote a STRING token, handling backslash escapes."""
    body = token.text[1:-1]
    return re.sub(r"\\(.)", r"\1", body)
