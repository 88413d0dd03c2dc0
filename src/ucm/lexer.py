"""Tokenizer for `.ucm` sources.

Token kinds: IDENT, LABEL, NUMBER and STRING carry a value; SYMBOL is one of
`-> :: .. : , . { } [ ] *`; EOF ends the list. Keywords are IDENT tokens,
and the parser tests keywords and symbols alike by their text, so clause
names remain usable as model identifiers. Labels (``2``, ``2-6a1``) are
digit-led and lexed greedily, which keeps them distinct from identifiers.
Digits are ASCII ``0-9`` only: any other Unicode digit is an unrecognized
character. A string holds TAB and any character from U+0020 up except U+FFFE
and U+FFFF. `//` comments run to end of line.

Each token is one anchored regex match whose prefix skips the whitespace and
comments before it. Tokens carry offsets, not spans: `(kind, text, start,
end)`, with the parser building a `SourceSpan` only for AST nodes and errors.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .model import NON_STRING_CHARS, non_string_char
from .spans import SourceSpan


class TokenKind(Enum):
    IDENT = "identifier"
    LABEL = "label"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "end of file"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int


class ParseError(Exception):
    """A syntax error from the lexer or the parser; `parse` reports it as E000."""

    def __init__(self, message: str, span: SourceSpan, expected: list[str] | None = None):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected or []


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

# A string holds no character in NON_STRING_CHARS, raw or escaped, and is
# unrolled to match one way. Where no token matches at a quote that
# _LOOSE_STRING_RE matches, the string holds such a character, and the lex
# error names it at its own offset.
_STRING_CHAR = rf'[^"\\{NON_STRING_CHARS}]'
_STRING = rf'"{_STRING_CHAR}*(?:\\[^{NON_STRING_CHARS}]{_STRING_CHAR}*)*"'
_LOOSE_STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"')

# One group per token kind, named after its TokenKind member; _KINDS maps
# each group's index to its kind.
_TOKEN_RE = re.compile(
    _SKIP
    + r"""(?:
      (?P<NUMBER>[0-9]+\.[0-9]+)
    | (?P<LABEL>[0-9]+(?:-[0-9]+)?(?:[a-z][0-9]*)*)
    | (?P<IDENT>"""
    + IDENT_RE.pattern
    + r""")
    | (?P<STRING>"""
    + _STRING
    + r""")
    | (?P<SYMBOL>->|::|\.\.|[:,.{}\[\]*])
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
    """Lex LF-normalized source. At the first offset that no token, whitespace
    or comment matches, raises ParseError, the parser's syntax error too, with
    no expected words: only the parser names what it expected."""
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
        loose = _LOOSE_STRING_RE.match(source, pos)
        if loose and (found := non_string_char(loose[0])):
            offset, message = found
            raise ParseError(message, SourceSpan(file, pos + offset, pos + offset + 1))
        raise ParseError(f"unrecognized character {source[pos]!r}", SourceSpan(file, pos, pos + 1))
    append(Token(TokenKind.EOF, "", pos, pos))
    return tokens


def string_value(token: Token) -> str:
    """Unquote a STRING token, handling backslash escapes."""
    body = token.text[1:-1]
    return re.sub(r"\\(.)", r"\1", body) if "\\" in body else body
