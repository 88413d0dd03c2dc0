"""Tokenizer for `.ucm` sources.

Token kinds: IDENT, LABEL, NUMBER and STRING carry a value; SYMBOL is one of
`-> :: .. : , . { } [ ] *`; EOF ends the text and ERROR holds the rest of it
from a bad character. Keywords are IDENT tokens, and the parser tests keywords
and symbols alike by their text, so clause names remain usable as model
identifiers. Labels (``2``, ``2-6a1``) are digit-led and lexed greedily, which
keeps them distinct from identifiers. Digits are ASCII ``0-9`` only: any other
Unicode digit is an unrecognized character. A string holds TAB and any
character from U+0020 up except U+FFFE and U+FFFF. `//` comments run to end of
line.

A token is a plain tuple `(kind, text, start, end)`, read by position through
`KIND`, `TEXT`, `START` and `END`; the parser builds a `SourceSpan` only for
AST nodes and errors. `scan` makes them in one `finditer`: each match skips
the whitespace and comments before one token, and the last two alternatives,
end of text and any other character, leave no offset unmatched and end the
scan. `tokenize` raises an ERROR token's `lex_error` at once, the parser only
when it reaches or peeks at that token.
"""

from __future__ import annotations

import re
from enum import Enum

from .model import NON_STRING_CHARS, non_string_char
from .spans import SourceSpan


class TokenKind(Enum):
    IDENT = "identifier"
    LABEL = "label"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "end of file"
    ERROR = "unrecognized character"


Token = tuple[TokenKind, str, int, int]
KIND, TEXT, START, END = range(4)


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

# Whitespace and comments before a token, matched greedily. The token part
# after it cannot fail (EOF and ERROR match at any offset), so nothing ever
# backtracks into the prefix: it matches each run whole, in one way, and never
# re-reads comment text as tokens.
_SKIP = r"[ \t\n]*(?://[^\n]*[ \t\n]*)*"

# A string holds no character in NON_STRING_CHARS, raw or escaped, and is
# unrolled to match one way. Where an ERROR token opens with a quote that
# _LOOSE_STRING_RE matches, the string holds such a character, and the lex
# error names it at its own offset.
_STRING_CHAR = rf'[^"\\{NON_STRING_CHARS}]'
_STRING = rf'"{_STRING_CHAR}*(?:\\[^{NON_STRING_CHARS}]{_STRING_CHAR}*)*"'
_LOOSE_STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"')

# One group per token kind, named after its TokenKind member; _KINDS maps
# each group's number to its kind. The most common kinds come first: IDENT and
# SYMBOL are 83% of the smart store's tokens. The order cannot change a token,
# since the kinds start with disjoint characters (letter or `_`, symbol, digit,
# quote), except NUMBER and LABEL, and NUMBER stays first so `1.5` is a number.
_TOKEN_RE = re.compile(
    _SKIP
    + r"""(?:
      (?P<IDENT>"""
    + IDENT_RE.pattern
    + r""")
    | (?P<SYMBOL>->|::|\.\.|[:,.{}\[\]*])
    | (?P<NUMBER>[0-9]+\.[0-9]+)
    | (?P<LABEL>[0-9]+(?:-[0-9]+)?(?:[a-z][0-9]*)*)
    | (?P<STRING>"""
    + _STRING
    + r""")
    | (?P<EOF>\Z)
    | (?P<ERROR>(?s:.+))
    )""",
    re.VERBOSE,
)

_KINDS = (None, *(TokenKind[name] for name in sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get)))


def normalize(source: str) -> str:
    """CRLF and lone CR become LF so offsets are stable across platforms;
    a leading UTF-8 BOM is dropped."""
    if source.startswith("﻿"):
        source = source[1:]
    return source.replace("\r\n", "\n").replace("\r", "\n")


def scan(source: str) -> list[Token]:
    """The tokens of LF-normalized source, the last an EOF or ERROR token."""
    tokens = [(_KINDS[g := m.lastindex], m[g], m.start(g), m.end()) for m in _TOKEN_RE.finditer(source)]
    if len(tokens) > 1 and tokens[-2][KIND] in (TokenKind.EOF, TokenKind.ERROR):
        tokens.pop()  # finditer matches the empty end again after a match that reached it
    return tokens


def lex_error(token: Token, file: str) -> ParseError:
    """An ERROR token's error, with no expected words: at the first character a
    string opening there may not hold, else at the unrecognized character."""
    _, rest, pos, _ = token
    if (loose := _LOOSE_STRING_RE.match(rest)) and (found := non_string_char(loose[0])):
        return ParseError(found[1], SourceSpan(file, pos + found[0], pos + found[0] + 1))
    return ParseError(f"unrecognized character {rest[0]!r}", SourceSpan(file, pos, pos + 1))


def tokenize(source: str, file: str) -> list[Token]:
    """`scan`, raising the error of an ERROR token: the list ends in EOF."""
    if (tokens := scan(source))[-1][KIND] is TokenKind.ERROR:
        raise lex_error(tokens[-1], file)
    return tokens


def string_value(text: str) -> str:
    """Unquote a STRING token's text, handling backslash escapes."""
    body = text[1:-1]
    return re.sub(r"\\(.)", r"\1", body) if "\\" in body else body
