from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import position_at
from strategies import model_source
from ucm.lexer import LexError, TokenKind, normalize, tokenize
from ucm.parser import parse
from ucm.spans import LineIndex


def positions(text: str) -> list[tuple[str, int, int]]:
    """(text, line, column) of every token, placed by a LineIndex that is
    checked against position_at at each token start."""
    index = LineIndex(text)
    placed = []
    for tok in tokenize(text, "t.ucm"):
        line_column = index.position(tok.span.start)
        assert line_column == position_at(text, tok.span.start), tok
        placed.append((tok.text, *line_column))
    return placed


@st.composite
def commented_source(draw) -> str:
    """A generated model with trailing comments, blank lines and indented
    blank lines mixed in, so whitespace runs span several lines."""
    lines = []
    for line in draw(model_source()).splitlines():
        if draw(st.booleans()):
            line += "  // note"
        lines.append(line)
        lines.extend(draw(st.lists(st.sampled_from(["", "   ", "\t", "// only a comment"]), max_size=2)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n  ", "\n// tail"]))


@settings(max_examples=60, deadline=None)
@given(text=commented_source())
def test_line_index_equals_position_at(text):
    index = LineIndex(text)
    for offset in range(len(text) + 3):
        assert index.position(offset) == position_at(text, offset), offset
    eof = tokenize(text, "t.ucm")[-1]
    assert eof.kind is TokenKind.EOF and eof.span.start == len(text)


def test_lex_error_on_third_line_reports_its_position():
    text = "model M\n\n  modes $ {\n"
    with pytest.raises(LexError) as err:
        tokenize(text, "t.ucm")
    span = err.value.span
    assert (span.start, span.end) == (text.index("$"), text.index("$") + 1)
    assert LineIndex(text).position(span.start) == (3, 9) == position_at(text, span.start)


@pytest.mark.parametrize(
    ("text", "offset"),
    [("$", 0), ("model M $", 8), ("model M\n@@ x", 8), ('model M "open', 8), ("model M\n  ~", 10)],
)
def test_lex_error_is_at_the_first_unmatched_offset(text, offset):
    with pytest.raises(LexError) as err:
        tokenize(text, "t.ucm")
    assert err.value.span.start == offset
    assert err.value.message == f"unrecognized character {text[offset]!r}"


def test_eof_after_trailing_comment_without_newline():
    text = "model M\n  exceptions { } // done"
    assert positions(text)[-1] == ("", 2, 25)
    assert tokenize(text, "t.ucm")[-1].span.start == len(text)


def test_crlf_input_counts_each_line_once():
    text = normalize("model M\r\nmodes {\r\n  default normal Normal\r\n}\r\n")
    assert positions(text)[2:5] == [
        ("modes", 2, 1),
        ("{", 2, 7),
        ("default", 3, 3),
    ]
    source = "model M\r\n\r\n  $"
    _, diags = parse(source, "t.ucm")
    assert LineIndex(normalize(source)).position(diags[0].span.start) == (3, 3)


def test_multi_line_whitespace_run_sets_column_from_last_newline():
    text = "model  \n\n \t \n   M"
    assert positions(text)[1] == ("M", 4, 4)
