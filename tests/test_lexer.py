from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import model_source
from ucm.lexer import LexError, TokenKind, normalize, tokenize
from ucm.parser import parse
from ucm.spans import position_at


def assert_positions_match_oracle(text: str) -> list:
    """Every token's (line, column) is what position_at computes from scratch."""
    tokens = tokenize(text, "t.ucm")
    for tok in tokens:
        assert (tok.span.line, tok.span.column) == position_at(text, tok.span.start), tok
    return tokens


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
def test_token_positions_equal_position_at(text):
    tokens = assert_positions_match_oracle(text)
    assert tokens[-1].kind is TokenKind.EOF


def test_lex_error_on_third_line_reports_its_position():
    text = "model M\n\n  modes $ {\n"
    with pytest.raises(LexError) as err:
        tokenize(text, "t.ucm")
    span = err.value.span
    assert (span.line, span.column) == (3, 9)
    assert (span.line, span.column) == position_at(text, span.start)


def test_eof_after_trailing_comment_without_newline():
    text = "model M\n  exceptions { } // done"
    eof = assert_positions_match_oracle(text)[-1]
    assert eof.kind is TokenKind.EOF
    assert (eof.span.start, eof.span.line, eof.span.column) == (len(text), 2, 25)


def test_crlf_input_counts_each_line_once():
    text = normalize("model M\r\nmodes {\r\n  default normal Normal\r\n}\r\n")
    tokens = assert_positions_match_oracle(text)
    assert [(t.text, t.span.line, t.span.column) for t in tokens[2:5]] == [
        ("modes", 2, 1),
        ("{", 2, 7),
        ("default", 3, 3),
    ]
    _, diags = parse("model M\r\n\r\n  $", "t.ucm")
    assert (diags[0].span.line, diags[0].span.column) == (3, 3)


def test_multi_line_whitespace_run_sets_column_from_last_newline():
    text = "model  \n\n \t \n   M"
    tokens = assert_positions_match_oracle(text)
    assert (tokens[1].text, tokens[1].span.line, tokens[1].span.column) == ("M", 4, 4)
