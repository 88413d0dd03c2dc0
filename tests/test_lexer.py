from __future__ import annotations

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import position_at, reference_line_starts, reference_tokenize
from strategies import model_source
from ucm.lexer import ParseError, TokenKind, normalize, string_value, tokenize
from ucm.parser import parse
from ucm.spans import LineIndex


def positions(text: str) -> list[tuple[str, int, int]]:
    """(text, line, column) of every token, placed by a LineIndex that is
    checked against position_at at each token start."""
    index = LineIndex(text)
    placed = []
    for _, token_text, start, end in tokenize(text, "t.ucm"):
        line_column = index.position(start)
        assert line_column == position_at(text, start), token_text
        assert end - start == len(token_text), token_text
        placed.append((token_text, *line_column))
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
    kind, _, start, end = tokenize(text, "t.ucm")[-1]
    assert kind is TokenKind.EOF and start == end == len(text)


@given(text=st.text(alphabet="ab \t\n", max_size=40))
@example(text="")
@example(text="ab")
@example(text="ab\n")
@example(text="\n\n")
@example(text="a\n\tb\n\n c")
def test_line_index_starts_equal_the_reference(text):
    assert LineIndex(text).starts == reference_line_starts(text)


def test_lex_error_on_third_line_reports_its_position():
    text = "model M\n\n  modes $ {\n"
    with pytest.raises(ParseError) as err:
        tokenize(text, "t.ucm")
    span = err.value.span
    assert (span.start, span.end) == (text.index("$"), text.index("$") + 1)
    assert LineIndex(text).position(span.start) == (3, 9) == position_at(text, span.start)


@pytest.mark.parametrize(
    ("text", "offset"),
    [("$", 0), ("model M $", 8), ("model M\n@@ x", 8), ('model M "open', 8), ("model M\n  ~", 10)],
)
def test_lex_error_is_at_the_first_unmatched_offset(text, offset):
    with pytest.raises(ParseError) as err:
        tokenize(text, "t.ucm")
    assert err.value.span.start == offset
    assert err.value.message == f"unrecognized character {text[offset]!r}"


def test_eof_after_trailing_comment_without_newline():
    text = "model M\n  exceptions { } // done"
    assert positions(text)[-1] == ("", 2, 25)
    _, _, start, end = tokenize(text, "t.ucm")[-1]
    assert start == end == len(text)


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


def lex_outcome(lex, text: str):
    """The tokens, or the ParseError's message and span."""
    try:
        return [tuple(tok) for tok in lex(text, "t.ucm")]
    except ParseError as err:
        return err.message, err.span


COMMENT_BODIES = st.text(alphabet=' "/\\ax$\t\x01', max_size=12)
# Characters no string may hold: inside a string each is an E000 of its own.
CONTROLS = ["\x00", "\x01", "\x1f", "\ufffe", "\uffff"]


@st.composite
def mutated_source(draw) -> str:
    """A generated model with stray characters, comments holding quotes,
    slashes and space runs, unterminated strings, strings holding characters
    no string may hold, and a trailing comment with no newline inserted at
    random offsets."""
    text = draw(model_source())
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        insert = draw(
            st.one_of(
                st.sampled_from(["$", "@", "~", "#", "-", "/", '"', "\\", "\t", "\u00e9", "0", ".", *CONTROLS]),
                COMMENT_BODIES.map(lambda body: f"//{body}\n"),
                st.text(alphabet=["a", "b", " ", "\\", '"', *CONTROLS], max_size=6).map(lambda body: f'"{body}'),
            )
        )
        text = text[:at] + insert + text[at:]
    if draw(st.booleans()):
        text = text.rstrip("\n") + " //" + draw(COMMENT_BODIES)
    return text


@st.composite
def control_source(draw) -> str:
    """A generated model with a character no string may hold, raw or
    escaped, put just after one of its quotes: into a string if the quote
    opens one, else between tokens."""
    text = draw(model_source())
    at = draw(st.sampled_from([i + 1 for i, char in enumerate(text) if char == '"'] or [0]))
    return text[:at] + draw(st.sampled_from(["", "\\"])) + draw(st.sampled_from(CONTROLS)) + text[at:]


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(model_source(), commented_source(), mutated_source(), control_source()))
# Edges of the scan: empty and blank text, a comment or a bad character at the
# end, an unterminated string, NUL, and a bad character after `1.`. Then runs
# of the gap before a token: comment after comment, a comment at the end with
# and without a newline after it, a lone slash, and slashes split by a space.
@example(text="")
@example(text="   ")
@example(text="// c")
@example(text="x @")
@example(text="x //c\n$")
@example(text='"abc')
@example(text="x\x00")
@example(text="1.@")
@example(text="a//x\n//y\n b")
@example(text="a // x")
@example(text="a\n\n//\n")
@example(text="a /b")
@example(text="a/ /b")
@example(text="  //x")
def test_tokenize_equals_the_reference_lexer(text):
    assert lex_outcome(tokenize, text) == lex_outcome(reference_tokenize, text)


@pytest.mark.parametrize(
    ("text", "offset"),
    [
        (" " * 100_000 + "$", 100_000),
        ("//" + " " * 100_000 + "\n$", 100_003),
        ("//x\n" * 50_000 + "$", 200_000),
        ("// \n" * 50_000 + "$", 200_000),
        # The `"` inside the comment is comment text, never the start of a string.
        ('model // a "\n$', 13),
    ],
    ids=["space-run", "padded-comment", "comment-lines", "blank-comment-lines", "quote-in-comment"],
)
def test_lex_error_after_a_long_skip_is_found_once_in_linear_time(text, offset):
    started = time.perf_counter()
    model, diags = parse(text, "t.ucm")
    assert time.perf_counter() - started < 1.0
    assert model is None
    assert [(d.code, d.span.start, d.message) for d in diags] == [
        ("E000", offset, "unrecognized character '$'")
    ]


def test_token_is_kind_text_and_offsets():
    ident, string, eof = tokenize('x "a\\"b"', "t.ucm")
    assert ident == (TokenKind.IDENT, "x", 0, 1)
    assert string == (TokenKind.STRING, '"a\\"b"', 2, 8)
    assert eof == (TokenKind.EOF, "", 8, 8)
    assert {type(tok) for tok in (ident, string, eof)} == {tuple}


@pytest.mark.parametrize(
    ("text", "value"),
    [('""', ""), ('"plain"', "plain"), ('"say \\"hi\\""', 'say "hi"'), ('"a\\\\b"', "a\\b")],
)
def test_string_value_unescapes_only_backslashes(text, value):
    ((_, token_text, _, _), _) = tokenize(text, "t.ucm")
    assert string_value(token_text) == value
