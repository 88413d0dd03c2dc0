from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, REPO_ROOT
from oracles import reference_label_text
from strategies import model_source
from ucm.lexer import LABEL
from ucm.model import (
    ExceptionRef,
    ExtensionBlock,
    HandlerContext,
    Internal,
    Interaction,
    Invocation,
    Model,
    Scenario,
    Step,
    StepLabel,
    USE_CASE_CLAUSES,
    UseCase,
    first_in_block_fields,
    successor_fields,
)
from ucm.lexer import normalize, tokenize
from ucm.export import _LAYOUT
from ucm.parser import parse
from ucm.spans import SourceSpan

MINIMAL = "model M modes { default normal Normal } exceptions { }"

UC_TEMPLATE = """model M
modes { default normal Normal }
exceptions {
  exception EnvironmentException::FireHazard global
}
usecase A {
  scope: "store"
  level: user-goal
  intention: "something"
  multiplicity: "one"
  primary: Human::P
  main {
%s
    outcome success
  }
%s
}
"""


def uc_source(steps: str, extensions: str = "") -> str:
    return UC_TEMPLATE % (steps, extensions)


def test_minimal_model():
    model, diags = parse(MINIMAL)
    assert diags == []
    assert model is not None
    assert model.name == "M"
    assert len(model.modes) == 1
    assert model.modes[0].is_default and model.modes[0].kind == "normal"
    assert model.exceptions == []
    assert model.use_cases == []


def test_global_exception_declaration():
    src = "model M modes { default normal Normal } exceptions { exception EnvironmentException::FireHazard global }"
    model, diags = parse(src)
    assert diags == []
    (exc,) = model.exceptions
    assert exc.category == "environment"
    assert exc.name == "FireHazard"
    assert exc.is_global
    assert exc.qualified_name == "EnvironmentException::FireHazard"


def test_internal_step_with_timeout():
    model, diags = parse(
        uc_source(
            '    1. internal "starts"\n'
            '    2. P -> System : "asks"\n'
            '    3. condition "it rains"\n'
            '    4. internal timeout 5 s "await sensor"'
        )
    )
    assert diags == []
    steps = model.use_cases[0].main.steps
    step = steps[3]
    assert step.label == StepLabel(4)
    assert step.kind == "internal"
    assert isinstance(step.payload, Internal)
    assert step.payload.description == "await sensor"
    assert step.payload.timeout.amount == 5.0
    assert step.payload.timeout.unit == "s"
    assert steps[0].payload.timeout is None


def test_step_kinds_and_payloads():
    src = uc_source(
        '    1. P -> System : "sends data"\n'
        "    2. invoke A\n"
        '    3. condition "door stays open"\n'
        "    4. goto 1\n"
        "    5. repeat 1-4\n"
        "    6. raise EnvironmentException::FireHazard"
    )
    model, diags = parse(src)
    assert diags == []
    steps = model.use_cases[0].main.steps
    kinds = [s.kind for s in steps]
    assert kinds == ["interaction", "invocation", "condition", "control-flow", "control-flow", "exception-raise"]
    assert isinstance(steps[0].payload, Interaction)
    assert steps[0].payload.source == "P" and steps[0].payload.target == "System"
    assert isinstance(steps[1].payload, Invocation) and steps[1].payload.target == "A"
    assert steps[3].payload.goto == StepLabel(1)
    assert steps[4].payload.repeat_from == StepLabel(1)
    assert steps[4].payload.repeat_to == StepLabel(4)
    assert isinstance(steps[5].payload, ExceptionRef)


def test_extension_block_structure():
    src = uc_source(
        '    1. P -> System : "sends data"\n    2. internal "works"',
        """  extensions {
    block 1a exceptional when "sensor silent" {
      1a1. raise EnvironmentException::FireHazard
      outcome continue 2
    }
    block 1-2a alternative {
      mode switch: Normal
      1-2a1. internal "waits"
      outcome abandoned
    }
  }""",
    )
    model, diags = parse(src)
    assert diags == []
    blocks = model.use_cases[0].extensions
    assert [b.kind for b in blocks] == ["exceptional", "alternative"]
    first, second = blocks
    assert first.label.text == "1a"
    assert first.guard == "sensor silent"
    assert first.outcome.kind == "continue"
    assert first.outcome.continue_target == StepLabel(2)
    assert second.label.anchor_lo == 1 and second.label.anchor_hi == 2
    assert second.entry_switch.mode == "Normal"
    assert second.guard == ""


def test_handler_contexts_and_actors():
    src = """model M
modes { default normal Normal }
exceptions { exception HardwareException::GateStuck }
usecase Enter {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::P [1..*]
  secondary: Sensor::Cam [0..2], UnknownThing
  main { 1. raise HardwareException::GateStuck outcome success }
}
handler FixGate {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::Tech
  contexts: Enter on HardwareException::GateStuck interrupt-continue
  main { 1. Tech -> System : "fixes" outcome success }
}
"""
    model, diags = parse(src)
    assert diags == []
    enter, fix = model.use_cases
    assert not enter.is_handler and fix.is_handler
    assert enter.primary_actors[0].multiplicity.lower == 1
    assert enter.primary_actors[0].multiplicity.upper is None
    cam, unknown = enter.secondary_actors
    assert cam.category == "Sensor" and cam.multiplicity.upper == 2
    assert unknown.category is None and unknown.name == "UnknownThing"
    (ctx,) = fix.contexts
    assert ctx.use_case == "Enter"
    assert ctx.exception.qualified_name == "HardwareException::GateStuck"
    assert ctx.relation == "interrupt-continue"


def test_parse_is_deterministic(smartstore):
    source = Path(smartstore.source_file).read_text(encoding="utf-8")
    first, d1 = parse(source, "x.ucm")
    second, d2 = parse(source, "x.ucm")
    assert d1 == d2 == []
    assert first == second


def test_crlf_and_comments_normalize():
    src = "model M // trailing comment\r\nmodes { default normal Normal }\r\nexceptions { }\r\n"
    model, diags = parse(src)
    assert diags == []
    assert model.name == "M"


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("", "'model'"),
        ("model", "model name"),
        ("model M modes { default turbo X } exceptions { }", "'normal'"),
        ("model M modes { default normal Normal } exceptions { exception Bogus::X }", "'HardwareException'"),
        (MINIMAL + ' usecase A { scope: "s" main { outcome victory } }', "'success'"),
        (MINIMAL + " usecase A { main { 1. fly away outcome success } }", "interaction"),
        (MINIMAL + " usecase A { level: user-goal scope: \"s\" main { outcome success } }", "out of order"),
        (MINIMAL + " usecase A { main { 1. internal timeout 5 weeks \"x\" outcome success } }", "'ms'"),
        (MINIMAL + " usecase A { main { 1. repeat 3 outcome success } }", "label range"),
        (MINIMAL + ' usecase A { main { 2ab. internal "x" outcome success } }', "malformed step label '2ab'"),
        (MINIMAL + ' usecase A { main { 1. internal timeout 0 s "x" outcome success } }', "must be positive"),
        (MINIMAL + ' usecase A { main { 1. internal timeout 0.0 ms "x" outcome success } }', "must be positive"),
    ],
)
def test_syntax_errors_are_all_or_nothing(source, fragment):
    model, diags = parse(source)
    assert model is None
    assert len(diags) == 1
    assert diags[0].code == "E000"
    assert fragment in diags[0].message


def test_the_clause_table_is_the_use_case_template():
    """`USE_CASE_CLAUSES` names the UseCase fields of the clauses and the JSON
    keys of a use case's clauses in order, and the parser holds text to that
    order: swapping two adjacent clauses of a smart store use case is an E000."""
    names = [f.name for f in fields(UseCase)]
    assert [attr for _, attr, _ in USE_CASE_CLAUSES] == names[names.index("is_handler") + 1 : names.index("main")]
    keys = [key for key, *_ in _LAYOUT[UseCase]]
    assert keys[keys.index("handler") + 1 : keys.index("main")] == [word for word, _, _ in USE_CASE_CLAUSES]

    lines = (CORPUS / "smartstore.ucm").read_text(encoding="utf-8").splitlines(keepends=True)
    swapped_words = set()
    for i in range(len(lines) - 1):
        first, second = re.match(r"  ([a-z]+):", lines[i]), re.match(r"  ([a-z]+):", lines[i + 1])
        if first and second:
            model, diags = parse("".join(lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2 :]))
            assert model is None and diags[0].code == "E000"
            assert diags[0].message == f"clause '{first[1]}' repeated or out of order", (first[1], second[1])
            swapped_words |= {first[1], second[1]}
    assert swapped_words == {word for word, _, _ in USE_CASE_CLAUSES}


def test_unterminated_string_is_a_syntax_error():
    model, diags = parse(MINIMAL + ' usecase A { scope: "unclosed }')
    assert model is None
    assert diags[0].code == "E000"


def test_only_a_parser_e000_lists_the_words_it_expected():
    """The lexer and the parser raise one syntax-error type; the lexer's
    names no expected words, so its E000 has no suggestions."""
    _, lexed = parse(MINIMAL + " usecase A { scope: ? }")
    assert [(d.code, d.message, d.suggestions) for d in lexed] == [("E000", "unrecognized character '?'", [])]
    _, parsed = parse(MINIMAL + ' usecase A { main { 1. internal "x" outcome maybe } }')
    assert [(d.code, d.suggestions) for d in parsed] == [
        ("E000", ["'success'", "'failure'", "'degraded'", "'abandoned'", "'continue'"])
    ]


def test_a_syntax_error_before_a_bad_character_is_the_e000():
    """The first error in the text wins: a missing `:` at line 43 is the E000
    even with a stray `@` before the last `}` of the file, which alone is the
    lexer's E000."""
    source = (CORPUS / "smartstore.ucm").read_text(encoding="utf-8")
    end = source.rindex("}")
    syntax = source.replace("scope:", "scope", 1)
    stray = source[:end] + "@" + source[end:]
    both = syntax[: end - 1] + "@" + syntax[end - 1 :]

    def e000(text):
        model, diags = parse(text, "smartstore.ucm")
        assert model is None
        return [(d.code, d.span.start, d.message) for d in diags]

    at = source.index("scope:") + len("scope")
    assert e000(syntax) == [("E000", syntax.index('"', at), "expected ':', got '\"Smart store\"'")]
    assert e000(stray) == [("E000", end, "unrecognized character '@'")]
    assert e000(both) == e000(syntax)


@pytest.mark.parametrize(
    "steps",
    ['    1. Customer @ System : "x"', '    mode @ switch: Normal\n    1. internal "x"'],
    ids=["interaction", "mode-switch"],
)
def test_a_bad_character_the_parser_peeks_at_is_the_e000(steps):
    """An identifier whose meaning hangs on the next token does not hide a
    bad character there: the parser's lookahead reads it as the error."""
    source = uc_source(steps)
    _, diags = parse(source)
    assert [(d.code, d.span.start, d.message) for d in diags] == [
        ("E000", source.index("@"), "unrecognized character '@'")
    ]


@settings(max_examples=60, deadline=None)
@given(text=model_source(), data=st.data())
def test_a_bad_character_after_the_first_syntax_error_changes_no_e000(text, data):
    """Delete one token of a generated model, and where that makes a syntax
    error, put a `@` before any token from two after the error's token on
    (the parser reads one token past the one it fails at): the E000 stays."""
    tokens = tokenize(text, "t.ucm")
    _, _, start, end = tokens[data.draw(st.integers(0, len(tokens) - 2), label="deleted")]
    broken = text[:start] + text[end:]
    model, diags = parse(broken, "t.ucm")
    assume(model is None)
    starts = [start for _, _, start, _ in tokenize(broken, "t.ucm")]
    failed_at = starts.index(diags[0].span.start)
    assume(failed_at + 2 < len(starts))
    at = starts[data.draw(st.integers(failed_at + 2, len(starts) - 1), label="inserted")]
    assert parse(broken[:at] + "@" + broken[at:], "t.ucm") == (None, diags)


def _child_spans(node):
    if isinstance(node, Model):
        yield from node.modes
        yield from node.exceptions
        yield from node.services
        yield from node.use_cases
    elif isinstance(node, UseCase):
        yield from node.all_actors()
        yield from node.contexts
        if node.main:
            yield node.main
        yield from node.extensions
    elif isinstance(node, HandlerContext):
        yield node.exception
    elif isinstance(node, Scenario):
        yield from filter(None, (node.entry_switch, *node.steps, node.exit_switch, node.outcome))
    elif isinstance(node, ExtensionBlock):
        yield from filter(None, (node.entry_switch, *node.body, node.exit_switch, node.outcome))
    elif isinstance(node, Step):
        if isinstance(node.payload, ExceptionRef):
            yield node.payload


def _contains(outer: SourceSpan, inner: SourceSpan) -> bool:
    return outer.file == inner.file and outer.start <= inner.start and inner.end <= outer.end


def _assert_contained(node):
    for child in _child_spans(node):
        assert _contains(node.span, child.span), (node.span, child.span)
        _assert_contained(child)


def test_every_span_is_inside_its_parent(smartstore, firealarm):
    _assert_contained(smartstore)
    _assert_contained(firealarm)


def _walk(node):
    yield node
    for child in _child_spans(node):
        yield from _walk(child)


def span_rows(text: str, file: str) -> list[str]:
    """Parse `text` and list every span field of every node, in walk order, as
    `class field start end`, asserting each is a SourceSpan inside the text."""
    model, diags = parse(text, file)
    assert model is not None, diags
    size = len(normalize(text))
    rows = []
    for node in _walk(model):
        for name in (f.name for f in fields(node) if f.type == "SourceSpan"):
            span = getattr(node, name)
            assert type(span) is SourceSpan and span.file == file, (node, name)
            assert 0 <= span.start <= span.end <= size, (node, name)
            rows.append(f"{type(node).__name__} {name} {span.start} {span.end}\n")
    return rows


@pytest.mark.parametrize(
    "path",
    [CORPUS / "smartstore.ucm", CORPUS / "firealarm.ucm", *sorted((REPO_ROOT / "tests" / "fixtures").glob("*.ucm"))],
    ids=lambda path: path.name,
)
def test_every_span_of_a_model_is_an_ordered_source_span(path):
    assert span_rows(path.read_text(encoding="utf-8"), path.name)


@settings(max_examples=100, deadline=None)
@given(text=model_source())
def test_every_span_of_a_generated_model_is_an_ordered_source_span(text):
    assert span_rows(text, "g.ucm")


def test_labels_round_trip_text():
    for text in ("1", "2-6", "2a", "2a1", "2-6a2", "3b2c11"):
        label = StepLabel.parse(text)
        assert label is not None
        assert label.text == text
    assert StepLabel.parse("a1") is None
    assert StepLabel.parse("2a1b") is not None  # block label: trailing pair open
    assert StepLabel.parse("") is None
    assert StepLabel.parse("2ab") is None  # only the last letter may stand without a number


@pytest.mark.parametrize(
    "path",
    [CORPUS / "smartstore.ucm", CORPUS / "firealarm.ucm", REPO_ROOT / "tests" / "fixtures" / "all-productions.ucm"],
    ids=lambda path: path.name,
)
def test_every_label_of_a_model_round_trips_its_text(path):
    """Each label token reads back as its own text, and so does every label
    the parser shares between the steps and blocks that carry it."""
    source = normalize(path.read_text(encoding="utf-8"))
    texts = {text for kind, text, _, _ in tokenize(source, path.name) if kind is LABEL}
    assert texts
    for text in texts:
        assert StepLabel.parse(text).text == text
    model, diags = parse(source, path.name)
    assert model is not None and diags == []
    for uc in model.use_cases:
        assert {item.label.text for item in [*uc.all_steps(), *uc.all_blocks()]} <= texts


def test_a_label_with_a_leading_zero_has_the_text_of_its_fields():
    """Such a label is not spelled as its own text, so its text is the
    formula's, and so is its anchor's, the text less the letter."""
    assert [StepLabel.parse(text).text for text in ("02", "2a01", "1-03a")] == ["2", "2a1", "1-3a"]
    assert StepLabel.parse("1-03a").text[:-1] == "1-3"


_SUFFIX = st.lists(st.tuples(st.sampled_from("abcxyz"), st.integers(1, 10**4)), max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.integers(1, 10**6), hi=st.none() | st.integers(1, 10**6), pairs=_SUFFIX, block=st.none() | st.sampled_from("az")
)
def test_derived_labels_have_the_text_of_their_fields(lo, hi, pairs, block):
    """A label, and the labels built from the fields of its successor, its
    anchor and its block's first step, have as text the reference formula over
    their fields, which parses back to an equal label: the stored text takes
    no part in equality, hashing or repr. The text is computed once, and no
    attribute can be set or deleted. A block label's text less its letter,
    which the resolver looks its anchor up by, is its anchor's text."""
    label = StepLabel(lo, hi, (*pairs, *([] if block is None else [(block, None)])))
    anchor = None if block is None else (lo, hi, label.suffix[:-1])
    if anchor is not None:
        assert label.text[:-1] == reference_label_text(*anchor)
    fields = (successor_fields(*label), anchor, first_in_block_fields(*label))
    derived = [label, *(StepLabel(*f) for f in fields if f)]
    for item in derived:
        expected = reference_label_text(item.anchor_lo, item.anchor_hi, item.suffix)
        text = item.text
        assert text == expected and item.text is text
        fresh = StepLabel.parse(expected)
        assert fresh == item and hash(fresh) == hash(item)
        assert repr(item) == repr(fresh) == (
            f"StepLabel(anchor_lo={item.anchor_lo!r}, anchor_hi={item.anchor_hi!r}, suffix={item.suffix!r})"
        )
        for name in ("anchor_lo", "anchor_hi", "suffix", "text", "new_name"):
            with pytest.raises(AttributeError):
                setattr(item, name, 0)
            with pytest.raises(AttributeError):
                delattr(item, name)
        assert item.text is text and item == fresh


def test_label_successors():
    assert successor_fields(*StepLabel.parse("3")) == StepLabel.parse("4")
    assert successor_fields(*StepLabel.parse("2a1")) == StepLabel.parse("2a2")
    assert successor_fields(*StepLabel.parse("2-6")) is None
    assert successor_fields(*StepLabel.parse("2a")) is None
    assert first_in_block_fields(*StepLabel.parse("2a")) == StepLabel.parse("2a1")
    assert StepLabel.parse("2-6a").text[:-1] == "2-6"  # the anchor, as the resolver reads it
    assert StepLabel.parse("2a1b").text[:-1] == "2a1"


@pytest.mark.parametrize(
    ("steps", "actors", "digit"),
    [
        ('    \u0661. P -> System : "asks"', "Human::P", "\u0661"),
        ('    1. P -> System : "asks"', "Human::P [\u0661..\u0663]", "\u0661"),
        ('    1. internal timeout \uff15.\uff15 s "waits"', "Human::P", "\uff15"),
    ],
    ids=["step-label", "multiplicity", "timeout"],
)
def test_only_ascii_digits_are_digits(steps, actors, digit):
    model, diags = parse(uc_source(steps).replace("primary: Human::P", f"primary: {actors}"))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("E000", f"unrecognized character {digit!r}")]
    assert StepLabel.parse(digit) is None


@pytest.mark.parametrize(
    ("message", "at", "name"),
    [
        ("as\x01ks", 2, "control character U+0001"),
        ("asks\x00", 4, "control character U+0000"),
        ("\x1f", 0, "control character U+001F"),
        ("as\\\x01ks", 3, "control character U+0001"),  # escaped
        ("a\ufffe", 1, "noncharacter U+FFFE"),
        ("a\\\uffff", 2, "noncharacter U+FFFF"),  # escaped
        ("a\ud800b", 1, "surrogate U+D800"),
        ("a\\\udfff", 2, "surrogate U+DFFF"),  # escaped
    ],
    ids=["soh", "nul", "unit-separator", "escaped-soh", "fffe", "escaped-ffff", "surrogate", "escaped-surrogate"],
)
def test_string_holding_a_character_xml_cannot_carry_is_e000(message, at, name):
    # XML 1.0 cannot carry these even as character references, so the XMI
    # export of such a model would not be well-formed.
    source = uc_source(f'    1. P -> System : "{message}"')
    bad = source.index(message) + at
    model, diags = parse(source)
    assert model is None
    assert [(d.code, d.span.start, d.span.end, d.message) for d in diags] == [
        ("E000", bad, bad + 1, f"string holds {name}")
    ]


def test_string_may_hold_tab_delete_c1_and_astral_characters():
    text = "a\tb\\\tc\x7f\x85\U0001f600\\\u00e9"
    model, diags = parse(uc_source(f'    1. P -> System : "{text}" // comment \x01 text'))
    assert diags == []
    assert model.use_cases[0].main.steps[0].payload.message == "a\tb\tc\x7f\x85\U0001f600\u00e9"

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def parse_error_sweep() -> str:
    """Parse the all-productions fixture once with each token deleted and once
    with each token doubled; one line per edit: the edit, the token index and
    text, then `ok` or the E000's code, span offsets, message and suggestions."""
    source = normalize((FIXTURES / "all-productions.ucm").read_text(encoding="utf-8"))
    lines = []
    for index, (_, text, start, end) in enumerate(tokenize(source, "all-productions.ucm")[:-1]):
        for edit, replacement in (("delete", ""), ("double", text + " " + text)):
            model, diags = parse(source[:start] + replacement + source[end:], "all-productions.ucm")
            if model is not None:
                outcome = "ok"
            else:
                (d,) = diags
                outcome = f"{d.code} {d.span.start} {d.span.end} {d.message} {d.suggestions}"
            lines.append(f"{edit} {index} {text!r}: {outcome}\n")
    return "".join(lines)


def test_spans_match_golden_walk():
    """The parser builds its spans without `SourceSpan`'s order check; each
    span of the all-productions fixture is where it was when it had one."""
    rows = span_rows((FIXTURES / "all-productions.ucm").read_text(encoding="utf-8"), "all-productions.ucm")
    assert "".join(rows) == (GOLDEN / "all-productions-spans.txt").read_text(encoding="utf-8")


def test_parse_errors_match_golden_sweep():
    model, diags = parse((FIXTURES / "all-productions.ucm").read_text(encoding="utf-8"))
    assert diags == [] and model is not None
    assert parse_error_sweep() == (GOLDEN / "parse-errors.txt").read_text(encoding="utf-8")
