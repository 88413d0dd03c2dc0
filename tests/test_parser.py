from __future__ import annotations

from pathlib import Path

import pytest

from ucm.model import (
    BlockKind,
    ExceptionCategory,
    ExceptionRef,
    ExtensionBlock,
    Internal,
    Interaction,
    Invocation,
    Level,
    ModeKind,
    Model,
    OutcomeKind,
    Scenario,
    Step,
    StepKind,
    StepLabel,
    UseCase,
)
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
    assert model.modes[0].is_default and model.modes[0].kind is ModeKind.NORMAL
    assert model.exceptions == []
    assert model.use_cases == []


def test_global_exception_declaration():
    src = "model M modes { default normal Normal } exceptions { exception EnvironmentException::FireHazard global }"
    model, diags = parse(src)
    assert diags == []
    (exc,) = model.exceptions
    assert exc.category is ExceptionCategory.ENVIRONMENT
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
    assert step.kind is StepKind.INTERNAL
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
    assert kinds == [
        StepKind.INTERACTION,
        StepKind.INVOCATION,
        StepKind.CONDITION,
        StepKind.CONTROL_FLOW,
        StepKind.CONTROL_FLOW,
        StepKind.RAISE,
    ]
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
    assert [b.kind for b in blocks] == [BlockKind.EXCEPTIONAL, BlockKind.ALTERNATIVE]
    first, second = blocks
    assert first.label.text == "1a"
    assert first.guard == "sensor silent"
    assert first.outcome.kind is OutcomeKind.CONTINUE
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
    assert ctx.relation.value == "interrupt-continue"


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
    ],
)
def test_syntax_errors_are_all_or_nothing(source, fragment):
    model, diags = parse(source)
    assert model is None
    assert len(diags) == 1
    assert diags[0].code == "E000"
    assert fragment in diags[0].message


def test_unterminated_string_is_a_syntax_error():
    model, diags = parse(MINIMAL + ' usecase A { scope: "unclosed }')
    assert model is None
    assert diags[0].code == "E000"


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
    elif isinstance(node, Scenario):
        yield from node.steps
        yield node.outcome
    elif isinstance(node, ExtensionBlock):
        yield from node.body
        yield node.outcome
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


def test_labels_round_trip_text():
    for text in ("1", "2-6", "2a", "2a1", "2-6a2", "3b2c11"):
        label = StepLabel.parse(text)
        assert label is not None
        assert label.text == text
    assert StepLabel.parse("a1") is None
    assert StepLabel.parse("2a1b") is not None  # block label: trailing pair open
    assert StepLabel.parse("") is None


def test_label_successors():
    assert StepLabel.parse("3").successor() == StepLabel.parse("4")
    assert StepLabel.parse("2a1").successor() == StepLabel.parse("2a2")
    assert StepLabel.parse("2-6").successor() is None
    assert StepLabel.parse("2a").successor() is None
    assert StepLabel.parse("2a").first_in_block() == StepLabel.parse("2a1")
    assert StepLabel.parse("2-6a").anchor_label() == StepLabel.parse("2-6")
    assert StepLabel.parse("2a1b").anchor_label() == StepLabel.parse("2a1")
