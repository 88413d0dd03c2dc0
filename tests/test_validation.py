"""Rule-by-rule validation tests plus the mutation catalog: for every
diagnostic code, a clean fixture (no output at all) paired with a
defect-injected fixture that must produce the code at a known line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, REPO_ROOT, growth, hub_source, pipeline, wide_handler_source, wide_use_case_source
from oracles import reference_step_numbering, unreached_handler_contexts
from strategies import model_source, use_case_source
from ucm.analysis import (
    AnalysisError,
    InvocationCycleError,
    build_invocation_graph,
    enumerate_paths,
    exception_summary,
    handler_summary,
    mode_switch_table,
)
from ucm.cli import main
from ucm.export import export_json, import_json
from ucm.model import ACTOR_CATEGORIES, StepLabel, UseCase
from ucm.parser import parse, parse_file
from ucm.resolver import resolve
from ucm.spans import LineIndex
from ucm.validation import validate

BASE_HEADER = """model M
modes { default normal Normal }
exceptions { }
"""


def uc(name: str, body: str, clauses: str = "", extensions: str = "") -> str:
    return f"""usecase {name} {{
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
{clauses if clauses else '  primary: Human::P'}
  main {{
{body}
  }}
{extensions}}}
"""


@dataclass
class MutationCase:
    code: str
    clean: str
    defect: str
    marker: str
    extra_ok: frozenset = frozenset()
    suggestions: list[str] | None = None
    cycle_target: str | None = None  # set for E015: enumeration target
    name: str | None = None  # test id when a code has more than one case


def _case_e000():
    clean = BASE_HEADER
    defect = "model M\nmodes { default normal Normal }\nexceptions { exception Bogus::X }\n"
    return MutationCase("E000", clean, defect, "Bogus")


def _case_e001():
    clean = BASE_HEADER + uc("A", '    1. internal "works"\n    outcome success')
    defect = clean.replace("  primary: Human::P\n", "")
    return MutationCase("E001", clean, defect, "usecase A")


def _case_e002():
    steps = '    1. internal "a"\n    2. internal "b"\n    3. internal "c"\n    outcome success'
    clean = BASE_HEADER + uc("A", steps)
    defect = clean.replace('3. internal "c"', '4. internal "c"')
    return MutationCase("E002", clean, defect, '4. internal "c"', suggestions=["3"])


def _case_e003():
    clean = BASE_HEADER + uc("A", "    1. invoke B\n    outcome success") + uc(
        "B", '    1. internal "x"\n    outcome success'
    )
    defect = clean.replace("1. invoke B", "1. invoke NoSuchUC")
    return MutationCase("E003", clean, defect, "NoSuchUC")


_E004_HEADER = """model M
modes { default normal Normal }
exceptions { exception HardwareException::X global }
"""

_HANDLER_FOR_X = """handler H {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::Tech
  contexts: A on HardwareException::X interrupt-continue
  main {
    1. Tech -> System : "repairs"
    outcome success
  }
}
"""


def _case_e004():
    clean = (
        _E004_HEADER
        + uc("A", "    1. raise HardwareException::X\n    2. raise HardwareException::X\n    outcome success")
        + _HANDLER_FOR_X
    )
    defect = clean.replace("2. raise HardwareException::X", "2. raise HardwareException::Nope")
    return MutationCase("E004", clean, defect, "Nope")


def _case_e005():
    clean = (
        BASE_HEADER
        + uc("A", '    1. internal "x"\n    outcome success', clauses="  primary: PhysicalEntity::EntryGate")
        + uc(
            "B",
            '    1. internal "x"\n    outcome success',
            clauses="  primary: Human::P\n  secondary: PhysicalEntity::EntryGate",
        )
    )
    defect = clean.replace("  primary: PhysicalEntity::EntryGate", "  primary: EntryGate", 1)
    return MutationCase(
        "E005", clean, defect, "primary: EntryGate", suggestions=["PhysicalEntity::EntryGate"]
    )


def _case_e006():
    clean = BASE_HEADER + uc(
        "A", '    1. internal "x"\n    outcome success', clauses="  primary: Human::P [1..*]"
    )
    defect = clean.replace("[1..*]", "[3..2]")
    return MutationCase("E006", clean, defect, "3..2")


def _case_e007():
    header = BASE_HEADER.replace(
        "exceptions { }", "exceptions { exception HardwareException::X }"
    )
    clean = (
        header
        + uc("A", '    1. internal "idle"\n    outcome success')
        + uc("B", "    1. raise HardwareException::X\n    outcome success")
        + _HANDLER_FOR_X.replace("contexts: A on", "contexts: B on")
    )
    defect = clean.replace("contexts: B on", "contexts: A on")
    return MutationCase("E007", clean, defect, "contexts: A on")


_E008_EXTENSIONS = """  extensions {
    block 1a exceptional when "sensor stays silent" {
      1a1. raise HardwareException::X
      outcome failure
    }
  }
"""


def _case_e008():
    header = BASE_HEADER.replace("exceptions { }", "exceptions { exception HardwareException::X }")
    clean = (
        header
        + uc("A", '    1. internal "try"\n    outcome success', extensions=_E008_EXTENSIONS)
        + _HANDLER_FOR_X
    )
    defect = clean.replace(
        "      1a1. raise HardwareException::X\n",
        "      1a1. raise HardwareException::X\n      1a2. raise HardwareException::X\n",
    )
    return MutationCase("E008", clean, defect, "block 1a exceptional")


def _case_e009():
    header = BASE_HEADER.replace("exceptions { }", "exceptions { exception HardwareException::X }")
    extensions = _E008_EXTENSIONS.replace("outcome failure", "outcome continue 1")
    clean = (
        header
        + uc("A", '    1. internal "try"\n    outcome success', extensions=extensions)
        + _HANDLER_FOR_X
    )
    defect = clean[: clean.index("handler H")]
    return MutationCase("E009", clean, defect, "outcome continue 1", extra_ok=frozenset({"W001"}))


def _case_e010():
    clean = BASE_HEADER + uc(
        "A",
        '    1. P -> System : "asks"\n    outcome success',
        clauses="  primary: Human::P\n  secondary: Human::Q",
    )
    defect = clean.replace('1. P -> System : "asks"', '1. P -> Q : "asks"')
    return MutationCase("E010", clean, defect, "P -> Q")


def _case_e011():
    clean = BASE_HEADER + uc("A", '    1. internal "x"\n    outcome success')
    defect = clean.replace("outcome success", "outcome failure")
    return MutationCase("E011", clean, defect, "outcome failure")


def _case_e012():
    extensions = """  extensions {
    block 1a alternative when "retry" {
      outcome continue 2
    }
  }
"""
    clean = BASE_HEADER + uc(
        "A", '    1. internal "x"\n    2. internal "y"\n    outcome success', extensions=extensions
    )
    defect = clean.replace("outcome continue 2", "outcome continue 9")
    return MutationCase("E012", clean, defect, "outcome continue 9")


def _case_e013():
    clean = BASE_HEADER + uc("A", '    1. internal "x"\n    outcome success')
    defect = clean.replace("  main {\n", "  main {\n    mode switch: Turbo\n")
    return MutationCase("E013", clean, defect, "Turbo")


def _case_e014():
    body = '    1. internal "x"\n    outcome success'
    clean = BASE_HEADER + uc("A", body) + uc("B", body)
    defect = clean.replace("usecase B {", "usecase A { // duplicate")
    return MutationCase("E014", clean, defect, "// duplicate")


_SIBLING_EXTENSIONS = """  extensions {
    block 1a alternative when "first" {
      1a1. internal "a"
      outcome success
    }
    block 1b alternative when "second" {
      1b1. internal "b"
      outcome success
    }
  }
"""


def _case_e014_block_label():
    clean = BASE_HEADER + uc("A", '    1. internal "x"\n    outcome success', extensions=_SIBLING_EXTENSIONS)
    defect = clean.replace(
        'block 1b alternative when "second" {\n      1b1.',
        'block 1a alternative when "second" { // repeated\n      1a1.',
    )
    return MutationCase("E014", clean, defect, "// repeated", name="E014-block-label")


def _case_e015():
    clean = BASE_HEADER + uc("A", "    1. invoke B\n    outcome success") + uc(
        "B", '    1. internal "x"\n    outcome success'
    )
    defect = clean.replace('1. internal "x"', "1. invoke A")
    return MutationCase("E015", clean, defect, "invoke B", cycle_target="B")


def _case_w001():
    header = BASE_HEADER.replace("exceptions { }", "exceptions { exception HardwareException::X }")
    clean = (
        header
        + uc("A", '    1. internal "try"\n    outcome success', extensions=_E008_EXTENSIONS)
        + _HANDLER_FOR_X
    )
    defect = clean[: clean.index("handler H")]
    return MutationCase("W001", clean, defect, "1a1. raise")


def _case_w002():
    clean = (
        _E004_HEADER
        + uc("A", "    1. raise HardwareException::X\n    outcome success")
        + _HANDLER_FOR_X
    )
    defect = clean.replace("1. raise HardwareException::X", '1. internal "nothing"')
    return MutationCase("W002", clean, defect, "exception HardwareException::X")


def _case_w003():
    header = BASE_HEADER.replace(
        "modes { default normal Normal }", "modes { default normal Normal degraded Low }"
    )
    clean = header + uc(
        "A", '    mode switch: Low\n    1. internal "x"\n    outcome success'
    )
    defect = clean.replace("    mode switch: Low\n", "")
    return MutationCase("W003", clean, defect, "degraded Low")


MUTATION_CATALOG: list[MutationCase] = [
    _case_e000(),
    _case_e001(),
    _case_e002(),
    _case_e003(),
    _case_e004(),
    _case_e005(),
    _case_e006(),
    _case_e007(),
    _case_e008(),
    _case_e009(),
    _case_e010(),
    _case_e011(),
    _case_e012(),
    _case_e013(),
    _case_e014(),
    _case_e014_block_label(),
    _case_e015(),
    _case_w001(),
    _case_w002(),
    _case_w003(),
]


def marker_line(source: str, marker: str) -> int:
    lines = [i for i, line in enumerate(source.splitlines(), 1) if marker in line]
    assert len(lines) == 1, f"marker {marker!r} found on lines {lines}"
    return lines[0]


def run_mutation_case(case: MutationCase) -> None:
    _, clean_diags = pipeline(case.clean)
    assert clean_diags == [], [f"{d.code}:{d.message}" for d in clean_diags]

    line = marker_line(case.defect, case.marker)
    index = LineIndex(case.defect)
    if case.cycle_target is not None:
        resolved, diags = pipeline(case.defect)
        assert diags == []  # cycles do not fail parse/resolve/validate
        graph = build_invocation_graph(resolved)
        with pytest.raises(InvocationCycleError) as excinfo:
            enumerate_paths(graph, case.cycle_target)
        diag = excinfo.value.diagnostic
        assert diag.code == case.code
        assert index.position(diag.span.start)[0] == line
        return

    _, diags = pipeline(case.defect)
    hits = [d for d in diags if d.code == case.code]
    assert hits, f"expected {case.code}, got {[d.code for d in diags]}"
    found = [(d.code, index.position(d.span.start)[0]) for d in diags]
    assert (case.code, line) in found, f"{case.code} not at line {line}: {found}"
    unexpected = {d.code for d in diags} - {case.code} - set(case.extra_ok)
    assert not unexpected, f"unexpected co-diagnostics {unexpected}"
    if case.suggestions is not None:
        assert hits[0].suggestions == case.suggestions


@pytest.mark.parametrize("case", MUTATION_CATALOG, ids=lambda c: c.name or c.code)
def test_mutation_pair(case: MutationCase):
    run_mutation_case(case)


# -- individual rule behaviour beyond the catalog ----------------------------


def test_duplicate_block_label_notes_the_first_block():
    case = _case_e014_block_label()
    _, diags = pipeline(case.defect)
    (diag,) = diags
    assert diag.message == "duplicate block label '1a' in 'A'"
    ((first, note),) = diag.related
    line, _ = LineIndex(case.defect).position(first.start)
    assert line == marker_line(case.defect, 'block 1a alternative when "first"')
    assert note == "first block with this label"


def test_duplicate_main_labels_get_e002_with_next_suggestion():
    src = BASE_HEADER + uc("A", '    1. internal "a"\n    1. internal "b"\n    outcome success')
    _, diags = pipeline(src)
    (diag,) = [d for d in diags if d.code == "E002"]
    assert diag.suggestions == ["2"]


def test_block_steps_numbered_from_block_label():
    extensions = """  extensions {
    block 2a alternative when "retry" {
      2a1. internal "first"
      2a2. internal "second"
      outcome abandoned
    }
  }
"""
    src = BASE_HEADER + uc(
        "A", '    1. internal "x"\n    2. internal "y"\n    outcome success', extensions=extensions
    )
    _, diags = pipeline(src)
    assert diags == []
    bad = src.replace("2a2.", "2a3.")
    _, diags = pipeline(bad)
    (diag,) = [d for d in diags if d.code == "E002"]
    assert diag.suggestions == ["2a2"]


_LABELS = ("1", "2", "3", "02", "2-4", "2a", "2a1", "2a2", "2-6a1", "1a1b1")


@settings(max_examples=150, deadline=None)
@given(
    main=st.lists(st.sampled_from(_LABELS), min_size=1, max_size=5),
    block=st.sampled_from(("2a", "2-6a", "1a1b", "3", "2a1")),
    body=st.lists(st.sampled_from(_LABELS + ("2-6a2", "1a1b1", "1a1b2", "31")), max_size=4),
)
@example(main=["1", "2-4", "3"], block="2-6a", body=["2-6a1", "2-6a3"])
@example(main=["1", "2", "2-4", "2-4"], block="2-6a", body=["2-6a1", "2-6a2", "2a"])
@example(main=["1", "2", "3"], block="3", body=["31", "1"])
@example(main=["01", "2", "2a"], block="2a", body=["2a1", "2a02", "2a"])
def test_e002_matches_the_reference_step_numbering(main, block, body):
    """Every E002 of a use case with drawn step labels, and of a block with a
    drawn label, ranged and malformed ones included: span, message and
    suggestions as a label-by-label walk gives them."""
    steps = "\n".join(f'    {label}. internal "x"' for label in main)
    block_steps = "".join(f'      {label}. internal "y"\n' for label in body)
    extensions = f'  extensions {{\n    block {block} alternative {{\n{block_steps}      outcome abandoned\n    }}\n  }}\n'
    resolved, diags = pipeline(BASE_HEADER + uc("A", steps + "\n    outcome success", extensions=extensions))
    e002 = [(d.span, d.message, d.suggestions) for d in diags if d.code == "E002"]
    (use_case,) = resolved.model.use_cases
    assert e002 == sorted(reference_step_numbering(use_case), key=lambda found: found[0].start)


def test_validating_a_parsed_model_builds_no_step_label(monkeypatch):
    """Each step label is compared with the fields of the label expected
    there, so validating the smart store builds no label; an E002 builds
    one for its suggestion."""
    model, diags = parse_file(CORPUS / "smartstore.ucm")
    resolved, diags = resolve(model)
    assert diags == []
    built = []
    new = StepLabel.__new__

    def counted(cls, *fields):
        built.append(fields)
        return new(cls, *fields)

    monkeypatch.setattr(StepLabel, "__new__", counted)
    assert validate(resolved) == []
    assert built == []
    model, _ = parse(BASE_HEADER + uc("A", '    1. internal "a"\n    3. internal "b"\n    outcome success'))
    resolved, _ = resolve(model)
    built.clear()
    assert [d.suggestions for d in validate(resolved)] == [["2"]] and built == [(2, None, ())]


def test_first_main_step_must_be_one():
    src = BASE_HEADER + uc("A", '    2. internal "x"\n    outcome success')
    _, diags = pipeline(src)
    (diag,) = [d for d in diags if d.code == "E002"]
    assert diag.suggestions == ["1"]


def test_degenerate_multiplicity_is_legal():
    src = BASE_HEADER + uc(
        "A", '    1. internal "x"\n    outcome success', clauses="  primary: Human::P [0..0]"
    )
    _, diags = pipeline(src)
    assert diags == []


def test_unknown_actor_category_is_e005():
    src = BASE_HEADER + uc(
        "A", '    1. internal "x"\n    outcome success', clauses="  primary: Robot::X"
    )
    _, diags = pipeline(src)
    assert [d.code for d in diags] == ["E005"]


def test_e005_suggests_a_category_declared_in_a_later_use_case():
    src = (
        BASE_HEADER
        + uc("A", '    1. internal "x"\n    outcome success', clauses="  primary: Owner")
        + uc("B", '    1. internal "x"\n    outcome success', clauses="  primary: Human::Owner")
    )
    _, diags = pipeline(src)
    assert [(d.code, d.suggestions) for d in diags] == [("E005", ["Human::Owner"])]


def test_device_subcategories_are_valid_actor_types():
    clauses = (
        "  primary: Human::P\n"
        "  secondary: Reader::TagReader, Sensor::S, Actuator::Arm, Tag::Sticker, Device::D"
    )
    src = BASE_HEADER + uc("A", '    1. internal "x"\n    outcome success', clauses=clauses)
    _, diags = pipeline(src)
    assert diags == []


def test_interaction_with_undeclared_actor_lists_declared_ones():
    src = BASE_HEADER + uc(
        "A",
        '    1. Ghost -> System : "boo"\n    outcome success',
        clauses="  primary: Human::P\n  secondary: Human::Q",
    )
    _, diags = pipeline(src)
    (diag,) = [d for d in diags if d.code == "E010"]
    assert "Ghost" in diag.message
    assert "P" in diag.message and "Q" in diag.message


def test_both_endpoints_system_is_e010():
    src = BASE_HEADER + uc("A", '    1. System -> System : "loop"\n    outcome success')
    _, diags = pipeline(src)
    assert [d.code for d in diags] == ["E010"]


def test_sub_function_level_exempt_from_endpoint_rule():
    src = BASE_HEADER + uc(
        "A", '    1. Ghost -> Phantom : "boo"\n    outcome success'
    ).replace("level: user-goal", "level: sub-function")
    _, diags = pipeline(src)
    assert [d.code for d in diags] == []


def test_handler_without_contexts_is_e001():
    src = BASE_HEADER + uc("H", '    1. internal "x"\n    outcome success').replace(
        "usecase H", "handler H"
    )
    _, diags = pipeline(src)
    (diag,) = [d for d in diags if d.code == "E001"]
    assert "contexts & exceptions" in diag.message


def test_usecase_with_contexts_is_e001():
    header = BASE_HEADER.replace("exceptions { }", "exceptions { exception HardwareException::X }")
    src = (
        header
        + uc(
            "A",
            "    1. raise HardwareException::X\n    outcome success",
            clauses="  primary: Human::P\n  contexts: A on HardwareException::X interrupt-fail",
        )
        + _HANDLER_FOR_X
    )
    _, diags = pipeline(src)
    assert "E001" in [d.code for d in diags]


def test_missing_clause_messages_name_the_clause():
    src = BASE_HEADER + "usecase A {\n}\n"
    _, diags = pipeline(src)
    messages = " / ".join(d.message for d in diags if d.code == "E001")
    for clause in ("scope", "level", "intention", "multiplicity", "primary actor", "main success scenario"):
        assert clause in messages


def test_global_exception_context_is_exempt_from_e007():
    header = BASE_HEADER.replace(
        "exceptions { }", "exceptions { exception EnvironmentException::Quake global }"
    )
    src = (
        header
        + uc("A", '    1. internal "idle"\n    outcome success')
        + uc("B", "    1. raise EnvironmentException::Quake\n    outcome success")
        + _HANDLER_FOR_X.replace("A on HardwareException::X", "A on EnvironmentException::Quake")
    )
    _, diags = pipeline(src)
    assert [d.code for d in diags] == []


def test_e007_satisfied_through_invocation_chain():
    """Also after a JSON round trip, whose nodes all carry the same
    zero-length span: reachability follows the invocation of B."""
    header = BASE_HEADER.replace("exceptions { }", "exceptions { exception HardwareException::X }")
    src = (
        header
        + uc("A", "    1. invoke B\n    outcome success")
        + uc("B", "    1. raise HardwareException::X\n    outcome success")
        + _HANDLER_FOR_X
    )
    resolved, diags = pipeline(src)
    assert diags == []
    back, import_diags = import_json(export_json(resolved))
    assert import_diags == []
    again, resolve_diags = resolve(back)
    assert resolve_diags + validate(again) == []


_NO_DEFAULT_MODE = BASE_HEADER.replace("modes { default normal Normal }", "modes { normal Normal  degraded Low }")
_SWITCH_IN_A_BLOCK = """  extensions {
    block 1a alternative when "power drops" {
      mode switch: Low
      1a1. internal "save"
      outcome success
    }
  }
"""


def test_the_start_mode_of_a_model_without_a_default_mode_is_exempt_from_w003(tmp_path, capsys):
    """Without a mode marked `default` a model starts in its first mode, as
    the mode table shows, so that mode needs no switch to it; a later mode
    that nothing switches to is still W003."""
    source = _NO_DEFAULT_MODE + uc("A", '    1. internal "x"\n    outcome success', extensions=_SWITCH_IN_A_BLOCK)
    assert pipeline(source)[1] == []
    path = tmp_path / "m.ucm"
    path.write_text(source, encoding="utf-8")
    assert main(["check", "--strict", str(path)]) == 0
    assert main(["table", "modes", str(path)]) == 0
    assert "| A | block 1a-begin | Normal | Low |" in capsys.readouterr().out

    unswitched = source.replace("      mode switch: Low\n", "")
    assert [(d.code, d.message) for d in pipeline(unswitched)[1]] == [
        ("W003", "mode 'Low' is declared but never switched to")
    ]


def test_corpora_are_diagnostic_free(smartstore, firealarm):
    for model in (smartstore, firealarm):
        resolved, rdiags = resolve(model)
        assert rdiags == []
        assert validate(resolved) == []


def test_deleting_sensor_handler_yields_three_w001(smartstore):
    source = (CORPUS / "smartstore.ucm").read_text(encoding="utf-8")
    truncated = source[: source.index("handler ServiceSensor")]
    resolved, diags = pipeline(truncated)
    w001 = [d for d in diags if d.code == "W001"]
    assert len(w001) == 3
    messages = " ".join(d.message for d in w001)
    for name in ("TagUnavailable", "PressureUndetected", "WeightUnavailable"):
        assert name in messages
    # the blocks end in continue, so the unhandled exceptions also break rule E009
    assert {d.code for d in diags} == {"W001", "E009"}


def test_validate_is_deterministic_and_pure(smartstore):
    resolved, _ = resolve(smartstore)
    snapshot = parse((CORPUS / "smartstore.ucm").read_text(encoding="utf-8"), str(CORPUS / "smartstore.ucm"))[0]
    first = validate(resolved)
    second = validate(resolved)
    assert first == second
    assert resolved.model == snapshot  # validation does not mutate the model


def test_validate_output_is_sorted():
    src = BASE_HEADER + uc("A", '    2. internal "x"\n    outcome failure')
    _, diags = pipeline(src)
    keys = [d.sort_key() for d in diags]
    assert keys == sorted(keys)


def test_validate_walks_each_use_case_once(smartstore_resolved, monkeypatch):
    """One validate reads each use case's actors and blocks once, and its
    steps only through its main scenario and blocks."""
    calls: Counter[str] = Counter()

    def counted(name: str):
        method = getattr(UseCase, name)

        def wrapper(uc: UseCase):
            calls[name] += 1
            return method(uc)

        return wrapper

    for name in ("all_actors", "all_blocks", "all_steps"):
        monkeypatch.setattr(UseCase, name, counted(name))
    assert validate(smartstore_resolved) == []
    n = len(smartstore_resolved.model.use_cases)
    assert n == 30
    assert calls["all_actors"] <= n and calls["all_blocks"] <= n and calls["all_steps"] <= n, calls


def test_imported_fault_fixture_keeps_the_validator_emission_order():
    """The spans of an imported model follow document order, so its sorted
    diagnostics come in the parsed model's order."""
    model, _ = parse_file(REPO_ROOT / "tests" / "fixtures" / "validation-faults.ucm")
    resolved, resolve_diags = resolve(model)
    assert resolve_diags == []
    imported, import_diags = import_json(export_json(resolved))
    assert import_diags == []
    produced = "".join(f"{d.code} {d.message}\n" for d in validate(resolve(imported)[0]))
    golden = REPO_ROOT / "tests" / "golden" / "validation-faults-imported.txt"
    assert produced == golden.read_text(encoding="utf-8")
    assert produced == "".join(f"{d.code} {d.message}\n" for d in validate(resolved))


def test_empty_model_validates_clean():
    resolved, diags = pipeline(BASE_HEADER)
    assert diags == []
    assert validate(resolved) == []


# -- E007 reach --------------------------------------------------------------------


def test_e007_follows_invocations_around_a_cycle():
    # A and B invoke each other, only B raises X, and D invokes A; validation
    # runs before E015. Only C reaches no raise of X.
    header = BASE_HEADER.replace("exceptions { }", "exceptions { exception HardwareException::X }")
    more = ", ".join(f"{name} on HardwareException::X interrupt-continue" for name in "CD")
    src = (
        header
        + uc("A", "    1. invoke B\n    outcome success")
        + uc("B", "    1. invoke A\n    2. raise HardwareException::X\n    outcome success")
        + uc("C", '    1. internal "idle"\n    outcome success')
        + uc("D", "    1. invoke A\n    outcome success")
        + _HANDLER_FOR_X.replace("continue\n", f"continue, {more}\n", 1)
    )
    resolved, diags = pipeline(src)
    assert [(d.code, d.message) for d in diags] == [
        ("E007", "exception 'HardwareException::X' does not occur in 'C' or in any use case it invokes")
    ]
    assert [(d.message, d.span) for d in diags] == unreached_handler_contexts(resolved)


@settings(max_examples=100, deadline=None)
@given(source=model_source())
def test_e007_matches_a_reach_walk_per_context_on_generated_models(source):
    resolved, diags = pipeline(source)
    assert [(d.message, d.span) for d in diags if d.code == "E007"] == unreached_handler_contexts(resolved)


# -- a name declared twice ---------------------------------------------------------
# A second declaration is E014. It is bound and checked, but its raise steps
# and handler contexts count nowhere: the name means its first declaration.


def test_a_second_handler_declaration_handles_nothing():
    """U raises X and R raises Y, which handler H handles in R. A second H
    that handles X in U adds its E014 and leaves the W001 on U's raise."""
    header = BASE_HEADER.replace(
        "exceptions { }", "exceptions {\n  exception HardwareException::X\n  exception HardwareException::Y\n}"
    )
    base = (
        header
        + uc("U", "    1. raise HardwareException::X\n    outcome success")
        + uc("R", "    1. raise HardwareException::Y\n    outcome success")
        + _HANDLER_FOR_X.replace("A on HardwareException::X", "R on HardwareException::Y")
    )
    second = _HANDLER_FOR_X.replace("A on", "U on")
    _, before = pipeline(base)
    _, after = pipeline(base + second)
    assert [(d.code, d.message) for d in before] == [
        ("W001", "exception 'HardwareException::X' is raised here but never handled")
    ]
    assert [d.code for d in after] == ["E014", "W001"]
    assert after[1] == before[0]
    assert after[0].span.start == len(base) + second.index("H ")


def test_a_second_declaration_switches_to_no_mode(tmp_path, capsys):
    """Only the first U counts for W003, as for the mode table: a switch to
    Low in a second U leaves Low unswitched to, beside the second U's E014."""
    header = BASE_HEADER.replace("modes { default normal Normal }", "modes {\n  default normal Normal\n  normal Low\n}")
    body = '    1. internal "x"\n    outcome success'
    source = header + uc("U", body) + uc("U", body.replace("    outcome", "    mode switch: Low\n    outcome"))
    path = tmp_path / "m.ucm"
    path.write_text(source, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "warning[W003]: mode 'Low' is declared but never switched to" in err
    assert "error[E014]: duplicate use case 'U'" in err
    assert sorted(d.code for d in pipeline(source)[1]) == ["E014", "W003"]


def test_a_second_declarations_actors_declare_nothing():
    """A's uncategorised Clerk is suggested every category: the second B's
    Device::Clerk declares nothing. A conflict there is still E014."""
    body = '    1. internal "x"\n    outcome success'
    source = (
        BASE_HEADER
        + uc("A", body, clauses="  primary: Clerk")
        + uc("B", body, clauses="  primary: Human::Boss")
        + uc("B", body, clauses="  primary: Device::Clerk")
    )
    resolved, diags = pipeline(source)
    assert "Clerk" not in resolved.actor_by_name
    assert [d.code for d in diags] == ["E014", "E005"]
    assert diags[1].suggestions == ["use one of " + ", ".join(f"{c}::Clerk" for c in ACTOR_CATEGORIES)]
    assert diags[1].suggestions[0].startswith("use one of Human::Clerk, ")

    def conflicts(source: str) -> list[tuple[int, str]]:
        return [(d.span.start, d.message) for d in pipeline(source)[1] if "redeclared" in d.message]

    # The second B is checked against every declared actor, a later one too, and its own.
    boss = source.replace("primary: Device::Clerk", "primary: Device::Boss")
    assert conflicts(boss) == [(boss.index("Device::Boss"), "actor 'Boss' redeclared as Device but previously Human")]
    later = source + uc("C", body, clauses="  primary: Human::Clerk")
    message = "actor 'Clerk' redeclared as Device but previously Human"
    assert conflicts(later) == [(later.index("Device::Clerk"), message)]
    own = source.replace("primary: Device::Clerk", "primary: Device::Clerk\n  secondary: Human::Clerk")
    assert conflicts(own) == [(own.index("Human::Clerk"), "actor 'Clerk' redeclared as Human but previously Device")]


@st.composite
def model_and_second_declaration(draw) -> tuple[str, str]:
    """A generated model, and a second declaration of one of its use case or
    handler names, with a body of its own, to append to it."""
    base = draw(model_source())
    model, _ = parse(base)
    names = [uc.name for uc in model.use_cases]
    exceptions = [exc.qualified_name for exc in model.exceptions]
    modes = [mode.name for mode in model.modes]
    second = use_case_source(draw(st.sampled_from(names)), draw(st.booleans()), names, exceptions, modes)
    return base, draw(second) + "\n"


def summaries(resolved) -> list:
    """The exception, handler and mode-switch summaries, or the diagnostic
    that refuses one."""
    out = []
    for summary in (exception_summary, handler_summary, mode_switch_table):
        try:
            out.append(summary(resolved))
        except AnalysisError as err:
            out.append(err.diagnostic)
    return out


@settings(max_examples=100, deadline=None)
@given(models=model_and_second_declaration())
def test_a_second_declaration_changes_nothing_before_it_but_adds_e014(models):
    """No diagnostic before the second body changes, W003 and E005
    suggestions included: its mode switches switch to no mode, and its actors
    declare nothing."""
    base, second = models
    before, before_diags = pipeline(base)
    after, after_diags = pipeline(base + second)

    def in_base(diags):
        return [d for d in diags if d.span.start < len(base)]

    assert in_base(after_diags) == in_base(before_diags)
    assert any(d.code == "E014" and d.span.start >= len(base) for d in after_diags)
    assert summaries(after) == summaries(before)


def test_hub_validates_in_linear_time():
    runs = {n: pipeline(hub_source(n)) for n in (250, 2000)}
    assert {d.code for d in runs[2000][1]} == {"E001"}
    # 8x the leaves and handler contexts: about 8x the time; a reach walk per context gives 64x.
    assert growth(lambda n: validate(runs[n][0]), 250, 2000) < 20


def test_wide_handler_validates_in_linear_time():
    runs = {n: pipeline(wide_handler_source(n)) for n in (500, 4000)}
    assert {d.code for d in runs[4000][1]} == {"E001"}
    # 8x the raise sites and contexts: about 8x the time; scanning every site per context gives 64x.
    assert growth(lambda n: validate(runs[n][0]), 500, 4000) < 20


def test_undeclared_actors_are_reported_in_linear_time():
    # Every interaction names an undeclared actor B<i> instead of A<i>.
    runs = {n: pipeline(wide_use_case_source(n).replace(". A", ". B")) for n in (250, 2000)}
    diags = runs[2000][1]
    assert len(diags) == 2000 and {d.code for d in diags} == {"E010"}
    assert diags[0].message == (
        "actor 'B0' is not declared in 'U' (declared actors: A0, A1, A2, A3, A4, A5, A6, A7 and 1992 more)"
    )
    # 8x the actors and interactions: about 8x the time; listing every actor in each diagnostic gives 64x.
    assert growth(lambda n: validate(runs[n][0]), 250, 2000) < 20
