from __future__ import annotations

from collections import Counter

from conftest import REPO_ROOT
from ucm import resolver
from ucm.export import export_json, import_json
from ucm.model import ControlFlow, StepLabel, UseCase
from ucm.parser import parse, parse_file
from ucm.resolver import reachable_use_cases, resolve
from ucm.spans import LineIndex
from ucm.validation import validate

HEADER = """model M
modes { default normal Normal }
exceptions { exception HardwareException::EntryFailure }
"""

UC = """usecase %s {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::P
  main {
%s
    outcome success
  }
}
"""


def build(*usecases: tuple[str, str], header: str = HEADER) -> str:
    return header + "".join(UC % uc for uc in usecases)


def resolved_of(src: str):
    model, diags = parse(src, "t.ucm")
    assert model is not None, [d.message for d in diags]
    return resolve(model)


def test_declared_raise_binds_without_diagnostics():
    src = build(("A", "    1. raise HardwareException::EntryFailure"))
    resolved, diags = resolved_of(src)
    errors = [d for d in diags if d.code.startswith("E")]
    assert errors == []
    step = resolved.model.use_cases[0].main.steps[0]
    assert resolved.binding_for(step.payload) is resolved.model.exceptions[0]


def test_unresolved_invocation_is_e003():
    src = build(("A", "    1. invoke NoSuchUC"))
    _, diags = resolved_of(src)
    e003 = [d for d in diags if d.code == "E003"]
    assert len(e003) == 1
    assert "NoSuchUC" in e003[0].message


def test_exception_plain_name_clash_is_e014():
    header = """model M
modes { default normal Normal }
exceptions {
  exception HardwareException::X
  exception SoftwareException::X
}
"""
    src = build(("A", "    1. raise HardwareException::X"), header=header)
    _, diags = resolved_of(src)
    e014 = [d for d in diags if d.code == "E014"]
    assert len(e014) == 1
    assert LineIndex(src).position(e014[0].span.start)[0] == 5  # the second declaration
    assert e014[0].related


def test_duplicate_mode_service_usecase_are_e014():
    src = """model M
modes { default normal Normal normal Normal }
exceptions { }
services { service S provides A service S provides A }
""" + (UC % ("A", "    1. internal \"x\"")) + (UC % ("A", "    1. internal \"x\""))
    _, diags = resolved_of(src)
    assert sum(1 for d in diags if d.code == "E014") == 3


def test_double_default_mode_is_e014():
    src = "model M modes { default normal A default degraded B } exceptions { }"
    _, diags = resolved_of(src)
    assert [d.code for d in diags] == ["E014"]


def test_actor_category_conflict_is_e014():
    src = HEADER + """usecase A {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::P
  main { 1. internal "x" outcome success }
}
usecase B {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Software::P
  main { 1. internal "x" outcome success }
}
"""
    _, diags = resolved_of(src)
    e014 = [d for d in diags if d.code == "E014"]
    assert len(e014) == 1
    assert "Software" in e014[0].message
    assert e014[0].related


def test_undefined_offered_service_and_provided_use_case_are_e017():
    """Each `offers` entry must name a service and each `provides` entry a
    use case; a miss is E017 at the mode or service, naming the entry."""
    header = """model M
modes { default normal Normal offers Svc, Ghost }
exceptions { }
services {
  service Svc provides A, Nope
}
"""
    src = build(("A", '    1. internal "x"'), header=header)
    _, diags = resolved_of(src)
    index = LineIndex(src)
    assert [(d.code, d.message, index.position(d.span.start)) for d in diags] == [
        ("E017", "service 'Ghost' offered by mode 'Normal' is not defined", (2, 9)),
        ("E017", "use case 'Nope' provided by service 'Svc' is not defined", (5, 3)),
    ]
    assert resolved_of(src.replace(", Ghost", "").replace(", Nope", ""))[1] == []


def test_unresolved_continue_and_goto_are_e012():
    src = build(("A", "    1. goto 7"))
    _, diags = resolved_of(src)
    assert [d.code for d in diags] == ["E012"]


RANGED_BLOCK = UC.replace(
    "    outcome success\n  }\n",
    """    outcome success
  }
  extensions {
    block 1-03a exceptional {
      1-3a1. raise HardwareException::EntryFailure
      outcome failure
    }
  }
""",
)


def test_a_block_anchors_on_its_label_text_less_the_letter():
    """`1-03a` anchors on the range `1-3`: over steps 1 to 3 of A it binds
    step 1 and hangs off all three, and where B has no step 3 its E012
    names the anchor `1-3`."""
    steps = '    1. internal "x"\n    2. internal "y"'
    src = HEADER + RANGED_BLOCK % ("A", steps + '\n    3. internal "z"') + RANGED_BLOCK % ("B", steps)
    resolved, diags = resolved_of(src)
    a = resolved.model.use_cases[0]
    assert resolved.binding_for(a.extensions[0]) is a.main.steps[0]
    site = next(s for s in resolved.raise_sites() if s.use_case is a)
    assert site.anchored_steps == a.main.steps
    assert [(d.code, d.message) for d in diags] == [
        ("E012", "block anchor '1-3' names no existing step in its parent sequence")
    ]


def test_unresolved_mode_switch_is_e013():
    src = HEADER + """usecase A {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::P
  main {
    mode switch: Turbo
    1. internal "x"
    outcome success
  }
}
"""
    _, diags = resolved_of(src)
    assert "E013" in [d.code for d in diags]


def test_context_references_bind_to_usecase_and_exception():
    src = build(("A", "    1. raise HardwareException::EntryFailure")) + """handler H {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::Tech
  contexts: A on HardwareException::EntryFailure interrupt-continue
  main {
    1. Tech -> System : "fixes"
    outcome success
  }
}
"""
    resolved, diags = resolved_of(src)
    assert [d.code for d in diags if d.code.startswith("E")] == []
    ctx = resolved.model.use_cases[1].contexts[0]
    assert resolved.binding_for(ctx) is resolved.model.use_cases[0]
    assert resolved.binding_for(ctx.exception) is resolved.model.exceptions[0]


TWO_BLOCKS = UC.replace(
    "    outcome success\n  }\n",
    """    outcome success
  }
  extensions {
    block 1a alternative when "c" {
      1a1. internal "z"
      outcome continue 2
    }
    block 2a alternative when "d" {
      2a1. internal "w"
      outcome failure
    }
  }
""",
)


def test_a_sequence_is_indexed_only_where_a_block_hangs_off_it(monkeypatch):
    """Only the main scenario of A is indexed: its two blocks anchor on it but
    hold no nested block, and B has no block at all."""
    calls = []
    index = resolver._index_sequence

    def counted(steps):
        calls.append(steps)
        return index(steps)

    monkeypatch.setattr(resolver, "_index_sequence", counted)
    src = HEADER + TWO_BLOCKS % ("A", '    1. internal "x"\n    2. internal "y"') + UC % ("B", '    1. internal "x"')
    resolved, diags = resolved_of(src)
    assert diags == []
    a = resolved.model.use_cases[0]
    assert [resolved.binding_for(block) for block in a.extensions] == a.main.steps
    assert len(calls) == 1
    assert calls[0] is a.main.steps


def test_resolve_and_validate_compute_no_label_text(monkeypatch):
    """The parser's labels keep their token text, and a block's anchor label
    the block label's text less its letter, so no label text of the smart
    store is computed from its fields."""
    model, diags = parse_file(REPO_ROOT / "corpus" / "smartstore.ucm")
    assert diags == []
    text = StepLabel.__dict__["text"]
    formula = text.func
    computed = []

    def counted(label):
        computed.append(label)
        return formula(label)

    monkeypatch.setattr(text, "func", counted)
    resolved, diags = resolve(model)
    assert diags == [] and validate(resolved) == []
    assert len(computed) == 0, computed[:3]


def test_a_label_map_is_built_only_for_a_use_case_that_references_a_step(monkeypatch):
    """A use case's first-step-per-label map is built once, at its first goto,
    repeat or continue reference, and not at all without one; `all_steps`
    is called for nothing else."""
    model, diags = parse_file(REPO_ROOT / "corpus" / "smartstore.ucm")
    assert diags == []
    referencing = Counter()
    for uc in model.use_cases:
        outcomes = [uc.main.outcome, *(block.outcome for block in uc.all_blocks())]
        if any(o.continue_target for o in outcomes) or any(isinstance(s.payload, ControlFlow) for s in uc.all_steps()):
            referencing[uc.name] = 1
    assert 0 < len(referencing) < len(model.use_cases)
    calls = Counter()
    all_steps = UseCase.all_steps

    def counted(uc):
        calls[uc.name] += 1
        return all_steps(uc)

    monkeypatch.setattr(UseCase, "all_steps", counted)
    resolved, diags = resolve(model)
    assert diags == []
    assert calls == referencing


def test_reachable_transitive_closure():
    src = build(
        ("A", "    1. invoke B"),
        ("B", "    1. invoke C"),
        ("C", '    1. internal "leaf"'),
    )
    resolved, _ = resolved_of(src)
    assert reachable_use_cases(resolved, "A") == {"A", "B", "C"}
    assert reachable_use_cases(resolved, "C") == {"C"}
    assert reachable_use_cases(resolved, "Nope") == set()


def test_reachable_terminates_on_cycles():
    src = build(("A", "    1. invoke B"), ("B", "    1. invoke A"))
    resolved, _ = resolved_of(src)
    assert reachable_use_cases(resolved, "A") == {"A", "B"}


def test_reachable_is_a_fixed_point(smartstore_resolved):
    reach = reachable_use_cases(smartstore_resolved, "AddToCart")
    assert {"AddToCart", "IdentifyItem", "RecognizeUser"} <= reach
    for member in reach:
        assert reachable_use_cases(smartstore_resolved, member) <= reach


def test_clean_resolve_binds_every_reference(smartstore_resolved):
    """Every reference site is bound, and nothing else is."""
    resolved = smartstore_resolved
    sites: list[object] = []
    for uc in resolved.model.use_cases:
        for step in uc.all_steps():
            if step.kind in ("invocation", "control-flow"):
                sites.append(step)
            if step.kind == "exception-raise":
                sites.append(step.payload)
        for ctx in uc.contexts:
            sites += [ctx, ctx.exception]
        scenarios = ([uc.main] if uc.main else []) + list(uc.all_blocks())
        for seq in scenarios:
            sites += [switch for switch in (seq.entry_switch, seq.exit_switch) if switch is not None]
            if seq.outcome.continue_target is not None:
                sites.append(seq.outcome)
        sites += uc.all_blocks()
    for node in sites:
        assert resolved.binding_for(node) is not None, node
    assert len(resolved.bindings) == len(sites) == 149


def test_bindings_point_at_the_named_nodes(smartstore_resolved):
    resolved = smartstore_resolved
    shopping = resolved.use_case_by_name["Shopping"]
    (block,) = [b for b in shopping.all_blocks() if b.label.text == "2-4a"]
    assert resolved.binding_for(block) is shopping.main.steps[1]
    assert resolved.binding_for(block.entry_switch) is resolved.mode_by_name["FireEmergency"]
    for step, target in resolved.invocations_of(shopping):
        assert resolved.binding_for(step) is target is resolved.use_case_by_name[step.payload.target]


def test_resolve_is_pure(smartstore):
    first, d1 = resolve(smartstore)
    second, d2 = resolve(smartstore)
    assert d1 == d2
    # Same reference sites bound to the very same targets, in the same order.
    assert len(first.bindings) == len(second.bindings)
    for (site1, target1), (site2, target2) in zip(first.bindings.items(), second.bindings.items()):
        assert site1 == site2 and target1 is target2
    assert [s.step for s in first.raise_sites()] == [s.step for s in second.raise_sites()]
    assert first.use_case_by_name.keys() == second.use_case_by_name.keys()


def test_imported_fault_fixture_keeps_the_resolver_emission_order():
    """The spans of an imported model follow document order, so its sorted
    diagnostics come in the parsed model's order."""
    model, _ = parse_file(REPO_ROOT / "tests" / "fixtures" / "resolver-faults.ucm")
    resolved, parsed_diags = resolve(model)
    imported, import_diags = import_json(export_json(resolved))
    assert import_diags == []
    reresolved, diags = resolve(imported)
    produced = "".join(f"{d.code} {d.message}\n" for d in diags)
    golden = REPO_ROOT / "tests" / "golden" / "resolver-faults-imported.txt"
    assert produced == golden.read_text(encoding="utf-8")
    assert produced == "".join(f"{d.code} {d.message}\n" for d in parsed_diags)
    assert len(reresolved.bindings) == len(resolved.bindings)
