"""Semantic rule suite over a resolved model.

`validate` walks each use case once: its actor list, then its main scenario,
then its blocks in document order. It applies each node's rules as it meets
the node: E001 at the use case, E005 and E006 at each actor, E002, E010 and
E011 at the main scenario, and E014 (a repeated block label), E002, E010,
E008 and E009 at each block. Rules over the whole model keep a loop each:
W001, E007, W002 and W003.

E002 compares each step's label with the plain tuple of fields expected
there (`model.successor_fields`); only its suggestion builds a `StepLabel`.

The result is sorted by (file, offset, code), a stable sort, so diagnostics
tied on all three come out in walk order. An imported model's spans are
numbered in document order (`import_json`), so such ties arise only within
one node, in parsed and imported models alike, and both list their
diagnostics in the same order.

Name-resolution problems (E003/E004/E012/E013/E014/E017) are the resolver's
job and are not re-reported here. A repeated block label is E014 too, but it
is reported here: it breaks no binding, so tables stay available.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, sort_diagnostics
from .model import (
    ACTOR_CATEGORIES,
    ExceptionRef,
    ExtensionBlock,
    Interaction,
    Step,
    StepLabel,
    USE_CASE_CLAUSES,
    UseCase,
    first_in_block_fields,
    successor_fields,
)
from .resolver import ResolvedModel, closure


def validate(resolved: ResolvedModel) -> list[Diagnostic]:
    """Run every semantic rule; total, never mutates the model."""
    diags: list[Diagnostic] = []
    for uc in resolved.model.use_cases:
        _walk_use_case(resolved, uc, diags)
    _check_model_rules(resolved, diags)
    return sort_diagnostics(diags)


def _walk_use_case(resolved: ResolvedModel, uc: UseCase, diags: list[Diagnostic]) -> None:
    """Apply the rules of one use case and of every node in it, in walk order.

    - E001 for each absent mandatory clause: scope, level, intention,
      multiplicity, primary actor, main success scenario; handlers also need
      the contexts & exceptions clause, and only handlers may carry one.
    - E005 for an actor with no category or one outside the closed set,
      suggesting the category the resolver's `actor_by_name` holds for it;
      E006 when its multiplicity's lower bound exceeds a bounded upper bound.
    - E002 when a step label is not the unique legal successor of its
      predecessor: main scenarios count 1, 2, 3, ...; a block labelled L
      counts L1, L2, ... Suggestions carry the legal successor label.
    - E010 unless an interaction in a summary or user-goal use case links
      the System with exactly one actor declared in that use case.
    - E011 when the main success scenario ends in anything but success.
    - E014 for a block whose label an earlier block of the use case carries:
      their steps would share labels, so references could not tell them apart.
    - E008 for an exceptional block without exactly one raise step, and E009
      for each raised exception nothing handles when such a block continues.
    """
    kind = "handler" if uc.is_handler else "use case"
    # The template opens with its four mandatory clauses of one value, scope to multiplicity.
    missing = [word for word, attr, _ in USE_CASE_CLAUSES[:4] if getattr(uc, attr) is None]
    if not uc.primary_actors:
        missing.append("primary actor")
    if uc.main is None:
        missing.append("main success scenario")
    if uc.is_handler and not uc.contexts:
        missing.append("contexts & exceptions")
    for clause in missing:
        diags.append(Diagnostic("E001", f"{kind} '{uc.name}' is missing its {clause} clause", uc.name_span))
    if not uc.is_handler and uc.contexts:
        message = f"use case '{uc.name}' carries a contexts & exceptions clause, which only handlers may declare"
        diags.append(Diagnostic("E001", message, uc.contexts[0].span))

    actors = uc.all_actors()
    for ref in actors:
        if ref.category not in ACTOR_CATEGORIES:
            if ref.category is None:
                message = f"actor '{ref.name}' has no category"
            else:
                message = f"actor '{ref.name}' uses unknown category '{ref.category}'"
            if ref.name in resolved.actor_by_name:
                suggestions = [resolved.actor_by_name[ref.name].qualified_name]
            else:
                suggestions = ["use one of " + ", ".join(f"{c}::{ref.name}" for c in ACTOR_CATEGORIES)]
            diags.append(Diagnostic("E005", message, ref.span, suggestions=suggestions))
        m = ref.multiplicity
        if m is not None and m.upper is not None and m.lower > m.upper:
            message = f"multiplicity [{m.lower}..{m.upper}] has lower bound above upper bound"
            diags.append(Diagnostic("E006", message, ref.span))

    declared: set[str] | None = None  # the endpoint rule applies to summary and user-goal use cases
    if uc.level in ("summary", "user-goal"):
        declared = {ref.name for ref in actors}
        # Each diagnostic names at most 8 actors, so its length does not grow with the use case.
        more = f" and {len(actors) - 8} more" if len(actors) > 8 else ""
        listing = ", ".join(ref.name for ref in actors[:8]) + more or "none"

    def walk_steps(steps: list[Step], expected: tuple | None) -> None:
        """E002 along `steps` from the label fields `expected` (None: a malformed
        block label, which anchor resolution reported), and E010."""
        numbered = expected is not None
        for step in steps:
            if numbered:
                if step.label != expected:  # a label equals the plain tuple of its fields
                    suggestions = [] if expected is None else [StepLabel(*expected).text]
                    message = f"step '{step.label.text}' does not follow the step numbering"
                    diags.append(Diagnostic("E002", message, step.span, suggestions=suggestions))
                expected = successor_fields(*step.label)
            if declared is None or not isinstance(step.payload, Interaction):
                continue
            ends = (step.payload.source, step.payload.target)
            system_count = ends.count("System")
            if system_count == 0:
                diags.append(Diagnostic("E010", "interaction has no System endpoint", step.span))
            elif system_count == 2:
                diags.append(Diagnostic("E010", "both interaction endpoints are the System", step.span))
            else:
                other = ends[0] if ends[1] == "System" else ends[1]
                if other not in declared:
                    message = f"actor '{other}' is not declared in '{uc.name}' (declared actors: {listing})"
                    diags.append(Diagnostic("E010", message, step.span))

    if uc.main is not None:
        walk_steps(uc.main.steps, (1, None, ()))
        outcome = uc.main.outcome
        if outcome.kind != "success":
            message = f"main success scenario of '{uc.name}' ends in '{outcome.kind}', expected success"
            diags.append(Diagnostic("E011", message, outcome.span))

    first: dict[str, ExtensionBlock] = {}
    for block in uc.all_blocks():
        prior = first.setdefault(block.label.text, block)
        if prior is not block:
            message = f"duplicate block label '{block.label.text}' in '{uc.name}'"
            diags.append(Diagnostic("E014", message, block.span, related=[(prior.span, "first block with this label")]))
        steps = block.steps()
        walk_steps(steps, first_in_block_fields(*block.label))
        if block.kind != "exceptional":
            continue
        raises = [s.payload for s in steps if isinstance(s.payload, ExceptionRef)]
        if len(raises) != 1:
            message = f"exceptional block '{block.label.text}' contains {len(raises)} raise steps, expected exactly one"
            diags.append(Diagnostic("E008", message, block.span))
        if block.outcome.kind == "continue":
            for raised in raises:
                name = raised.qualified_name
                if name in resolved.exception_by_qualified_name and name not in resolved.handlers_by_exception:
                    message = f"block continues although '{name}' is never handled"
                    diags.append(Diagnostic("E009", message, block.outcome.span))


def _check_model_rules(resolved: ResolvedModel, diags: list[Diagnostic]) -> None:
    """The rules over the whole model, one loop each:

    - W001: a raise occurrence of an exception no handler context mentions
    - E007: a handler context whose exception is raised neither in the
      context use case nor anywhere reachable from it (global exceptions
      may interrupt any use case and are exempt)
    - W002: a header exception that is never raised
    - W003: a mode that is neither marked default, nor the start mode
      (`default_mode`), nor the target of a mode switch (`switched_modes`)
    """
    sites = resolved.sites_by_exception
    for name, raised in sites.items():
        if name in resolved.exception_by_qualified_name and name not in resolved.handlers_by_exception:
            message = f"exception '{name}' is raised here but never handled"
            diags.extend(Diagnostic("W001", message, site.step.span) for site in raised)

    callers: dict[str, list[str]] = {}  # among the use cases names resolve to, as reachable_use_cases walks
    for uc in resolved.use_case_by_name.values():
        for _, target in resolved.invocations_of(uc):
            callers.setdefault(target.name, []).append(uc.name)
    reaching: dict[str, set[str]] = {}  # exception -> the use cases that reach one of its raise sites
    for uc in resolved.model.use_cases:
        if not uc.is_handler:
            continue
        for ctx in uc.contexts:
            name = ctx.exception.qualified_name
            definition = resolved.exception_by_qualified_name.get(name)
            if definition is None or ctx.use_case not in resolved.use_case_by_name:
                continue  # resolution already reported
            if definition.is_global:
                continue
            if name not in reaching:
                raisers = (site.use_case.name for site in sites.get(name, []))
                reaching[name] = closure(raisers, lambda n: callers.get(n, ()))
            if ctx.use_case not in reaching[name]:
                message = f"exception '{name}' does not occur in '{ctx.use_case}' or in any use case it invokes"
                diags.append(Diagnostic("E007", message, ctx.span))

    for exc in resolved.model.exceptions:
        if exc.qualified_name not in sites:
            message = f"exception '{exc.qualified_name}' is declared but never raised"
            diags.append(Diagnostic("W002", message, exc.span))

    start = resolved.model.default_mode()
    for mode in resolved.model.modes:
        if not mode.is_default and mode is not start and mode.name not in resolved.switched_modes:
            diags.append(Diagnostic("W003", f"mode '{mode.name}' is declared but never switched to", mode.span))
