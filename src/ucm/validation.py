"""Semantic rule suite over a resolved model.

Each rule is a pure function returning diagnostics; validate() concatenates
them all and sorts by (file, offset, code), so output is stable across runs.
Name-resolution problems (E003/E004/E012/E013/E014) are the resolver's job
and are not re-reported here. A repeated block label is E014 too, but it
is reported here: it breaks no binding, so tables stay available.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, sort_diagnostics
from .model import (
    ACTOR_CATEGORIES,
    BlockKind,
    ExceptionRef,
    ExtensionBlock,
    Interaction,
    Level,
    ModeDecl,
    OutcomeKind,
    Scenario,
    StepLabel,
    UseCase,
)
from .resolver import ResolvedModel, closure

_CLAUSE_NAMES = (
    ("scope", "scope"),
    ("level", "level"),
    ("intention", "intention"),
    ("multiplicity_text", "multiplicity"),
)


def validate(resolved: ResolvedModel) -> list[Diagnostic]:
    """Run every semantic rule; total, never mutates the model."""
    diags: list[Diagnostic] = []
    for uc in resolved.model.use_cases:
        diags.extend(check_required_clauses(uc))
        diags.extend(check_block_labels(uc))
        if uc.main:
            diags.extend(check_step_ordering(uc.main))
        for block in uc.all_blocks():
            diags.extend(check_step_ordering(block))
    diags.extend(check_actor_types(resolved))
    diags.extend(check_multiplicity(resolved))
    diags.extend(check_interaction_endpoints(resolved))
    diags.extend(check_exception_rules(resolved))
    diags.extend(check_outcomes(resolved))
    diags.extend(check_mode_rules(resolved))
    return sort_diagnostics(diags)


def check_required_clauses(uc: UseCase) -> list[Diagnostic]:
    """E001 for each absent mandatory clause: scope, level, intention,
    multiplicity, primary actor, main success scenario; handlers also need
    the contexts & exceptions clause, and only handlers may carry one."""
    diags = []
    for attr, label in _CLAUSE_NAMES:
        if getattr(uc, attr) is None:
            diags.append(_e001(uc, label))
    if not uc.primary_actors:
        diags.append(_e001(uc, "primary actor"))
    if uc.main is None:
        diags.append(_e001(uc, "main success scenario"))
    if uc.is_handler and not uc.contexts:
        diags.append(_e001(uc, "contexts & exceptions"))
    if not uc.is_handler and uc.contexts:
        diags.append(
            Diagnostic(
                "E001",
                f"use case '{uc.name}' carries a contexts & exceptions clause, "
                "which only handlers may declare",
                uc.contexts[0].span,
            )
        )
    return diags


def _e001(uc: UseCase, clause: str) -> Diagnostic:
    kind = "handler" if uc.is_handler else "use case"
    return Diagnostic("E001", f"{kind} '{uc.name}' is missing its {clause} clause", uc.name_span)


def check_block_labels(uc: UseCase) -> list[Diagnostic]:
    """E014 for a block whose label an earlier block of the same use case
    already carries: their steps would share labels, so goto, repeat and
    continue targets could not tell them apart."""
    first: dict[str, ExtensionBlock] = {}
    diags = []
    for block in uc.all_blocks():
        prior = first.setdefault(block.label.text, block)
        if prior is not block:
            diags.append(
                Diagnostic(
                    "E014",
                    f"duplicate block label '{block.label.text}' in '{uc.name}'",
                    block.span,
                    related=[(prior.span, "first block with this label")],
                )
            )
    return diags


def check_step_ordering(seq: Scenario | ExtensionBlock) -> list[Diagnostic]:
    """E002 when a step label is not the unique legal successor of its
    predecessor. Main scenarios count 1, 2, 3, ...; a block labelled L counts
    L1, L2, ... Suggestions carry the legal successor labels."""
    if isinstance(seq, Scenario):
        steps = seq.steps
        expected = StepLabel(1)
    else:
        steps = seq.steps()
        expected = seq.label.first_in_block()
        if expected is None:
            return []  # malformed block label; anchor resolution already complained
    diags = []
    for step in steps:
        if expected is None or step.label != expected:
            suggestions = [expected.text] if expected is not None else []
            diags.append(
                Diagnostic(
                    "E002",
                    f"step '{step.label.text}' does not follow the step numbering",
                    step.span,
                    suggestions=suggestions,
                )
            )
        expected = step.label.successor()
    return diags


def check_actor_types(resolved: ResolvedModel) -> list[Diagnostic]:
    """E005 for actor references with no category or one outside the closed
    set; sensor/actuator/tag/reader count as device categories."""
    known: dict[str, str] = {}
    for uc in resolved.model.use_cases:
        for ref in uc.all_actors():
            if ref.category in ACTOR_CATEGORIES and ref.name not in known:
                known[ref.name] = ref.category
    diags = []
    for uc in resolved.model.use_cases:
        for ref in uc.all_actors():
            if ref.category in ACTOR_CATEGORIES:
                continue
            if ref.category is None:
                message = f"actor '{ref.name}' has no category"
            else:
                message = f"actor '{ref.name}' uses unknown category '{ref.category}'"
            if ref.name in known:
                suggestions = [f"{known[ref.name]}::{ref.name}"]
            else:
                suggestions = ["use one of " + ", ".join(f"{c}::{ref.name}" for c in ACTOR_CATEGORIES)]
            diags.append(Diagnostic("E005", message, ref.span, suggestions=suggestions))
    return diags


def check_multiplicity(resolved: ResolvedModel) -> list[Diagnostic]:
    """E006 when an actor multiplicity's lower bound exceeds a bounded upper
    bound; `*` upper bounds are always legal."""
    diags = []
    for uc in resolved.model.use_cases:
        for ref in uc.all_actors():
            m = ref.multiplicity
            if m is not None and m.upper is not None and m.lower > m.upper:
                diags.append(
                    Diagnostic(
                        "E006",
                        f"multiplicity [{m.lower}..{m.upper}] has lower bound above upper bound",
                        ref.span,
                    )
                )
    return diags


def check_interaction_endpoints(resolved: ResolvedModel) -> list[Diagnostic]:
    """E010 unless an interaction in a summary or user-goal use case links
    the System with exactly one actor declared in that use case."""
    diags = []
    for uc in resolved.model.use_cases:
        if uc.level not in (Level.SUMMARY, Level.USER_GOAL):
            continue
        declared = [ref.name for ref in uc.all_actors()]
        known = set(declared)
        # Each diagnostic names at most 8 actors, so its length does not grow with the use case.
        listing = ", ".join(declared[:8]) + (f" and {len(declared) - 8} more" if len(declared) > 8 else "") or "none"
        for step in uc.all_steps():
            if not isinstance(step.payload, Interaction):
                continue
            ends = (step.payload.source, step.payload.target)
            system_count = sum(1 for e in ends if e == "System")
            if system_count == 0:
                diags.append(
                    Diagnostic("E010", "interaction has no System endpoint", step.span)
                )
            elif system_count == 2:
                diags.append(
                    Diagnostic("E010", "both interaction endpoints are the System", step.span)
                )
            else:
                other = ends[0] if ends[1] == "System" else ends[1]
                if other not in known:
                    diags.append(
                        Diagnostic(
                            "E010",
                            f"actor '{other}' is not declared in '{uc.name}' "
                            f"(declared actors: {listing})",
                            step.span,
                        )
                    )
    return diags


def check_exception_rules(resolved: ResolvedModel) -> list[Diagnostic]:
    """Exception-handling rules:

    - W001: a raise occurrence of an exception no handler context mentions
    - E007: a handler context whose exception is raised neither in the
      context use case nor anywhere reachable from it (global exceptions
      may interrupt any use case and are exempt)
    - E009: an exceptional block ends in continue but nothing handles
      its exception
    - E008: an exceptional block without exactly one raise step
    - W002: a header exception that is never raised
    """
    diags = []
    sites = resolved.sites_by_exception
    handled = resolved.handlers_by_exception
    callers: dict[str, list[str]] = {}  # among the use cases names resolve to, as reachable_use_cases walks
    for uc in resolved.use_case_by_name.values():
        for _, target in resolved.invocations_of(uc):
            callers.setdefault(target.name, []).append(uc.name)
    reaching: dict[str, set[str]] = {}  # exception -> the use cases that reach one of its raise sites

    for site in resolved.raise_sites():
        name = site.exception.qualified_name
        if name in resolved.exception_by_qualified_name and name not in handled:
            diags.append(
                Diagnostic("W001", f"exception '{name}' is raised here but never handled", site.step.span)
            )

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
                diags.append(
                    Diagnostic(
                        "E007",
                        f"exception '{name}' does not occur in '{ctx.use_case}' "
                        "or in any use case it invokes",
                        ctx.span,
                    )
                )

    for uc in resolved.model.use_cases:
        for block in uc.all_blocks():
            if block.kind is not BlockKind.EXCEPTIONAL:
                continue
            raises = [s.payload for s in block.steps() if isinstance(s.payload, ExceptionRef)]
            if len(raises) != 1:
                diags.append(
                    Diagnostic(
                        "E008",
                        f"exceptional block '{block.label.text}' contains "
                        f"{len(raises)} raise steps, expected exactly one",
                        block.span,
                    )
                )
            if block.outcome.kind is OutcomeKind.CONTINUE:
                for raised in raises:
                    name = raised.qualified_name
                    if name in resolved.exception_by_qualified_name and name not in handled:
                        diags.append(
                            Diagnostic(
                                "E009",
                                f"block continues although '{name}' is never handled",
                                block.outcome.span,
                            )
                        )

    for exc in resolved.model.exceptions:
        if exc.qualified_name not in sites:
            diags.append(
                Diagnostic("W002", f"exception '{exc.qualified_name}' is declared but never raised", exc.span)
            )
    return diags


def check_outcomes(resolved: ResolvedModel) -> list[Diagnostic]:
    """E011 when a main success scenario ends in anything but success. Every
    scenario and block has an outcome: the grammar and `import_json` require
    one."""
    diags = []
    for uc in resolved.model.use_cases:
        if uc.main is not None and uc.main.outcome.kind is not OutcomeKind.SUCCESS:
            diags.append(
                Diagnostic(
                    "E011",
                    f"main success scenario of '{uc.name}' ends in "
                    f"'{uc.main.outcome.kind.value}', expected success",
                    uc.main.outcome.span,
                )
            )
    return diags


def check_mode_rules(resolved: ResolvedModel) -> list[Diagnostic]:
    """W003 for declared non-default modes that no mode switch targets. The
    targets are read from the resolver's bindings, where only mode switches
    bind to a mode. Switch-position legality is grammatical and undeclared
    switch targets are E013 at resolution."""
    targeted = {target.name for target in resolved.bindings.values() if isinstance(target, ModeDecl)}
    diags = []
    for mode in resolved.model.modes:
        if not mode.is_default and mode.name not in targeted:
            diags.append(
                Diagnostic(
                    "W003",
                    f"mode '{mode.name}' is declared but never switched to",
                    mode.span,
                )
            )
    return diags
