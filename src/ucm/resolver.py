"""Name resolution: symbol tables and reference bindings over a parsed model.

Two rules do the work: `_define` enters each definition under its name and
reports a later one of the same name (E014), and `_bind` binds each reference
to the node it names or reports it (E003, E004, E012, E013). The names a mode
offers and a service provides get no binding; each must name a definition
(E017). Resolution never aborts, and all resolvable references are bound
regardless of the others.

A use case's map from label text to first step, which its goto, repeat and
continue references bind through, is built at the first such reference. A
block's anchor is read from the block label's own fields and text.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import NamedTuple

from .diagnostics import Diagnostic, sort_diagnostics
from .model import (
    ACTOR_CATEGORIES,
    ActorRef,
    ControlFlow,
    ExceptionDef,
    ExceptionRef,
    ExtensionBlock,
    Invocation,
    Model,
    ModeDecl,
    Scenario,
    ServiceDecl,
    Step,
    UseCase,
)


class RaiseSite(NamedTuple):
    """One occurrence of an exception: a raise step with its surroundings."""

    use_case: UseCase
    block: ExtensionBlock | None  # None when raised in the main scenario
    step: Step
    anchored_steps: list[Step]  # parent-sequence steps the block hangs off


@dataclass
class ResolvedModel:
    """A model plus lookup tables, one binding per resolvable reference, and
    the raise sites, handlers and invocation adjacency the resolver met on
    its walk.

    `_define` fills the four name tables, first definition wins, and
    `actor_by_name` holds each actor's first reference under a known category.
    `_bind` fills `bindings`, keyed by ``id()`` of the node that carries the
    reference: an invocation or goto/repeat step, an exception reference, a
    mode switch, a continue outcome or a handler context (its use case); a
    block binds to its anchor step. Mode `offers` and service `provides`
    entries get no binding; an undefined one is E017. Immutable by convention
    after resolve(); safe to share across readers.

    `sites_by_exception`, the one copy of the raise sites, maps a qualified
    exception name to its sites in document order, and `handlers_by_exception`
    to the distinct handlers whose contexts name it, in document order (as
    dict keys), both from the use cases names resolve to, not a later
    declaration. Tables read use cases and exceptions through the name tables.
    """

    model: Model
    use_case_by_name: dict[str, UseCase] = field(default_factory=dict)
    exception_by_qualified_name: dict[str, ExceptionDef] = field(default_factory=dict)
    mode_by_name: dict[str, ModeDecl] = field(default_factory=dict)
    service_by_name: dict[str, ServiceDecl] = field(default_factory=dict)
    actor_by_name: dict[str, ActorRef] = field(default_factory=dict)
    bindings: dict[int, object] = field(default_factory=dict)
    sites_by_exception: dict[str, list[RaiseSite]] = field(default_factory=dict)
    handlers_by_exception: dict[str, dict[str, None]] = field(default_factory=dict)
    _invocations: dict[int, list[tuple[Step, UseCase]]] = field(default_factory=dict)

    def binding_for(self, node: object) -> object | None:
        return self.bindings.get(id(node))

    def raise_sites(self) -> list[RaiseSite]:
        """The raise steps of `sites_by_exception`, bound or not, grouped by
        exception in the order of their first raise, each group in document order."""
        return [site for sites in self.sites_by_exception.values() for site in sites]

    def invocations_of(self, uc: UseCase) -> list[tuple[Step, UseCase]]:
        """Resolved invocation steps of one use case, in document order."""
        return self._invocations.get(id(uc), [])


def resolve(ast: Model) -> tuple[ResolvedModel, list[Diagnostic]]:
    """Build symbol tables and bind every reference site; pure and
    deterministic for a given tree."""
    resolved = ResolvedModel(ast)
    diags: list[Diagnostic] = []

    _collect_definitions(resolved, diags)
    _collect_actors(resolved, diags)
    for uc in ast.use_cases:
        _bind_use_case(resolved, uc, diags)
    return resolved, sort_diagnostics(diags)


def _define(table: dict, name: str, node, what: str, diags: list[Diagnostic], span: str = "span") -> bool:
    """Enter `node` under `name` unless an earlier node holds it, which makes
    `node` a duplicate (E014); True when `node` came first."""
    first = table.setdefault(name, node)
    if first is not node:
        related = [(getattr(first, span), "first definition")]
        diags.append(Diagnostic("E014", f"duplicate {what} '{name}'", getattr(node, span), related=related))
    return first is node


def _bind(
    resolved: ResolvedModel, diags: list[Diagnostic], node, table: dict, name: str, code: str, message: str, span
) -> object | None:
    """Bind `node` to `table[name]` and return it, or append one `code`
    diagnostic at `span`, `message` formatted with the name, and return None."""
    target = table.get(name)
    if target is None:
        diags.append(Diagnostic(code, message.format(name), span))
    else:
        resolved.bindings[id(node)] = target
    return target


def _collect_definitions(resolved: ResolvedModel, diags: list[Diagnostic]) -> None:
    ast = resolved.model
    default_seen: ModeDecl | None = None
    for mode in ast.modes:
        _define(resolved.mode_by_name, mode.name, mode, "mode", diags)
        if mode.is_default:
            if default_seen is not None:
                diags.append(
                    Diagnostic(
                        "E014",
                        f"mode '{mode.name}' marked default but '{default_seen.name}' already is",
                        mode.span,
                        related=[(default_seen.span, "first default mode")],
                    )
                )
            else:
                default_seen = mode

    plain_names: dict[str, ExceptionDef] = {}
    for exc in ast.exceptions:
        if _define(plain_names, exc.name, exc, "exception", diags):
            resolved.exception_by_qualified_name[exc.qualified_name] = exc

    for svc in ast.services:
        _define(resolved.service_by_name, svc.name, svc, "service", diags)

    for uc in ast.use_cases:
        _define(resolved.use_case_by_name, uc.name, uc, "use case", diags, "name_span")

    for mode in ast.modes:
        for name in mode.offered_services:
            if name not in resolved.service_by_name:
                message = f"service '{name}' offered by mode '{mode.name}' is not defined"
                diags.append(Diagnostic("E017", message, mode.span))
    for svc in ast.services:
        for name in svc.goals:
            if name not in resolved.use_case_by_name:
                message = f"use case '{name}' provided by service '{svc.name}' is not defined"
                diags.append(Diagnostic("E017", message, svc.span))


def _collect_actors(resolved: ResolvedModel, diags: list[Diagnostic]) -> None:
    """Actors are global entities identified by (category, name); reusing a
    name under a different category is a duplicate definition. Only a known
    category declares, and the first declaration of each name goes into
    `actor_by_name`: a missing or unknown category is the validator's E005."""
    for uc in resolved.model.use_cases:
        for ref in uc.all_actors():
            if ref.category not in ACTOR_CATEGORIES:
                continue
            prior = resolved.actor_by_name.setdefault(ref.name, ref)
            if prior.category != ref.category:
                diags.append(
                    Diagnostic(
                        "E014",
                        f"actor '{ref.name}' redeclared as {ref.category} but previously {prior.category}",
                        ref.span,
                        related=[(prior.span, f"first declared as {prior.qualified_name}")],
                    )
                )


# A parent sequence as block anchors read it: the first step per label text,
# then those with a plain-integer label, in ascending order of their number.
# `_bind_use_case` builds one only for a sequence that some block anchors on: a
# main scenario with extensions, or a block body that holds nested blocks.
_Sequence = tuple[dict[str, Step], list[Step]]
_number = attrgetter("label.anchor_lo")


def _index_sequence(steps: list[Step]) -> _Sequence:
    by_label: dict[str, Step] = {}
    for step in steps:
        by_label.setdefault(step.label.text, step)
    numbered = [s for s in by_label.values() if s.label.anchor_hi is None and not s.label.suffix]
    return by_label, sorted(numbered, key=_number)


def _bind_use_case(resolved: ResolvedModel, uc: UseCase, diags: list[Diagnostic]) -> None:
    labels: dict[str, Step] = {}  # first step per label text, built at the first reference by label
    invocations = resolved._invocations[id(uc)] = []
    use_cases = resolved.use_case_by_name
    first = use_cases.get(uc.name) is uc  # only the declaration its name means files raise sites and handlers
    bind = partial(_bind, resolved, diags)

    def bind_exception(ref: ExceptionRef) -> None:
        exceptions = resolved.exception_by_qualified_name
        bind(ref, exceptions, ref.qualified_name, "E004", "exception '{}' is not defined in the header", ref.span)

    def index_labels() -> None:
        if not labels:
            labels.update((step.label.text, step) for step in reversed(uc.all_steps()))

    def bind_sequence(owner: Scenario | ExtensionBlock, steps: list[Step], anchored: list[Step]) -> None:
        """Bind the mode switches of a scenario or block, then its steps, then
        its continue target."""
        for switch in (owner.entry_switch, owner.exit_switch):
            if switch is not None:
                bind(switch, resolved.mode_by_name, switch.mode, "E013", "mode '{}' is not declared", switch.span)
        block = owner if isinstance(owner, ExtensionBlock) else None
        for step in steps:
            payload = step.payload
            kind = type(payload)
            if kind is Invocation:
                target = bind(
                    step, use_cases, payload.target, "E003", "invoked use case '{}' is not defined", step.span
                )
                if target is not None:
                    invocations.append((step, target))
            elif kind is ExceptionRef:
                bind_exception(payload)
                if first:
                    sites = resolved.sites_by_exception.setdefault(payload.qualified_name, [])
                    sites.append(RaiseSite(uc, block, step, anchored))
            elif kind is ControlFlow:
                index_labels()
                goto, start, end = payload.goto, payload.repeat_from, payload.repeat_to
                if goto is not None:
                    bind(step, labels, goto.text, "E012", "goto target names no existing step: '{}'", step.span)
                if start is not None:
                    bind(step, labels, start.text, "E012", "repeat range start names no existing step: '{}'", step.span)
                # The step's binding holds the range start; the end is only checked.
                if end is not None and end != start and end.text not in labels:
                    message = f"repeat range end names no existing step: '{end.text}'"
                    diags.append(Diagnostic("E012", message, step.span))
        outcome, target = owner.outcome, owner.outcome.continue_target
        if target is not None:
            index_labels()
            bind(outcome, labels, target.text, "E012", "continue target names no existing step: '{}'", outcome.span)

    def bind_anchor(block: ExtensionBlock, parent: _Sequence) -> list[Step]:
        """Bind the block to its anchor step in the parent sequence and return
        the steps it is attached to: the anchor, or every step of an anchor
        range ``lo-hi`` (first occurrence per label), found by bisection."""
        label = block.label  # its anchor: the same fields less the last pair, the same text less the letter
        if not label.is_block_label():
            diags.append(
                Diagnostic(
                    "E012",
                    f"block label '{label.text}' does not end in a letter naming an anchor",
                    block.span,
                )
            )
            return []
        by_label, numbered = parent
        anchor = label.text[:-1]
        lo, hi, suffix = label
        ends = [str(lo), str(hi)] if hi is not None and len(suffix) == 1 else [anchor]
        if any(end not in by_label for end in ends):
            diags.append(
                Diagnostic(
                    "E012",
                    f"block anchor '{anchor}' names no existing step in its parent sequence",
                    block.span,
                )
            )
            return []
        first = resolved.bindings[id(block)] = by_label[ends[0]]
        if len(ends) == 1:
            return [first]
        return numbered[bisect_left(numbered, lo, key=_number) : bisect_right(numbered, hi, key=_number)]

    for ctx in uc.contexts:
        bind(ctx, use_cases, ctx.use_case, "E003", "context use case '{}' is not defined", ctx.use_case_span)
        bind_exception(ctx.exception)
        if uc.is_handler and first:
            resolved.handlers_by_exception.setdefault(ctx.exception.qualified_name, {})[uc.name] = None

    if uc.main:
        bind_sequence(uc.main, uc.main.steps, [])
    main_sequence = _index_sequence(uc.main.steps if uc.main else []) if uc.extensions else None
    pending = [(block, main_sequence) for block in reversed(uc.extensions)]
    while pending:
        block, parent = pending.pop()
        anchored = bind_anchor(block, parent)
        steps = block.steps()
        bind_sequence(block, steps, anchored)
        if nested := block.nested_blocks():
            sequence = _index_sequence(steps)
            pending.extend((child, sequence) for child in reversed(nested))


def closure(starts: Iterable[str], neighbours: Callable[[str], Iterable[str]]) -> set[str]:
    """Every name reachable from `starts` by repeatedly following
    `neighbours`, the starts included. Each name is expanded once, so the
    walk is linear in the edges it follows and terminates on cycles."""
    seen = set(starts)
    pending = list(seen)
    while pending:
        for name in neighbours(pending.pop()):
            if name not in seen:
                seen.add(name)
                pending.append(name)
    return seen


def reachable_use_cases(resolved: ResolvedModel, root: str) -> set[str]:
    """The use cases `root` invokes, directly or transitively, root included;
    empty set when the root is unknown. A name stands for the use case it
    resolves to (`use_case_by_name`). Terminates on cyclic graphs."""
    by_name = resolved.use_case_by_name
    if root not in by_name:
        return set()
    return closure([root], lambda name: (target.name for _, target in resolved.invocations_of(by_name[name])))
