"""Name resolution: symbol tables and reference bindings over a parsed model.

Resolution never aborts; every unresolvable reference or duplicate
definition becomes one diagnostic (E003, E004, E012, E013, E014) and all
resolvable references are bound regardless.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, sort_diagnostics
from .model import (
    ActorRef,
    ExceptionDef,
    ExceptionRef,
    ExtensionBlock,
    Invocation,
    Model,
    ModeDecl,
    ModeSwitch,
    ControlFlow,
    Outcome,
    Scenario,
    ServiceDecl,
    Step,
    StepLabel,
    UseCase,
)
from .spans import SourceSpan


@dataclass
class RaiseSite:
    """One occurrence of an exception: a raise step with its surroundings."""

    use_case: UseCase
    block: ExtensionBlock | None  # None when raised in the main scenario
    step: Step
    anchored_steps: list[Step]  # parent-sequence steps the block hangs off

    @property
    def exception(self) -> ExceptionRef:
        assert isinstance(self.step.payload, ExceptionRef)
        return self.step.payload


@dataclass
class ResolvedModel:
    """A model plus lookup tables, one binding per resolvable reference, and
    the raise sites, handlers and invocation adjacency the resolver met on
    its walk.

    Bindings are keyed by ``id()`` of the node that carries the reference: an
    invocation or control-flow step, an exception reference, a mode switch,
    a continue outcome, a block (its anchor) or a handler context (its use
    case). Immutable by convention after resolve(); safe to share across
    readers.

    `sites_by_exception` maps a qualified exception name to its raise sites
    in document order, and `handlers_by_exception` to the distinct handlers
    whose contexts name it, in document order (as dict keys).
    """

    model: Model
    use_case_by_name: dict[str, UseCase] = field(default_factory=dict)
    exception_by_qualified_name: dict[str, ExceptionDef] = field(default_factory=dict)
    mode_by_name: dict[str, ModeDecl] = field(default_factory=dict)
    service_by_name: dict[str, ServiceDecl] = field(default_factory=dict)
    bindings: dict[int, object] = field(default_factory=dict)
    sites_by_exception: dict[str, list[RaiseSite]] = field(default_factory=dict)
    handlers_by_exception: dict[str, dict[str, None]] = field(default_factory=dict)
    _raise_sites: list[RaiseSite] = field(default_factory=list)
    _invocations: dict[int, list[tuple[Step, UseCase]]] = field(default_factory=dict)

    def binding_for(self, node: object) -> object | None:
        return self.bindings.get(id(node))

    def raise_sites(self) -> list[RaiseSite]:
        """Every raise step, bound or not, in document order per use case."""
        return self._raise_sites

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


def _collect_definitions(resolved: ResolvedModel, diags: list[Diagnostic]) -> None:
    ast = resolved.model
    default_seen: ModeDecl | None = None
    for mode in ast.modes:
        if mode.name in resolved.mode_by_name:
            diags.append(_duplicate("mode", mode.name, mode.span, resolved.mode_by_name[mode.name].span))
        else:
            resolved.mode_by_name[mode.name] = mode
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
        if exc.name in plain_names:
            diags.append(_duplicate("exception", exc.name, exc.span, plain_names[exc.name].span))
            continue
        plain_names[exc.name] = exc
        resolved.exception_by_qualified_name[exc.qualified_name] = exc

    for svc in ast.services:
        if svc.name in resolved.service_by_name:
            diags.append(_duplicate("service", svc.name, svc.span, resolved.service_by_name[svc.name].span))
        else:
            resolved.service_by_name[svc.name] = svc

    for uc in ast.use_cases:
        if uc.name in resolved.use_case_by_name:
            diags.append(_duplicate("use case", uc.name, uc.name_span, resolved.use_case_by_name[uc.name].name_span))
        else:
            resolved.use_case_by_name[uc.name] = uc


def _collect_actors(resolved: ResolvedModel, diags: list[Diagnostic]) -> None:
    """Actors are global entities identified by (category, name); reusing a
    name under a different category is a duplicate definition."""
    first_category: dict[str, ActorRef] = {}
    for uc in resolved.model.use_cases:
        for ref in uc.all_actors():
            if ref.category is None:
                continue
            prior = first_category.get(ref.name)
            if prior is None:
                first_category[ref.name] = ref
            elif prior.category != ref.category:
                diags.append(
                    Diagnostic(
                        "E014",
                        f"actor '{ref.name}' redeclared as {ref.category} but previously {prior.category}",
                        ref.span,
                        related=[(prior.span, f"first declared as {prior.qualified_name}")],
                    )
                )


def _duplicate(what: str, name: str, span: SourceSpan, first: SourceSpan) -> Diagnostic:
    return Diagnostic(
        "E014",
        f"duplicate {what} '{name}'",
        span,
        related=[(first, "first definition")],
    )


# A parent sequence as block anchors read it: the first step per label text,
# then the plain-integer labels among those in ascending order, and their steps.
_Sequence = tuple[dict[str, Step], list[int], list[Step]]


def _index_sequence(steps: list[Step]) -> _Sequence:
    by_label: dict[str, Step] = {}
    for step in steps:
        by_label.setdefault(step.label.text, step)
    numbered = sorted(
        (s for s in by_label.values() if s.label.anchor_hi is None and not s.label.suffix),
        key=lambda s: s.label.anchor_lo,
    )
    return by_label, [s.label.anchor_lo for s in numbered], numbered


def _bind_use_case(resolved: ResolvedModel, uc: UseCase, diags: list[Diagnostic]) -> None:
    label_index = {step.label.text: step for step in reversed(uc.all_steps())}
    invocations = resolved._invocations[id(uc)] = []

    def bind_exception(ref: ExceptionRef) -> None:
        target = resolved.exception_by_qualified_name.get(ref.qualified_name)
        if target is None:
            diags.append(
                Diagnostic(
                    "E004",
                    f"exception '{ref.qualified_name}' is not defined in the header",
                    ref.span,
                )
            )
        else:
            resolved.bindings[id(ref)] = target

    def bind_mode(switch: ModeSwitch | None) -> None:
        if switch is None:
            return
        target = resolved.mode_by_name.get(switch.mode)
        if target is None:
            diags.append(Diagnostic("E013", f"mode '{switch.mode}' is not declared", switch.span))
        else:
            resolved.bindings[id(switch)] = target

    def bind_step_ref(node: Step | Outcome, label: StepLabel, what: str) -> None:
        target = label_index.get(label.text)
        if target is None:
            diags.append(Diagnostic("E012", f"{what} names no existing step: '{label.text}'", node.span))
        else:
            resolved.bindings[id(node)] = target

    def bind_steps(steps: list[Step], block: ExtensionBlock | None, anchored: list[Step]) -> None:
        for step in steps:
            payload = step.payload
            if isinstance(payload, Invocation):
                target = resolved.use_case_by_name.get(payload.target)
                if target is None:
                    diags.append(
                        Diagnostic("E003", f"invoked use case '{payload.target}' is not defined", step.span)
                    )
                else:
                    resolved.bindings[id(step)] = target
                    invocations.append((step, target))
            elif isinstance(payload, ExceptionRef):
                bind_exception(payload)
                site = RaiseSite(uc, block, step, anchored)
                resolved._raise_sites.append(site)
                resolved.sites_by_exception.setdefault(payload.qualified_name, []).append(site)
            elif isinstance(payload, ControlFlow):
                if payload.goto is not None:
                    bind_step_ref(step, payload.goto, "goto target")
                if payload.repeat_from is not None:
                    bind_step_ref(step, payload.repeat_from, "repeat range start")
                if payload.repeat_to is not None and payload.repeat_to != payload.repeat_from:
                    if payload.repeat_to.text not in label_index:
                        diags.append(
                            Diagnostic(
                                "E012",
                                f"repeat range end names no existing step: '{payload.repeat_to.text}'",
                                step.span,
                            )
                        )

    def bind_outcome(scenario_or_block: Scenario | ExtensionBlock) -> None:
        outcome = scenario_or_block.outcome
        if outcome.continue_target is not None:
            bind_step_ref(outcome, outcome.continue_target, "continue target")

    def bind_anchor(block: ExtensionBlock, parent: _Sequence) -> list[Step]:
        """Bind the block to its anchor step in the parent sequence and return
        the steps it is attached to: the anchor, or every step of an anchor
        range ``lo-hi`` (first occurrence per label), found by bisection."""
        anchor = block.label.anchor_label()
        if anchor is None:
            diags.append(
                Diagnostic(
                    "E012",
                    f"block label '{block.label.text}' does not end in a letter naming an anchor",
                    block.span,
                )
            )
            return []
        by_label, numbers, numbered = parent
        if anchor.anchor_hi is not None and not anchor.suffix:
            ends = [str(anchor.anchor_lo), str(anchor.anchor_hi)]
        else:
            ends = [anchor.text]
        if any(end not in by_label for end in ends):
            diags.append(
                Diagnostic(
                    "E012",
                    f"block anchor '{anchor.text}' names no existing step in its parent sequence",
                    block.span,
                )
            )
            return []
        first = resolved.bindings[id(block)] = by_label[ends[0]]
        if len(ends) == 1:
            return [first]
        return numbered[bisect_left(numbers, anchor.anchor_lo) : bisect_right(numbers, anchor.anchor_hi)]

    for ctx in uc.contexts:
        target = resolved.use_case_by_name.get(ctx.use_case)
        if target is None:
            diags.append(
                Diagnostic("E003", f"context use case '{ctx.use_case}' is not defined", ctx.use_case_span)
            )
        else:
            resolved.bindings[id(ctx)] = target
        bind_exception(ctx.exception)
        if uc.is_handler:
            resolved.handlers_by_exception.setdefault(ctx.exception.qualified_name, {})[uc.name] = None

    if uc.main:
        bind_mode(uc.main.entry_switch)
        bind_mode(uc.main.exit_switch)
        bind_steps(uc.main.steps, None, [])
        bind_outcome(uc.main)
    main_sequence = _index_sequence(uc.main.steps if uc.main else [])
    pending = [(block, main_sequence) for block in reversed(uc.extensions)]
    while pending:
        block, parent = pending.pop()
        anchored = bind_anchor(block, parent)
        bind_mode(block.entry_switch)
        bind_mode(block.exit_switch)
        steps = block.steps()
        bind_steps(steps, block, anchored)
        bind_outcome(block)
        sequence = _index_sequence(steps)
        pending.extend((nested, sequence) for nested in reversed(block.nested_blocks()))


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
