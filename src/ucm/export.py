"""Serializers: summary tables (Markdown/CSV), canonical JSON interchange,
XMI, and DOT. All exporters are pure and byte-deterministic for equal models.
Each format has its own small writer: JSON comes out as `json.dumps(doc,
indent=2)` writes it and XMI as ElementTree writes it after `ET.indent`, byte
for byte, without either generic serializer.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .diagnostics import Diagnostic
from .lexer import IDENT_RE
from .model import (
    ActorRef,
    BlockKind,
    Condition,
    ControlFlow,
    ExceptionCategory,
    ExceptionDef,
    ExceptionRef,
    ExtensionBlock,
    HandlerContext,
    Interaction,
    Internal,
    InterruptRelation,
    Invocation,
    Level,
    MAX_BLOCK_DEPTH,
    MAX_DIGITS,
    Model,
    ModeDecl,
    ModeKind,
    ModeSwitch,
    Multiplicity,
    Outcome,
    OutcomeKind,
    Scenario,
    ServiceDecl,
    Step,
    StepKind,
    StepLabel,
    TIME_UNITS,
    Timeout,
    UseCase,
    amount_out_of_range,
    bound_out_of_range,
    non_string_char,
    too_many_digits,
)
from .resolver import ResolvedModel
from .spans import ZERO_SPAN

FORMAT_VERSION = 1
XMI_NS = "http://www.omg.org/XMI"
MODEL_NS = "http://ucm4iot/1.0"


@dataclass
class SummaryTable:
    """Presentation-neutral table; every row must match the column count."""

    columns: list[str]
    rows: list[list[str]]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row width {len(row)} != column count {len(self.columns)}")


def render_table(table: SummaryTable, format: str = "md") -> str:
    if format == "md":
        return _render_markdown(table)
    if format == "csv":
        return _render_csv(table)
    raise ValueError(f"unknown table format {format!r}")


def _md_cell(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def _render_markdown(table: SummaryTable) -> str:
    lines = [
        "| " + " | ".join(_md_cell(c) for c in table.columns) + " |",
        "| " + " | ".join("---" for _ in table.columns) + " |",
    ]
    for row in table.rows:
        lines.append("| " + " | ".join(_md_cell(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def _csv_field(text: str) -> str:
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or "\r" in text:
        return '"' + text + '"'
    return text


def _render_csv(table: SummaryTable) -> str:
    """CSV as the stdlib writer writes it with CRLF row ends and
    QUOTE_MINIMAL: a field is quoted if and only if it holds a comma, a
    double quote, CR or LF, inner double quotes are doubled, and a row that
    is one empty field is ``""``. Str operations scan the large path cells
    in C, where the stdlib writer inspects every character."""
    lines = []
    for row in (table.columns, *table.rows):
        line = ",".join(map(_csv_field, row))
        lines.append('""' if not line and len(row) == 1 else line)
    return "\r\n".join(lines) + "\r\n"


# -- canonical JSON -----------------------------------------------------------
#
# Document layout (formatVersion 1), keys always in this order:
#   formatVersion, name, modes, exceptions, services, usecases
#   mode:      name, kind, default, offers
#   exception: category, name, global
#   service:   name, provides
#   usecase:   name, handler, scope, level, intention, multiplicity,
#              primary, secondary, facilitator, precondition, postcondition,
#              contexts, main, extensions
#   actor:     category, name, multiplicity{lower, upper}
#   context:   usecase, exception{category, name}, relation
#   scenario:  entryModeSwitch, steps, exitModeSwitch, outcome
#   step:      node="step", label, kind, then payload keys
#   block:     node="block", label, kind, guard, entryModeSwitch, body,
#              exitModeSwitch, outcome
#   outcome:   kind, continueTarget


def export_json(resolved: ResolvedModel | Model) -> str:
    model = resolved.model if isinstance(resolved, ResolvedModel) else resolved
    doc = {
        "formatVersion": FORMAT_VERSION,
        "name": model.name,
        "modes": [
            {"name": m.name, "kind": m.kind.value, "default": m.is_default, "offers": list(m.offered_services)}
            for m in model.modes
        ],
        "exceptions": [
            {"category": e.category.value, "name": e.name, "global": e.is_global}
            for e in model.exceptions
        ],
        "services": [{"name": s.name, "provides": list(s.goals)} for s in model.services],
        "usecases": [_usecase_to_json(uc) for uc in model.use_cases],
    }
    return dump_json(doc) + "\n"


def dump_json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)` for a value built of dicts with str keys,
    lists, strs, ints, floats, bools and None. Any `indent` sends `json.dumps`
    down a pure-Python path; this writer quotes strings with the same C
    function and leaves only numbers to `json.dumps`."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        inner = indent + "  "
        items = [encode_basestring_ascii(k) + ": " + dump_json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, list):
        inner = indent + "  "
        items = [dump_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    return json.dumps(value)  # a number


def _actor_to_json(ref: ActorRef) -> dict:
    return {
        "category": ref.category,
        "name": ref.name,
        "multiplicity": None
        if ref.multiplicity is None
        else {"lower": ref.multiplicity.lower, "upper": ref.multiplicity.upper},
    }


def _outcome_to_json(outcome: Outcome) -> dict:
    return {
        "kind": outcome.kind.value,
        "continueTarget": outcome.continue_target.text if outcome.continue_target else None,
    }


def _step_to_json(step: Step) -> dict:
    doc: dict = {"node": "step", "label": step.label.text, "kind": step.kind.value}
    payload = step.payload
    if isinstance(payload, Interaction):
        doc.update(source=payload.source, target=payload.target, message=payload.message)
    elif isinstance(payload, Invocation):
        doc.update(target=payload.target)
    elif isinstance(payload, Condition):
        doc.update(text=payload.text)
    elif isinstance(payload, Internal):
        doc.update(
            description=payload.description,
            timeout=None
            if payload.timeout is None
            else {"amount": payload.timeout.amount, "unit": payload.timeout.unit},
        )
    elif isinstance(payload, ControlFlow):
        doc.update(
            goto=payload.goto.text if payload.goto else None,
            repeatFrom=payload.repeat_from.text if payload.repeat_from else None,
            repeatTo=payload.repeat_to.text if payload.repeat_to else None,
        )
    elif isinstance(payload, ExceptionRef):
        doc.update(exception={"category": payload.category.value, "name": payload.name})
    return doc


def _block_to_json(block: ExtensionBlock) -> dict:
    return {
        "node": "block",
        "label": block.label.text,
        "kind": block.kind.value,
        "guard": block.guard,
        "entryModeSwitch": block.entry_switch.mode if block.entry_switch else None,
        "body": [
            _step_to_json(item) if isinstance(item, Step) else _block_to_json(item)
            for item in block.body
        ],
        "exitModeSwitch": block.exit_switch.mode if block.exit_switch else None,
        "outcome": _outcome_to_json(block.outcome),
    }


def _scenario_to_json(scenario: Scenario) -> dict:
    return {
        "entryModeSwitch": scenario.entry_switch.mode if scenario.entry_switch else None,
        "steps": [_step_to_json(s) for s in scenario.steps],
        "exitModeSwitch": scenario.exit_switch.mode if scenario.exit_switch else None,
        "outcome": _outcome_to_json(scenario.outcome),
    }


def _usecase_to_json(uc: UseCase) -> dict:
    return {
        "name": uc.name,
        "handler": uc.is_handler,
        "scope": uc.scope,
        "level": uc.level.value if uc.level else None,
        "intention": uc.intention,
        "multiplicity": uc.multiplicity_text,
        "primary": [_actor_to_json(a) for a in uc.primary_actors],
        "secondary": [_actor_to_json(a) for a in uc.secondary_actors],
        "facilitator": [_actor_to_json(a) for a in uc.facilitator_actors],
        "precondition": uc.precondition,
        "postcondition": uc.postcondition,
        "contexts": [
            {
                "usecase": ctx.use_case,
                "exception": {"category": ctx.exception.category.value, "name": ctx.exception.name},
                "relation": ctx.relation.value,
            }
            for ctx in uc.contexts
        ],
        "main": _scenario_to_json(uc.main) if uc.main else None,
        "extensions": [_block_to_json(b) for b in uc.extensions],
    }


class _SchemaError(Exception):
    pass


# Kinds of `_need` leaf that no Python type names, and the JSON type of
# every kind that is not an Enum class or a tuple of words.
_IDENT = "identifier"
_IDENTS = "list of identifiers"
_JSON_TYPES = {
    bool: bool, int: int, float: (int, float), dict: dict, list: list, str: str, _IDENT: str, _IDENTS: list,
    StepLabel: str,
}


def _need(doc, key: str, kind, where: str, optional: bool = False):
    """The value of `key` in the JSON object `doc`, held to the rule `.ucm`
    text obeys at the same place; with `optional`, null reads as None. Kinds:
    `bool`; `int`, and `float` for any number, neither taking a bool; `dict`;
    `list`; `str`, which holds no `non_string_char`; `_IDENT`, a str the lexer
    reads as one IDENT token (`IDENT_RE`); `_IDENTS`, a list of those;
    `StepLabel`, text `StepLabel.parse` reads, no `too_many_digits`; an `Enum`
    class, by value; a tuple of words, such as `TIME_UNITS`."""
    if not isinstance(doc, dict) or key not in doc:
        raise _SchemaError(f"missing key '{key}' in {where}")
    value = doc[key]
    if value is None and optional:
        return None
    if isinstance(kind, tuple):
        if value not in kind:
            raise _SchemaError(f"unknown {where} {key} {value!r}")
        return value
    if kind not in _JSON_TYPES:
        try:
            return kind(value)
        except ValueError:
            raise _SchemaError(f"unknown {where} {key} {value!r}") from None
    what = f"key '{key}' in {where}"
    if not isinstance(value, _JSON_TYPES[kind]) or (isinstance(value, bool) and kind is not bool):
        raise _SchemaError(f"{what} has unexpected type {type(value).__name__}")
    if kind is StepLabel:
        if too_many_digits(value):
            raise _SchemaError(f"{key} in {where} has a number with more than {MAX_DIGITS} digits")
        label = StepLabel.parse(value)
        if label is None:
            raise _SchemaError(f"malformed {key} {value!r} in {where}")
        return label
    if kind is _IDENTS:
        for name in value:
            if not (isinstance(name, str) and IDENT_RE.fullmatch(name)):
                raise _SchemaError(f"{what} holds {name!r}, which is not an identifier")
    elif kind is str or kind is _IDENT:
        if found := non_string_char(value):
            raise _SchemaError(f"{what}: {found[1]}")
        if kind is _IDENT and not IDENT_RE.fullmatch(value):
            raise _SchemaError(f"{what} is not an identifier: {value!r}")
    return value


def import_json(document: str) -> tuple[Model | None, list[Diagnostic]]:
    """Rebuild a model from export_json output; spans come back zero-length.
    It accepts exactly the models `.ucm` text can write: a schema violation,
    a value the parser would reject or an unknown format version yields an
    E000 diagnostic and no model."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as err:
        return None, [Diagnostic("E000", f"document is not valid JSON: {err.msg}", ZERO_SPAN)]
    except ValueError:  # an integer past Python's limit on digits converted from str
        return None, [Diagnostic("E000", "document holds an integer too long to decode", ZERO_SPAN)]
    except RecursionError:  # the decoder recurses once per array or object level
        return None, [Diagnostic("E000", "document nests too deeply to decode", ZERO_SPAN)]
    try:
        if not isinstance(doc, dict):
            raise _SchemaError("top-level value is not an object")
        version = _need(doc, "formatVersion", int, "document")
        if version != FORMAT_VERSION:
            raise _SchemaError(f"unsupported formatVersion {version}, expected {FORMAT_VERSION}")
        model = _model_from_json(doc)
    except _SchemaError as err:
        return None, [Diagnostic("E000", str(err), ZERO_SPAN)]
    return model, []


def _model_from_json(doc: dict) -> Model:
    modes = [
        ModeDecl(
            _need(m, "name", _IDENT, "mode"),
            _need(m, "kind", ModeKind, "mode"),
            _need(m, "default", bool, "mode"),
            _need(m, "offers", _IDENTS, "mode"),
            ZERO_SPAN,
        )
        for m in _need(doc, "modes", list, "document")
    ]
    exceptions = [
        ExceptionDef(
            _need(e, "category", ExceptionCategory, "exception"),
            _need(e, "name", _IDENT, "exception"),
            _need(e, "global", bool, "exception"),
            ZERO_SPAN,
        )
        for e in _need(doc, "exceptions", list, "document")
    ]
    services = []
    for s in _need(doc, "services", list, "document"):
        name = _need(s, "name", _IDENT, "service")
        goals = _need(s, "provides", _IDENTS, "service")
        if not goals:  # `provides` takes one name or more
            raise _SchemaError("key 'provides' in service is an empty list")
        services.append(ServiceDecl(name, goals, ZERO_SPAN))
    use_cases = [_usecase_from_json(u) for u in _need(doc, "usecases", list, "document")]
    return Model(
        _need(doc, "name", _IDENT, "document"), modes, exceptions, services, use_cases, ZERO_SPAN, "<json>"
    )


def _actor_from_json(doc) -> ActorRef:
    category = _need(doc, "category", _IDENT, "actor", optional=True)
    mult_doc = _need(doc, "multiplicity", dict, "actor", optional=True)
    multiplicity = None
    if mult_doc is not None:
        lower = _need(mult_doc, "lower", int, "multiplicity")
        upper = _need(mult_doc, "upper", int, "multiplicity", optional=True)
        for which, bound in (("lower", lower), ("upper", upper)):
            if bound is not None and bound_out_of_range(bound):
                raise _SchemaError(f"multiplicity {which} bound is negative or has more than {MAX_DIGITS} digits")
        multiplicity = Multiplicity(lower, upper)
    return ActorRef(category, _need(doc, "name", _IDENT, "actor"), multiplicity, ZERO_SPAN)


def _outcome_from_json(doc) -> Outcome:
    kind = _need(doc, "kind", OutcomeKind, "outcome")
    target = _need(doc, "continueTarget", StepLabel, "outcome", optional=True)
    if (kind is OutcomeKind.CONTINUE) != (target is not None):  # text names a target after `continue` only
        raise _SchemaError(f"{kind.value} outcome {'lacks its' if target is None else 'has a'} continueTarget")
    return Outcome(kind, target, ZERO_SPAN)


def _switches_from_json(doc, where: str, items: list) -> tuple[ModeSwitch | None, ModeSwitch | None]:
    """The entry and exit mode switches of a scenario or block whose steps
    or body are `items`. Text reads a lone switch before the outcome of an
    empty body as the entry, so an exit switch alone cannot be written there."""
    entry = _need(doc, "entryModeSwitch", _IDENT, where, optional=True)
    exit_name = _need(doc, "exitModeSwitch", _IDENT, where, optional=True)
    if entry is None and exit_name is not None and not items:
        raise _SchemaError(f"{where} without steps has an exitModeSwitch but no entryModeSwitch")
    return tuple(None if name is None else ModeSwitch(name, ZERO_SPAN) for name in (entry, exit_name))


def _exception_ref_from_json(doc, where: str) -> ExceptionRef:
    exc = _need(doc, "exception", dict, where)
    where += " exception"
    category = _need(exc, "category", ExceptionCategory, where)
    return ExceptionRef(category, _need(exc, "name", _IDENT, where), ZERO_SPAN)


def _step_from_json(doc) -> Step:
    label = _need(doc, "label", StepLabel, "step")
    kind = _need(doc, "kind", StepKind, "step")
    if kind is StepKind.INTERACTION:
        payload: object = Interaction(
            _need(doc, "source", _IDENT, "step"),
            _need(doc, "target", _IDENT, "step"),
            _need(doc, "message", str, "step"),
        )
    elif kind is StepKind.INVOCATION:
        payload = Invocation(_need(doc, "target", _IDENT, "step"))
    elif kind is StepKind.CONDITION:
        payload = Condition(_need(doc, "text", str, "step"))
    elif kind is StepKind.INTERNAL:
        timeout_doc = _need(doc, "timeout", dict, "step", optional=True)
        timeout = None
        if timeout_doc is not None:
            amount = _need(timeout_doc, "amount", float, "timeout")
            if not 0 < amount <= sys.float_info.max:  # NaN fails too; ints compare exactly
                raise _SchemaError("timeout amount is not positive and finite")
            if amount_out_of_range(float(amount)):
                raise _SchemaError(f"timeout amount {amount!r} needs more than {MAX_DIGITS} digits a side")
            timeout = Timeout(float(amount), _need(timeout_doc, "unit", TIME_UNITS, "timeout"))
        payload = Internal(_need(doc, "description", str, "step"), timeout)
    elif kind is StepKind.CONTROL_FLOW:
        goto = _need(doc, "goto", StepLabel, "step", optional=True)
        lo = _need(doc, "repeatFrom", StepLabel, "step", optional=True)
        hi = _need(doc, "repeatTo", StepLabel, "step", optional=True)
        if goto is not None and lo is None and hi is None:
            payload = ControlFlow(goto, None, None)
        elif goto is None and lo is not None and hi is not None:
            for key, bound in (("repeatFrom", lo), ("repeatTo", hi)):  # as the parser's `repeat 2-4`
                if bound.anchor_hi is not None or bound.suffix:
                    raise _SchemaError(f"{key} {bound.text!r} is not a plain step number")
            payload = ControlFlow(None, lo, hi)
        else:
            raise _SchemaError("control-flow step must set either goto or both repeatFrom and repeatTo")
    else:
        payload = _exception_ref_from_json(doc, "step")
    return Step(label, payload, ZERO_SPAN)


def _block_from_json(doc, depth: int = 1) -> ExtensionBlock:
    if depth > MAX_BLOCK_DEPTH:
        raise _SchemaError(f"block nested deeper than {MAX_BLOCK_DEPTH} levels")
    body: list[Step | ExtensionBlock] = [
        _step_from_json(item)
        if _need(item, "node", ("step", "block"), "block body item") == "step"
        else _block_from_json(item, depth + 1)
        for item in _need(doc, "body", list, "block")
    ]
    return ExtensionBlock(
        _need(doc, "label", StepLabel, "block"),
        _need(doc, "kind", BlockKind, "block"),
        _need(doc, "guard", str, "block"),
        body,
        *_switches_from_json(doc, "block", body),
        _outcome_from_json(_need(doc, "outcome", dict, "block")),
        ZERO_SPAN,
    )


def _scenario_from_json(doc) -> Scenario:
    steps = [_step_from_json(s) for s in _need(doc, "steps", list, "scenario")]
    entry, exit_switch = _switches_from_json(doc, "scenario", steps)
    outcome = _outcome_from_json(_need(doc, "outcome", dict, "scenario"))
    return Scenario(entry, steps, exit_switch, outcome, ZERO_SPAN)


def _usecase_from_json(doc) -> UseCase:
    contexts = [
        HandlerContext(
            _need(c, "usecase", _IDENT, "context"),
            ZERO_SPAN,
            _exception_ref_from_json(c, "context"),
            _need(c, "relation", InterruptRelation, "context"),
            ZERO_SPAN,
        )
        for c in _need(doc, "contexts", list, "usecase")
    ]
    main_doc = _need(doc, "main", dict, "usecase", optional=True)
    return UseCase(
        name=_need(doc, "name", _IDENT, "usecase"),
        is_handler=_need(doc, "handler", bool, "usecase"),
        scope=_need(doc, "scope", str, "usecase", optional=True),
        level=_need(doc, "level", Level, "usecase", optional=True),
        intention=_need(doc, "intention", str, "usecase", optional=True),
        multiplicity_text=_need(doc, "multiplicity", str, "usecase", optional=True),
        primary_actors=[_actor_from_json(a) for a in _need(doc, "primary", list, "usecase")],
        secondary_actors=[_actor_from_json(a) for a in _need(doc, "secondary", list, "usecase")],
        facilitator_actors=[_actor_from_json(a) for a in _need(doc, "facilitator", list, "usecase")],
        precondition=_need(doc, "precondition", str, "usecase", optional=True),
        postcondition=_need(doc, "postcondition", str, "usecase", optional=True),
        contexts=contexts,
        main=_scenario_from_json(main_doc) if main_doc is not None else None,
        extensions=[_block_from_json(b) for b in _need(doc, "extensions", list, "usecase")],
        span=ZERO_SPAN,
        name_span=ZERO_SPAN,
    )


# -- XMI -----------------------------------------------------------------------


# An XMI element: its tag and attribute names with their namespace prefixes
# written in, its attributes in document order, and its children.
_Element = tuple[str, dict[str, str], list]


def export_xmi(resolved: ResolvedModel) -> str:
    """Flat element-per-class XMI 2.0 document with xmi:id cross-references.

    Element classes: Mode, Exception, Service, Actor, UseCase, Handler,
    Step, ExtensionBlock; containment follows the model structure and all
    cross-references use idrefs. Output is deterministic.
    """
    model = resolved.model
    elements: list[_Element] = []
    model_el = ("ucm:Model", {"xmi:id": "model_1", "name": model.name}, elements)
    root = ("xmi:XMI", {"xmlns:ucm": MODEL_NS, "xmlns:xmi": XMI_NS, "xmi:version": "2.0"}, [model_el])

    # Each definition's xmi:id by its position, keyed by id() of the node. A
    # reference names the node the resolver bound it to: the first definition
    # of a duplicated name, as every other command reads it.
    ids: dict[int, str] = {}
    for prefix, nodes in (
        ("mode", model.modes), ("exception", model.exceptions), ("service", model.services), ("usecase", model.use_cases)
    ):
        ids.update((id(node), f"{prefix}_{i}") for i, node in enumerate(nodes, 1))
    actor_ids: dict[tuple[str, str], str] = {}

    def set_refs(attrs: dict, name: str, *nodes: object | None) -> None:
        """Set `name` to the xmi:ids of `nodes`, skipping None (unbound)."""
        if refs := [ids[id(node)] for node in nodes if node is not None]:
            attrs[name] = " ".join(refs)

    for mode in model.modes:
        attrs = {
            "xmi:id": ids[id(mode)],
            "name": mode.name,
            "kind": mode.kind.value,
            "default": "true" if mode.is_default else "false",
        }
        set_refs(attrs, "offers", *map(resolved.service_by_name.get, mode.offered_services))
        elements.append(("ucm:Mode", attrs, []))

    for exc in model.exceptions:
        attrs = {
            "xmi:id": ids[id(exc)],
            "category": exc.category.value,
            "name": exc.name,
            "global": "true" if exc.is_global else "false",
        }
        elements.append(("ucm:Exception", attrs, []))

    for svc in model.services:
        attrs = {"xmi:id": ids[id(svc)], "name": svc.name}
        set_refs(attrs, "provides", *map(resolved.use_case_by_name.get, svc.goals))
        elements.append(("ucm:Service", attrs, []))

    for uc in model.use_cases:
        for ref in uc.all_actors():
            key = (ref.category or "", ref.name)
            if key not in actor_ids:
                actor_ids[key] = f"actor_{len(actor_ids) + 1}"
                attrs = {"xmi:id": actor_ids[key], "name": ref.name}
                if ref.category:
                    attrs["category"] = ref.category
                elements.append(("ucm:Actor", attrs, []))

    step_counter = [0]

    def step_element(step: Step) -> _Element:
        step_counter[0] += 1
        attrs = {
            "xmi:id": f"step_{step_counter[0]}",
            "label": step.label.text,
            "kind": step.kind.value,
        }
        payload = step.payload
        if isinstance(payload, Interaction):
            attrs.update(source=payload.source, target=payload.target, message=payload.message)
        elif isinstance(payload, Invocation):
            set_refs(attrs, "invokes", resolved.binding_for(step))
            attrs["targetName"] = payload.target
        elif isinstance(payload, Condition):
            attrs["text"] = payload.text
        elif isinstance(payload, Internal):
            attrs["description"] = payload.description
            if payload.timeout is not None:
                attrs["timeoutAmount"] = _format_amount(payload.timeout.amount)
                attrs["timeoutUnit"] = payload.timeout.unit
        elif isinstance(payload, ControlFlow):
            if payload.goto is not None:
                attrs["goto"] = payload.goto.text
            if payload.repeat_from is not None:
                attrs["repeatFrom"] = payload.repeat_from.text
            if payload.repeat_to is not None:
                attrs["repeatTo"] = payload.repeat_to.text
        elif isinstance(payload, ExceptionRef):
            set_refs(attrs, "raises", resolved.binding_for(payload))
            attrs["exceptionName"] = payload.qualified_name
        return ("ucm:Step", attrs, [])

    block_counter = [0]

    def block_element(block: ExtensionBlock) -> _Element:
        block_counter[0] += 1
        attrs = {
            "xmi:id": f"block_{block_counter[0]}",
            "label": block.label.text,
            "kind": block.kind.value,
        }
        if block.guard:
            attrs["guard"] = block.guard
        _boundary_attrs(attrs, block)
        body = [step_element(item) if isinstance(item, Step) else block_element(item) for item in block.body]
        return ("ucm:ExtensionBlock", attrs, body)

    def _boundary_attrs(attrs: dict, owner: Scenario | ExtensionBlock) -> dict:
        set_refs(attrs, "entryMode", resolved.binding_for(owner.entry_switch))
        set_refs(attrs, "exitMode", resolved.binding_for(owner.exit_switch))
        attrs["outcome"] = owner.outcome.kind.value
        if owner.outcome.continue_target is not None:
            attrs["continueTarget"] = owner.outcome.continue_target.text
        return attrs

    for uc in model.use_cases:
        tag = "Handler" if uc.is_handler else "UseCase"
        attrs = {"xmi:id": ids[id(uc)], "name": uc.name}
        if uc.level is not None:
            attrs["level"] = uc.level.value
        for field_name, value in (
            ("scope", uc.scope),
            ("intention", uc.intention),
            ("multiplicity", uc.multiplicity_text),
            ("precondition", uc.precondition),
            ("postcondition", uc.postcondition),
        ):
            if value is not None:
                attrs[field_name] = value
        children: list[_Element] = []
        for role, refs in (
            ("primary", uc.primary_actors),
            ("secondary", uc.secondary_actors),
            ("facilitator", uc.facilitator_actors),
        ):
            for ref in refs:
                ref_attrs = {"role": role, "actor": actor_ids[(ref.category or "", ref.name)]}
                if ref.multiplicity is not None:
                    ref_attrs["lower"] = str(ref.multiplicity.lower)
                    ref_attrs["upper"] = "*" if ref.multiplicity.upper is None else str(ref.multiplicity.upper)
                children.append(("ucm:ActorRef", ref_attrs, []))

        for ctx in uc.contexts:
            ctx_attrs = {"relation": ctx.relation.value}
            set_refs(ctx_attrs, "contextUseCase", resolved.binding_for(ctx))
            ctx_attrs["contextName"] = ctx.use_case
            set_refs(ctx_attrs, "exception", resolved.binding_for(ctx.exception))
            ctx_attrs["exceptionName"] = ctx.exception.qualified_name
            children.append(("ucm:Context", ctx_attrs, []))

        if uc.main is not None:
            main_attrs = _boundary_attrs({}, uc.main)
            children.append(("ucm:MainScenario", main_attrs, [step_element(step) for step in uc.main.steps]))
        children.extend(block_element(block) for block in uc.extensions)
        elements.append((f"ucm:{tag}", attrs, children))

    lines = ["<?xml version='1.0' encoding='utf-8'?>"]
    _write_element(root, "", lines)
    return "\n".join(lines) + "\n"


def _write_element(element: _Element, indent: str, lines: list[str]) -> None:
    """Append one line per tag, as ElementTree writes the element after
    `ET.indent(tree, space="  ")`: attribute values escaped by its rule,
    children two spaces in, an element without children closed by ` />`."""
    tag, attrs, children = element
    values = "".join(attrs.values())
    if _escape_attrib(values) != values:  # one test per element: values rarely need escaping
        attrs = {name: _escape_attrib(value) for name, value in attrs.items()}
    head = indent + "<" + tag + "".join([f' {name}="{value}"' for name, value in attrs.items()])
    if not children:
        lines.append(head + " />")
        return
    lines.append(head + ">")
    for child in children:
        _write_element(child, indent + "  ", lines)
    lines.append(indent + "</" + tag + ">")


# ElementTree's escapes in an attribute value, `&` first.
_ATTRIB_ESCAPES = (
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"), ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;")
)


def _escape_attrib(text: str) -> str:
    for char, reference in _ATTRIB_ESCAPES:
        text = text.replace(char, reference)
    return text


def _format_amount(amount: float) -> str:
    return str(int(amount)) if amount == int(amount) else str(amount)


# -- DOT ------------------------------------------------------------------------


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(resolved: ResolvedModel) -> str:
    """Directed graph of the model: use cases as ellipses, handlers as dashed
    ellipses, actors as boxes tied to their use cases, invocation edges
    tagged <<include>>, and handler edges tagged with the interrupt relation.
    """
    model = resolved.model
    lines = [f"digraph {_dot_quote(model.name)} {{", "  rankdir=LR;"]

    for uc in model.use_cases:
        style = ", style=dashed" if uc.is_handler else ""
        lines.append(f"  {_dot_quote(uc.name)} [shape=ellipse{style}];")

    seen_actors: set[str] = set()
    for uc in model.use_cases:
        for ref in uc.all_actors():
            if ref.qualified_name not in seen_actors:
                seen_actors.add(ref.qualified_name)
                lines.append(f"  {_dot_quote(ref.qualified_name)} [shape=box];")

    for uc in model.use_cases:
        for ref in uc.all_actors():
            lines.append(
                f"  {_dot_quote(ref.qualified_name)} -> {_dot_quote(uc.name)} [arrowhead=none];"
            )

    for uc in model.use_cases:
        for step in uc.all_steps():
            if isinstance(step.payload, Invocation):
                lines.append(
                    f"  {_dot_quote(uc.name)} -> {_dot_quote(step.payload.target)}"
                    ' [label="<<include>>"];'
                )

    for uc in model.use_cases:
        if not uc.is_handler:
            continue
        for ctx in uc.contexts:
            relation = "interrupt & continue" if ctx.relation is InterruptRelation.CONTINUE else "interrupt & fail"
            lines.append(
                f"  {_dot_quote(uc.name)} -> {_dot_quote(ctx.use_case)}"
                f' [label="<<{relation}>>", style=dashed];'
            )

    lines.append("}")
    return "\n".join(lines) + "\n"
