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


def _need(doc, key: str, types, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise _SchemaError(f"missing key '{key}' in {where}")
    value = doc[key]
    if types is bool:
        if not isinstance(value, bool):
            raise _SchemaError(f"key '{key}' in {where} is not a boolean")
    elif types is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _SchemaError(f"key '{key}' in {where} is not an integer")
    elif types is not None and not isinstance(value, types):
        raise _SchemaError(f"key '{key}' in {where} has unexpected type {type(value).__name__}")
    if types is str and (found := non_string_char(value)):
        raise _SchemaError(f"key '{key}' in {where}: {found[1]}")
    return value


def _opt_str(doc, key: str, where: str) -> str | None:
    value = _need(doc, key, None, where)
    if value is not None and not isinstance(value, str):
        raise _SchemaError(f"key '{key}' in {where} is neither a string nor null")
    return value if value is None else _need(doc, key, str, where)  # checks the string's characters


def _enum_from(enum_cls, text: str, where: str):
    try:
        return enum_cls(text)
    except ValueError:
        raise _SchemaError(f"unknown {enum_cls.__name__} value {text!r} in {where}")


def _label_from(text, where: str) -> StepLabel:
    if not isinstance(text, str):
        raise _SchemaError(f"label in {where} is not a string")
    if too_many_digits(text):
        raise _SchemaError(f"label in {where} has a number with more than {MAX_DIGITS} digits")
    label = StepLabel.parse(text)
    if label is None:
        raise _SchemaError(f"malformed label {text!r} in {where}")
    return label


def _step_number(text: str, key: str) -> StepLabel:
    """A repeat bound: a plain step number, as in the parser's `repeat 2-4`."""
    label = _label_from(text, "step")
    if label.anchor_hi is not None or label.suffix:
        raise _SchemaError(f"{key} {text!r} is not a plain step number")
    return label


def import_json(document: str) -> tuple[Model | None, list[Diagnostic]]:
    """Rebuild a model from export_json output; spans come back zero-length.
    Schema violations and unknown format versions yield an E000 diagnostic
    and no model."""
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
            _need(m, "name", str, "mode"),
            _enum_from(ModeKind, _need(m, "kind", str, "mode"), "mode"),
            _need(m, "default", bool, "mode"),
            [str(s) for s in _need(m, "offers", list, "mode")],
            ZERO_SPAN,
        )
        for m in _need(doc, "modes", list, "document")
    ]
    exceptions = [
        ExceptionDef(
            _enum_from(ExceptionCategory, _need(e, "category", str, "exception"), "exception"),
            _need(e, "name", str, "exception"),
            _need(e, "global", bool, "exception"),
            ZERO_SPAN,
        )
        for e in _need(doc, "exceptions", list, "document")
    ]
    services = [
        ServiceDecl(
            _need(s, "name", str, "service"),
            [str(g) for g in _need(s, "provides", list, "service")],
            ZERO_SPAN,
        )
        for s in _need(doc, "services", list, "document")
    ]
    use_cases = [_usecase_from_json(u) for u in _need(doc, "usecases", list, "document")]
    return Model(
        _need(doc, "name", str, "document"), modes, exceptions, services, use_cases, ZERO_SPAN, "<json>"
    )


def _actor_from_json(doc) -> ActorRef:
    category = _opt_str(doc, "category", "actor")
    mult_doc = _need(doc, "multiplicity", None, "actor")
    multiplicity = None
    if mult_doc is not None:
        lower = _need(mult_doc, "lower", int, "multiplicity")
        upper = _need(mult_doc, "upper", None, "multiplicity")
        if upper is not None and (isinstance(upper, bool) or not isinstance(upper, int)):
            raise _SchemaError("multiplicity upper bound is neither an integer nor null")
        for which, bound in (("lower", lower), ("upper", upper)):
            if bound is not None and bound_out_of_range(bound):
                raise _SchemaError(f"multiplicity {which} bound is negative or has more than {MAX_DIGITS} digits")
        multiplicity = Multiplicity(lower, upper)
    return ActorRef(category, _need(doc, "name", str, "actor"), multiplicity, ZERO_SPAN)


def _outcome_from_json(doc) -> Outcome:
    kind = _enum_from(OutcomeKind, _need(doc, "kind", str, "outcome"), "outcome")
    target_text = _opt_str(doc, "continueTarget", "outcome")
    target = _label_from(target_text, "outcome") if target_text is not None else None
    if kind is OutcomeKind.CONTINUE and target is None:
        raise _SchemaError("continue outcome lacks its continueTarget")
    return Outcome(kind, target, ZERO_SPAN)


def _switch_from_json(doc, key: str, where: str) -> ModeSwitch | None:
    name = _opt_str(doc, key, where)
    return ModeSwitch(name, ZERO_SPAN) if name is not None else None


def _step_from_json(doc) -> Step:
    label = _label_from(_need(doc, "label", None, "step"), "step")
    kind = _enum_from(StepKind, _need(doc, "kind", str, "step"), "step")
    if kind is StepKind.INTERACTION:
        payload: object = Interaction(
            _need(doc, "source", str, "step"),
            _need(doc, "target", str, "step"),
            _need(doc, "message", str, "step"),
        )
    elif kind is StepKind.INVOCATION:
        payload = Invocation(_need(doc, "target", str, "step"))
    elif kind is StepKind.CONDITION:
        payload = Condition(_need(doc, "text", str, "step"))
    elif kind is StepKind.INTERNAL:
        timeout_doc = _need(doc, "timeout", None, "step")
        timeout = None
        if timeout_doc is not None:
            amount = _need(timeout_doc, "amount", None, "timeout")
            if isinstance(amount, bool) or not isinstance(amount, (int, float)):
                raise _SchemaError("timeout amount is not a number")
            if not 0 < amount <= sys.float_info.max:  # NaN fails too; ints compare exactly
                raise _SchemaError("timeout amount is not positive and finite")
            unit = _need(timeout_doc, "unit", str, "timeout")
            if unit not in TIME_UNITS:
                raise _SchemaError(f"unknown timeout unit {unit!r}")
            timeout = Timeout(float(amount), unit)
        payload = Internal(_need(doc, "description", str, "step"), timeout)
    elif kind is StepKind.CONTROL_FLOW:
        goto_text = _opt_str(doc, "goto", "step")
        from_text = _opt_str(doc, "repeatFrom", "step")
        to_text = _opt_str(doc, "repeatTo", "step")
        if goto_text is not None and from_text is None and to_text is None:
            payload = ControlFlow(_label_from(goto_text, "step"), None, None)
        elif goto_text is None and from_text is not None and to_text is not None:
            payload = ControlFlow(None, _step_number(from_text, "repeatFrom"), _step_number(to_text, "repeatTo"))
        else:
            raise _SchemaError("control-flow step must set either goto or both repeatFrom and repeatTo")
    else:
        exc = _need(doc, "exception", dict, "step")
        payload = ExceptionRef(
            _enum_from(ExceptionCategory, _need(exc, "category", str, "step exception"), "step"),
            _need(exc, "name", str, "step exception"),
            ZERO_SPAN,
        )
    return Step(label, payload, ZERO_SPAN)


def _block_from_json(doc, depth: int = 1) -> ExtensionBlock:
    if depth > MAX_BLOCK_DEPTH:
        raise _SchemaError(f"block nested deeper than {MAX_BLOCK_DEPTH} levels")
    body: list[Step | ExtensionBlock] = []
    for item in _need(doc, "body", list, "block"):
        node = _need(item, "node", str, "block body item")
        if node == "step":
            body.append(_step_from_json(item))
        elif node == "block":
            body.append(_block_from_json(item, depth + 1))
        else:
            raise _SchemaError(f"unknown body node kind {node!r}")
    return ExtensionBlock(
        _label_from(_need(doc, "label", None, "block"), "block"),
        _enum_from(BlockKind, _need(doc, "kind", str, "block"), "block"),
        _need(doc, "guard", str, "block"),
        body,
        _switch_from_json(doc, "entryModeSwitch", "block"),
        _switch_from_json(doc, "exitModeSwitch", "block"),
        _outcome_from_json(_need(doc, "outcome", dict, "block")),
        ZERO_SPAN,
    )


def _scenario_from_json(doc) -> Scenario:
    return Scenario(
        _switch_from_json(doc, "entryModeSwitch", "scenario"),
        [_step_from_json(s) for s in _need(doc, "steps", list, "scenario")],
        _switch_from_json(doc, "exitModeSwitch", "scenario"),
        _outcome_from_json(_need(doc, "outcome", dict, "scenario")),
        ZERO_SPAN,
    )


def _usecase_from_json(doc) -> UseCase:
    level_text = _opt_str(doc, "level", "usecase")
    contexts = []
    for c in _need(doc, "contexts", list, "usecase"):
        exc = _need(c, "exception", dict, "context")
        contexts.append(
            HandlerContext(
                _need(c, "usecase", str, "context"),
                ZERO_SPAN,
                ExceptionRef(
                    _enum_from(ExceptionCategory, _need(exc, "category", str, "context"), "context"),
                    _need(exc, "name", str, "context"),
                    ZERO_SPAN,
                ),
                _enum_from(InterruptRelation, _need(c, "relation", str, "context"), "context"),
                ZERO_SPAN,
            )
        )
    main_doc = _need(doc, "main", None, "usecase")
    name = _need(doc, "name", str, "usecase")
    if not IDENT_RE.fullmatch(name):  # path texts join names with " -> " and split them back
        raise _SchemaError(f"use case name {name!r} is not an identifier")
    return UseCase(
        name=name,
        is_handler=_need(doc, "handler", bool, "usecase"),
        scope=_opt_str(doc, "scope", "usecase"),
        level=_enum_from(Level, level_text, "usecase") if level_text is not None else None,
        intention=_opt_str(doc, "intention", "usecase"),
        multiplicity_text=_opt_str(doc, "multiplicity", "usecase"),
        primary_actors=[_actor_from_json(a) for a in _need(doc, "primary", list, "usecase")],
        secondary_actors=[_actor_from_json(a) for a in _need(doc, "secondary", list, "usecase")],
        facilitator_actors=[_actor_from_json(a) for a in _need(doc, "facilitator", list, "usecase")],
        precondition=_opt_str(doc, "precondition", "usecase"),
        postcondition=_opt_str(doc, "postcondition", "usecase"),
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

    uc_ids = {uc.name: f"usecase_{i}" for i, uc in enumerate(model.use_cases, 1)}
    svc_ids = {svc.name: f"service_{i}" for i, svc in enumerate(model.services, 1)}
    mode_ids: dict[str, str] = {}
    exc_ids: dict[str, str] = {}
    actor_ids: dict[tuple[str, str], str] = {}

    for i, mode in enumerate(model.modes, 1):
        mode_ids[mode.name] = f"mode_{i}"
        attrs = {
            "xmi:id": mode_ids[mode.name],
            "name": mode.name,
            "kind": mode.kind.value,
            "default": "true" if mode.is_default else "false",
        }
        offers = [svc_ids[s] for s in mode.offered_services if s in svc_ids]
        if offers:
            attrs["offers"] = " ".join(offers)
        elements.append(("ucm:Mode", attrs, []))

    for i, exc in enumerate(model.exceptions, 1):
        exc_ids[exc.qualified_name] = f"exception_{i}"
        attrs = {
            "xmi:id": exc_ids[exc.qualified_name],
            "category": exc.category.value,
            "name": exc.name,
            "global": "true" if exc.is_global else "false",
        }
        elements.append(("ucm:Exception", attrs, []))

    for svc in model.services:
        attrs = {"xmi:id": svc_ids[svc.name], "name": svc.name}
        provides = [uc_ids[g] for g in svc.goals if g in uc_ids]
        if provides:
            attrs["provides"] = " ".join(provides)
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
            if payload.target in uc_ids:
                attrs["invokes"] = uc_ids[payload.target]
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
            if payload.qualified_name in exc_ids:
                attrs["raises"] = exc_ids[payload.qualified_name]
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
        _switch_attrs(attrs, block.entry_switch, block.exit_switch)
        _outcome_attrs(attrs, block.outcome)
        body = [step_element(item) if isinstance(item, Step) else block_element(item) for item in block.body]
        return ("ucm:ExtensionBlock", attrs, body)

    def _switch_attrs(attrs: dict, entry: ModeSwitch | None, exit_switch: ModeSwitch | None) -> None:
        if entry is not None and entry.mode in mode_ids:
            attrs["entryMode"] = mode_ids[entry.mode]
        if exit_switch is not None and exit_switch.mode in mode_ids:
            attrs["exitMode"] = mode_ids[exit_switch.mode]

    def _outcome_attrs(attrs: dict, outcome: Outcome) -> None:
        attrs["outcome"] = outcome.kind.value
        if outcome.continue_target is not None:
            attrs["continueTarget"] = outcome.continue_target.text

    for uc in model.use_cases:
        tag = "Handler" if uc.is_handler else "UseCase"
        attrs = {"xmi:id": uc_ids[uc.name], "name": uc.name}
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
            if ctx.use_case in uc_ids:
                ctx_attrs["contextUseCase"] = uc_ids[ctx.use_case]
            ctx_attrs["contextName"] = ctx.use_case
            if ctx.exception.qualified_name in exc_ids:
                ctx_attrs["exception"] = exc_ids[ctx.exception.qualified_name]
            ctx_attrs["exceptionName"] = ctx.exception.qualified_name
            children.append(("ucm:Context", ctx_attrs, []))

        if uc.main is not None:
            main_attrs: dict = {}
            _switch_attrs(main_attrs, uc.main.entry_switch, uc.main.exit_switch)
            _outcome_attrs(main_attrs, uc.main.outcome)
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
