"""Serializers: summary tables (Markdown/CSV), canonical JSON interchange,
XMI, and DOT. All exporters are pure and byte-deterministic for equal models.
`TABLE_FORMATS` maps each table format to its writer and `EXPORTS` each
export target; `ucm` and the report script take their choices from both.
Each format has its own small writer: JSON comes out as `json.dumps(doc,
indent=2)` writes it and XMI as ElementTree writes it after `ET.indent`, byte
for byte, without either generic serializer.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import count
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .diagnostics import Diagnostic
from .lexer import IDENT_RE
from .model import (
    ActorRef,
    BLOCK_KINDS,
    Condition,
    ControlFlow,
    EXCEPTION_CATEGORIES,
    ExceptionDef,
    ExceptionRef,
    ExtensionBlock,
    HandlerContext,
    Interaction,
    Internal,
    Invocation,
    LEVELS,
    MAX_BLOCK_DEPTH,
    MAX_DIGITS,
    Model,
    MODE_KINDS,
    ModeDecl,
    ModeSwitch,
    Multiplicity,
    OUTCOMES,
    Outcome,
    RELATIONS,
    STEP_KINDS,
    Scenario,
    ServiceDecl,
    Step,
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
from .spans import SourceSpan, ZERO_SPAN

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
    """The text of `table` in `format`, a key of `TABLE_FORMATS`: its `table_parts` joined."""
    return "".join(table_parts(table, format))


def table_parts(table: SummaryTable, format: str = "md") -> list[str]:
    """The text of `table` in `format` as a list of parts, for `writelines`:
    a large cell is one part, and no copy of the whole table is made."""
    if format not in TABLE_FORMATS:
        raise ValueError(f"unknown table format {format!r}")
    return TABLE_FORMATS[format](table)


def _join_rows(rows, start: str, sep: str, end: str) -> list[str]:
    """The parts of each list of cells as `start + sep.join(cells) + end`,
    all in one list: no row is built as a line of its own."""
    parts = []
    for cells in rows:
        parts.append(start)
        for cell in cells:
            parts += (cell, sep)
        if cells:
            parts.pop()
        parts.append(end)
    return parts


def _md_cell(text: str) -> str:
    # `in` only scans; `replace` counts the matches first, even when there are none.
    text = text.replace("|", "\\|") if "|" in text else text
    return text.replace("\n", " ") if "\n" in text else text


def _render_markdown(table: SummaryTable) -> list[str]:
    rows = (table.columns, ["---"] * len(table.columns), *table.rows)
    return _join_rows((list(map(_md_cell, row)) for row in rows), "| ", " | ", " |\n")


def _csv_field(text: str) -> str:
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or "\r" in text:
        return '"' + text + '"'
    return text


def _render_csv(table: SummaryTable) -> list[str]:
    """CSV as the stdlib writer writes it with CRLF row ends and
    QUOTE_MINIMAL: a field is quoted if and only if it holds a comma, a
    double quote, CR or LF, inner double quotes are doubled, and a row that
    is one empty field is ``""``. Str operations scan the large path cells
    in C, where the stdlib writer inspects every character; the parts of the
    whole table go into one list."""
    rows = (table.columns, *table.rows)
    cells = (['""'] if len(row) == 1 and row[0] == "" else list(map(_csv_field, row)) for row in rows)
    return _join_rows(cells, "", ",", "\r\n")


#: Each table format and its writer, for `table_parts`, the CLI and the report script alike.
TABLE_FORMATS = {"md": _render_markdown, "csv": _render_csv}


# -- canonical JSON -----------------------------------------------------------


def export_json(resolved: ResolvedModel | Model) -> str:
    model = resolved.model if isinstance(resolved, ResolvedModel) else resolved
    return _write_node(model, "\n") + "\n"


def dump_json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)` for a value built of dicts with str keys,
    lists, strs, ints, floats, bools and None. Any `indent` sends `json.dumps`
    down a pure-Python path; this writer quotes strings with the same C
    function and leaves only numbers to `json.dumps`. It is also needed for
    the collector rule (see `cli`): that path's nested closures refer to one
    another, so each `json.dumps(..., indent=2)` leaves a reference cycle."""
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


class _SchemaError(Exception):
    pass


# Kinds of `_need` leaf that no Python type names, and the JSON type of
# every kind that is not a tuple of words.
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
    `StepLabel`, text `StepLabel.parse` reads, no `too_many_digits`; a tuple
    of words, such as `TIME_UNITS` or `MODE_KINDS`."""
    if not isinstance(doc, dict) or key not in doc:
        raise _SchemaError(f"missing key '{key}' in {where}")
    value = doc[key]
    if value is None and optional:
        return None
    if isinstance(kind, tuple):
        if value not in kind:
            raise _SchemaError(f"unknown {where} {key} {value!r}")
        return value
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


# Kinds of layout value that are no `_need` leaf: a mode switch, written as
# its mode's name, and a step's payload, written as the step's `kind` word
# followed by the payload's own keys, or a raise step's under `exception`.
_SWITCH = "mode switch"
_PAYLOAD = "step payload"

# The JSON document, formatVersion 1: `formatVersion`, then the keys of the
# Model. Each node class lists its keys in written order, each as (key,
# attribute, kind[, optional]), where optional reads null as None.
# A kind is a `_need` leaf kind, `_SWITCH`, `_PAYLOAD`, a class of this table
# (an object), or a list of one class; a block body, [Step, ExtensionBlock],
# tells its items apart by their `node` word.
_LAYOUT: dict[type, tuple[tuple, ...]] = {
    Model: (
        ("name", "name", _IDENT), ("modes", "modes", [ModeDecl]), ("exceptions", "exceptions", [ExceptionDef]),
        ("services", "services", [ServiceDecl]), ("usecases", "use_cases", [UseCase]),
    ),
    ModeDecl: (
        ("name", "name", _IDENT), ("kind", "kind", MODE_KINDS), ("default", "is_default", bool),
        ("offers", "offered_services", _IDENTS),
    ),
    ExceptionDef: (
        ("category", "category", EXCEPTION_CATEGORIES), ("name", "name", _IDENT), ("global", "is_global", bool),
    ),
    ServiceDecl: (("name", "name", _IDENT), ("provides", "goals", _IDENTS)),
    UseCase: (
        ("name", "name", _IDENT), ("handler", "is_handler", bool), ("scope", "scope", str, True),
        ("level", "level", LEVELS, True), ("intention", "intention", str, True),
        ("multiplicity", "multiplicity_text", str, True), ("primary", "primary_actors", [ActorRef]),
        ("secondary", "secondary_actors", [ActorRef]), ("facilitator", "facilitator_actors", [ActorRef]),
        ("precondition", "precondition", str, True), ("postcondition", "postcondition", str, True),
        ("contexts", "contexts", [HandlerContext]), ("main", "main", Scenario, True),
        ("extensions", "extensions", [ExtensionBlock]),
    ),
    ActorRef: (
        ("category", "category", _IDENT, True), ("name", "name", _IDENT),
        ("multiplicity", "multiplicity", Multiplicity, True),
    ),
    Multiplicity: (("lower", "lower", int), ("upper", "upper", int, True)),
    HandlerContext: (
        ("usecase", "use_case", _IDENT), ("exception", "exception", ExceptionRef),
        ("relation", "relation", RELATIONS),
    ),
    ExceptionRef: (("category", "category", EXCEPTION_CATEGORIES), ("name", "name", _IDENT)),
    Scenario: (
        ("entryModeSwitch", "entry_switch", _SWITCH, True), ("steps", "steps", [Step]),
        ("exitModeSwitch", "exit_switch", _SWITCH, True), ("outcome", "outcome", Outcome),
    ),
    Step: (("label", "label", StepLabel), ("kind", "payload", _PAYLOAD)),
    ExtensionBlock: (
        ("label", "label", StepLabel), ("kind", "kind", BLOCK_KINDS), ("guard", "guard", str),
        ("entryModeSwitch", "entry_switch", _SWITCH, True), ("body", "body", [Step, ExtensionBlock]),
        ("exitModeSwitch", "exit_switch", _SWITCH, True), ("outcome", "outcome", Outcome),
    ),
    Outcome: (("kind", "kind", OUTCOMES), ("continueTarget", "continue_target", StepLabel, True)),
    Interaction: (("source", "source", _IDENT), ("target", "target", _IDENT), ("message", "message", str)),
    Invocation: (("target", "target", _IDENT),),
    Condition: (("text", "text", str),),
    Internal: (("description", "description", str), ("timeout", "timeout", Timeout, True)),
    Timeout: (("amount", "amount", float), ("unit", "unit", TIME_UNITS)),
    ControlFlow: (
        ("goto", "goto", StepLabel, True), ("repeatFrom", "repeat_from", StepLabel, True),
        ("repeatTo", "repeat_to", StepLabel, True),
    ),
}

# What an E000 message calls an object of each class. An exception
# reference is named by its place (`context exception`), and a payload's
# keys are its step's.
_WHERE = {
    Model: "document", ModeDecl: "mode", ExceptionDef: "exception", ServiceDecl: "service", UseCase: "usecase",
    ActorRef: "actor", Multiplicity: "multiplicity", HandlerContext: "context", Scenario: "scenario",
    Step: "step", ExtensionBlock: "block", Outcome: "outcome", Timeout: "timeout",
}

# The `node` word that opens an object of each class a block body holds.
_NODE_WORDS = {Step: "step", ExtensionBlock: "block"}
_NODE_CLASSES = {word: cls for cls, word in _NODE_WORDS.items()}
_PAYLOAD_CLASSES = {kind: cls for cls, kind in STEP_KINDS.items()}

# The span fields of each class, which the document does not hold. A model's
# file, which it does not hold either, comes back "<json>".
_SPANS = {cls: [f.name for f in fields(cls) if f.type == "SourceSpan"] for cls in _LAYOUT}


def _emitter(key: str, attr: str, kind, *_) -> tuple:
    """The `"key": ` text of `key` and the function from a node and the indent of its key's line
    to the JSON text of its `attr`, a `kind`; a str, such as a keyword's word, is written as a JSON string."""
    prefix = encode_basestring_ascii(key) + ": "
    if kind is _PAYLOAD:
        return prefix, _write_payload
    get = attrgetter(attr)
    if kind in (bool, int, float, _IDENTS):
        return prefix, lambda node, indent: dump_json(get(node), indent)
    if isinstance(kind, list) or kind in _LAYOUT:
        return prefix, lambda node, indent: "null" if (value := get(node)) is None else _write_node(value, indent)
    if kind is _SWITCH or kind is StepLabel:
        text = attrgetter("mode" if kind is _SWITCH else "text")
        return prefix, lambda node, _: "null" if (value := get(node)) is None else encode_basestring_ascii(text(value))
    return prefix, lambda node, _: "null" if (value := get(node)) is None else encode_basestring_ascii(value)


def _write_node(node, indent: str) -> str:
    """A node as its JSON object, a list of nodes as a JSON array, opened on a line indented by `indent`."""
    inner = indent + "  "
    if type(node) is list:
        return "[" + inner + ("," + inner).join([_write_node(n, inner) for n in node]) + indent + "]" if node else "[]"
    parts = [key + emit(node, inner) for key, emit in _EMITTERS[type(node)]]
    return "{" + inner + ("," + inner).join(parts) + indent + "}"


def _write_payload(step: Step, indent: str) -> str:
    """A step's `kind` word, then its payload's keys, or a raise step's payload as an object under `exception`."""
    payload = step.payload
    pairs = [('"exception": ', _write_node)] if type(payload) is ExceptionRef else _EMITTERS[type(payload)]
    return ("," + indent).join([encode_basestring_ascii(step.kind), *[key + emit(payload, indent) for key, emit in pairs]])


# Each class's (`"key": ` text, emitter) pairs in written order, and the keys of its JSON object:
# the document opens with `formatVersion`, an object in a block body with `node`. A payload other
# than a raise step's is read from its step's object, so its set holds the step's keys too.
_EMITTERS = {cls: [_emitter(*entry) for entry in layout] for cls, layout in _LAYOUT.items()}
_EMITTERS[Model].insert(0, ('"formatVersion": ', lambda *_: str(FORMAT_VERSION)))
_KEYS = {cls: {key for key, *_ in layout} for cls, layout in _LAYOUT.items()}
_KEYS[Model].add("formatVersion")
for cls, word in _NODE_WORDS.items():
    _EMITTERS[cls].insert(0, ('"node": ', lambda *_, text=encode_basestring_ascii(word): text))
    _KEYS[cls].add("node")
_KEYS.update((cls, _KEYS[Step] | _KEYS[cls]) for cls in STEP_KINDS if cls is not ExceptionRef)


def import_json(document: str) -> tuple[Model | None, list[Diagnostic]]:
    """Rebuild a model from export_json output; each node's spans come back
    as `("<synthetic>", k, k)`, k its ordinal in document order. It accepts
    exactly the models `.ucm` text can write: a schema violation, a value the
    parser would reject or an unknown format version yields an E000
    diagnostic and no model."""
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
        model = _from_json(doc, Model, "document", 0, count())
    except _SchemaError as err:
        return None, [Diagnostic("E000", str(err), ZERO_SPAN)]
    return model, []


def _from_json(doc, cls: type, where: str, depth: int, ordinals: Iterator[int]):
    """The `cls` node that the JSON object `doc` lays out, `where` naming it
    in messages, `depth` counting the blocks around it and `ordinals` giving
    each node, on entry, the ordinal its spans hold. Each value is held to its
    rule by `_need` and each node to its cross-field rules by `_check`."""
    if cls in _NODE_WORDS:  # read first, as it is written first; in a block body it picked `cls`
        _need(doc, "node", (_NODE_WORDS[cls],), where)
    if cls is ExtensionBlock:
        depth += 1
        if depth > MAX_BLOCK_DEPTH:
            raise _SchemaError(f"block nested deeper than {MAX_BLOCK_DEPTH} levels")
    values = dict.fromkeys(_SPANS[cls], _synthetic_span(ordinals))
    if cls is Model:
        values["source_file"] = "<json>"
    named = _KEYS[cls]
    for key, attr, kind, *optional in _LAYOUT[cls]:
        if kind is _PAYLOAD:
            kind = _PAYLOAD_CLASSES[_need(doc, key, tuple(_PAYLOAD_CLASSES), where)]
            if kind is not ExceptionRef:
                values[attr] = _from_json(doc, kind, where, depth, ordinals)
                named = _KEYS[kind]
                continue
            key = "exception"  # a raise step's payload is an object of its own
            named = named | {key}
        if isinstance(kind, list):
            items = values[attr] = []
            for item in _need(doc, key, list, where):
                item_cls = kind[0]
                if len(kind) > 1:  # a block body
                    item_cls = _NODE_CLASSES[_need(item, "node", tuple(_NODE_CLASSES), f"{where} {key} item")]
                items.append(_from_json(item, item_cls, _WHERE[item_cls], depth, ordinals))
        elif kind in _LAYOUT:
            value = _need(doc, key, dict, where, *optional)
            place = _WHERE.get(kind, f"{where} {key}")
            values[attr] = None if value is None else _from_json(value, kind, place, depth, ordinals)
        elif kind is _SWITCH:
            name = _need(doc, key, _IDENT, where, *optional)
            values[attr] = None if name is None else ModeSwitch(name, _synthetic_span(ordinals))
        else:
            values[attr] = _need(doc, key, kind, where, *optional)
    node = cls(**values)
    _check(node, where)
    if doc.keys() - named:  # only now, so that a fault in a named key comes first
        raise _SchemaError(f"unknown key {next(key for key in doc if key not in named)!r} in {where}")
    return node


def _synthetic_span(ordinals: Iterator[int]) -> SourceSpan:
    k = next(ordinals)
    return SourceSpan(ZERO_SPAN.file, k, k)


def _check(node, where: str) -> None:
    """Hold `node` to the rules of `.ucm` text that span several of its
    fields, and keep a timeout's amount as the float text reads."""
    if isinstance(node, ServiceDecl):
        if not node.goals:  # `provides` takes one name or more
            raise _SchemaError("key 'provides' in service is an empty list")
    elif isinstance(node, Multiplicity):
        for which, bound in (("lower", node.lower), ("upper", node.upper)):
            if bound is not None and bound_out_of_range(bound):
                raise _SchemaError(f"multiplicity {which} bound is negative or has more than {MAX_DIGITS} digits")
    elif isinstance(node, Outcome):
        target = node.continue_target
        if (node.kind == "continue") != (target is not None):  # text names it after `continue` only
            raise _SchemaError(f"{node.kind} outcome {'lacks its' if target is None else 'has a'} continueTarget")
    elif isinstance(node, (Scenario, ExtensionBlock)):
        # Text reads a lone switch before the outcome of an empty body as the entry.
        items = node.steps if isinstance(node, Scenario) else node.body
        if node.entry_switch is None and node.exit_switch is not None and not items:
            raise _SchemaError(f"{where} without steps has an exitModeSwitch but no entryModeSwitch")
    elif isinstance(node, Timeout):
        amount = node.amount
        if not 0 < amount <= sys.float_info.max:  # NaN fails too; ints compare exactly
            raise _SchemaError("timeout amount is not positive and finite")
        node.amount = float(amount)
        if amount_out_of_range(node.amount):
            raise _SchemaError(f"timeout amount {amount!r} needs more than {MAX_DIGITS} digits a side")
    elif isinstance(node, ControlFlow):
        lo, hi = node.repeat_from, node.repeat_to
        if node.goto is None and lo is not None and hi is not None:
            for key, bound in (("repeatFrom", lo), ("repeatTo", hi)):  # as the parser's `repeat 2-4`
                if bound.anchor_hi is not None or bound.suffix:
                    raise _SchemaError(f"{key} {bound.text!r} is not a plain step number")
        elif node.goto is None or lo is not None or hi is not None:
            raise _SchemaError("control-flow step must set either goto or both repeatFrom and repeatTo")


# -- XMI -----------------------------------------------------------------------


# An XMI element: its tag and attribute names with their namespace prefixes
# written in, its attributes in document order, None for a value the model
# lacks (`_write_element` writes no such attribute), and its children.
_Element = tuple[str, dict[str, str | None], list]


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
    # Each actor by its qualified name, numbered in order of first reference.
    actors = {ref.qualified_name: ref for uc in model.use_cases for ref in uc.all_actors()}
    actor_ids = {name: f"actor_{i}" for i, name in enumerate(actors, 1)}

    def refs(*nodes: object | None) -> str | None:
        """The xmi:ids of `nodes`, skipping None (unbound); None if all are."""
        return " ".join([ids[id(node)] for node in nodes if node is not None]) or None

    for mode in model.modes:
        attrs = {
            "xmi:id": ids[id(mode)],
            "name": mode.name,
            "kind": mode.kind,
            "default": "true" if mode.is_default else "false",
            "offers": refs(*map(resolved.service_by_name.get, mode.offered_services)),
        }
        elements.append(("ucm:Mode", attrs, []))

    for exc in model.exceptions:
        attrs = {
            "xmi:id": ids[id(exc)],
            "category": exc.category,
            "name": exc.name,
            "global": "true" if exc.is_global else "false",
        }
        elements.append(("ucm:Exception", attrs, []))

    for svc in model.services:
        provides = refs(*map(resolved.use_case_by_name.get, svc.goals))
        elements.append(("ucm:Service", {"xmi:id": ids[id(svc)], "name": svc.name, "provides": provides}, []))

    for name, ref in actors.items():
        elements.append(("ucm:Actor", {"xmi:id": actor_ids[name], "name": ref.name, "category": ref.category or None}, []))

    step_ids, block_ids = count(1), count(1)

    def step_element(step: Step) -> _Element:
        attrs = {
            "xmi:id": f"step_{next(step_ids)}",
            "label": step.label.text,
            "kind": step.kind,
        }
        payload = step.payload
        if isinstance(payload, Interaction):
            attrs.update(source=payload.source, target=payload.target, message=payload.message)
        elif isinstance(payload, Invocation):
            attrs.update(invokes=refs(resolved.binding_for(step)), targetName=payload.target)
        elif isinstance(payload, Condition):
            attrs["text"] = payload.text
        elif isinstance(payload, Internal):
            attrs["description"] = payload.description
            if payload.timeout is not None:
                attrs.update(timeoutAmount=_format_amount(payload.timeout.amount), timeoutUnit=payload.timeout.unit)
        elif isinstance(payload, ControlFlow):
            goto, lo, hi = payload.goto, payload.repeat_from, payload.repeat_to
            attrs.update(goto=goto and goto.text, repeatFrom=lo and lo.text, repeatTo=hi and hi.text)
        elif isinstance(payload, ExceptionRef):
            attrs.update(raises=refs(resolved.binding_for(payload)), exceptionName=payload.qualified_name)
        return ("ucm:Step", attrs, [])

    def _boundary_attrs(attrs: dict, owner: Scenario | ExtensionBlock) -> dict:
        target = owner.outcome.continue_target
        attrs["entryMode"] = refs(resolved.binding_for(owner.entry_switch))
        attrs["exitMode"] = refs(resolved.binding_for(owner.exit_switch))
        attrs["outcome"] = owner.outcome.kind
        attrs["continueTarget"] = target and target.text
        return attrs

    for uc in model.use_cases:
        attrs = {
            "xmi:id": ids[id(uc)], "name": uc.name, "level": uc.level, "scope": uc.scope,
            "intention": uc.intention, "multiplicity": uc.multiplicity_text,
            "precondition": uc.precondition, "postcondition": uc.postcondition,
        }
        children: list[_Element] = []
        for role, role_refs in (
            ("primary", uc.primary_actors),
            ("secondary", uc.secondary_actors),
            ("facilitator", uc.facilitator_actors),
        ):
            for ref in role_refs:
                ref_attrs = {"role": role, "actor": actor_ids[ref.qualified_name]}
                if ref.multiplicity is not None:
                    ref_attrs["lower"] = str(ref.multiplicity.lower)
                    ref_attrs["upper"] = "*" if ref.multiplicity.upper is None else str(ref.multiplicity.upper)
                children.append(("ucm:ActorRef", ref_attrs, []))

        for ctx in uc.contexts:
            ctx_attrs = {
                "relation": ctx.relation, "contextUseCase": refs(resolved.binding_for(ctx)),
                "contextName": ctx.use_case, "exception": refs(resolved.binding_for(ctx.exception)),
                "exceptionName": ctx.exception.qualified_name,
            }
            children.append(("ucm:Context", ctx_attrs, []))

        if uc.main is not None:
            children.append(("ucm:MainScenario", _boundary_attrs({}, uc.main), list(map(step_element, uc.main.steps))))
        # Each body item with the children its element joins; ids follow document order.
        pending = [(children, block) for block in reversed(uc.extensions)]
        while pending:
            items, item = pending.pop()
            if isinstance(item, Step):
                items.append(step_element(item))
                continue
            block_attrs = {"xmi:id": f"block_{next(block_ids)}", "label": item.label.text, "kind": item.kind}
            block_attrs["guard"] = item.guard or None
            items.append(("ucm:ExtensionBlock", _boundary_attrs(block_attrs, item), []))
            pending.extend((items[-1][2], nested) for nested in reversed(item.body))
        elements.append(("ucm:Handler" if uc.is_handler else "ucm:UseCase", attrs, children))

    lines = ["<?xml version='1.0' encoding='utf-8'?>"]
    _write_element(root, "", lines)
    return "\n".join(lines) + "\n"


def _write_element(element: _Element, indent: str, lines: list[str]) -> None:
    """Append one line per tag, as ElementTree writes the element after
    `ET.indent(tree, space="  ")`: an attribute valued None left out, values
    escaped by its rule, children two spaces in, a childless element closed by ` />`."""
    tag, attrs, children = element
    values = "".join(filter(None, attrs.values()))
    if _escape_attrib(values) != values:  # one test per element: values rarely need escaping
        attrs = {name: value and _escape_attrib(value) for name, value in attrs.items()}
    head = indent + "<" + tag + "".join([f' {name}="{value}"' for name, value in attrs.items() if value is not None])
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

    for name in dict.fromkeys(ref.qualified_name for uc in model.use_cases for ref in uc.all_actors()):
        lines.append(f"  {_dot_quote(name)} [shape=box];")

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
            relation = "interrupt & continue" if ctx.relation == "interrupt-continue" else "interrupt & fail"
            lines.append(
                f"  {_dot_quote(uc.name)} -> {_dot_quote(ctx.use_case)}"
                f' [label="<<{relation}>>", style=dashed];'
            )

    lines.append("}")
    return "\n".join(lines) + "\n"


#: Each `ucm export` target and its writer, for the CLI and the report script alike.
EXPORTS = {"json": export_json, "xmi": export_xmi, "dot": export_dot}
