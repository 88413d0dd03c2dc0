"""Serializers: summary tables (Markdown/CSV), canonical JSON interchange,
XMI, and DOT. All exporters are pure and byte-deterministic for equal models.
`TABLE_FORMATS` maps each table format to its writer and `EXPORTS` each
export target; `ucm` and the report script take their choices from both.
JSON comes out as `json.dumps(doc, indent=2)` writes it and XMI as ElementTree
writes it after `ET.indent`, byte for byte, each in one walk over the model that
builds no tree: JSON from one plan per class, XMI one line per element.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import count
from json.encoder import encode_basestring_ascii

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


# How a plan writes a value: a str as a JSON string, a label or a mode switch as its text,
# a node or a list of nodes by `_write_node`, a bool, a number or a list of names by
# `dump_json`, and a step's payload into its step's object.
_AS_STRING, _AS_LABEL, _AS_SWITCH, _AS_NODE, _AS_VALUE, _AS_PAYLOAD = range(6)
_CODES = {StepLabel: _AS_LABEL, _SWITCH: _AS_SWITCH, _PAYLOAD: _AS_PAYLOAD, **dict.fromkeys(_LAYOUT, _AS_NODE)}
_CODES.update(dict.fromkeys((bool, int, float, _IDENTS), _AS_VALUE))

# Each class's plan, built once from `_LAYOUT`: the `"key": value` texts its object opens
# with (`formatVersion` in the document, `node` in an object a block body may hold), then
# one (`"key": ` text, attribute, code) per key in written order. `_KEYS` holds the keys of
# each class's object; a payload other than a raise step's is read from its step's object,
# so its set holds the step's keys too.
_PLANS = {
    cls: ([], [
        (encode_basestring_ascii(key) + ": ", attr, _AS_NODE if type(kind) is list else _CODES.get(kind, _AS_STRING))
        for key, attr, kind, *_ in layout
    ])
    for cls, layout in _LAYOUT.items()
}
_PLANS[Model][0].append(f'"formatVersion": {FORMAT_VERSION}')
_KEYS = {cls: {key for key, *_ in layout} for cls, layout in _LAYOUT.items()}
_KEYS[Model].add("formatVersion")
for cls, word in _NODE_WORDS.items():
    _PLANS[cls][0].append('"node": ' + encode_basestring_ascii(word))
    _KEYS[cls].add("node")
_KEYS.update((cls, _KEYS[Step] | _KEYS[cls]) for cls in STEP_KINDS if cls is not ExceptionRef)


def _write_node(node, indent: str) -> str:
    """A node as its JSON object, a list of nodes as a JSON array, opened on a line indented by `indent`."""
    inner = indent + "  "
    if type(node) is list:
        return "[" + inner + ("," + inner).join([_write_node(n, inner) for n in node]) + indent + "]" if node else "[]"
    return "{" + inner + ("," + inner).join(_write_fields(node, inner)) + indent + "}"


def _write_fields(node, indent: str) -> list[str]:
    """The `"key": value` text of each field of `node`, on lines indented by `indent`. A step's payload
    is its `kind` word, then the payload's own fields, or a raise step's payload as an object under `exception`."""
    head, plan = _PLANS[type(node)]
    parts = head.copy()
    for prefix, attr, code in plan:
        value = getattr(node, attr)
        if value is None:
            parts.append(prefix + "null")
        elif code == _AS_STRING:
            parts.append(prefix + encode_basestring_ascii(value))
        elif code == _AS_NODE:
            parts.append(prefix + _write_node(value, indent))
        elif code == _AS_LABEL:
            parts.append(prefix + encode_basestring_ascii(value.text))
        elif code == _AS_VALUE:
            parts.append(prefix + dump_json(value, indent))
        elif code == _AS_SWITCH:
            parts.append(prefix + encode_basestring_ascii(value.mode))
        else:
            parts.append(prefix + encode_basestring_ascii(node.kind))
            if type(value) is ExceptionRef:
                parts.append('"exception": ' + _write_node(value, indent))
            else:
                parts += _write_fields(value, indent)
    return parts


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
    _check(cls, values, where)
    if doc.keys() - named:  # only now, so that a fault in a named key comes first
        raise _SchemaError(f"unknown key {next(key for key in doc if key not in named)!r} in {where}")
    return cls(**values)


def _synthetic_span(ordinals: Iterator[int]) -> SourceSpan:
    k = next(ordinals)
    return SourceSpan(ZERO_SPAN.file, k, k)


def _check(cls: type, values: dict, where: str) -> None:
    """Hold the field `values` of a `cls` node to the rules of `.ucm` text
    that span several fields, and make a timeout's amount the float text reads."""
    if cls is ServiceDecl:
        if not values["goals"]:  # `provides` takes one name or more
            raise _SchemaError("key 'provides' in service is an empty list")
    elif cls is Multiplicity:
        for which, bound in (("lower", values["lower"]), ("upper", values["upper"])):
            if bound is not None and bound_out_of_range(bound):
                raise _SchemaError(f"multiplicity {which} bound is negative or has more than {MAX_DIGITS} digits")
    elif cls is Outcome:
        kind, target = values["kind"], values["continue_target"]
        if (kind == "continue") != (target is not None):  # text names it after `continue` only
            raise _SchemaError(f"{kind} outcome {'lacks its' if target is None else 'has a'} continueTarget")
    elif cls is Scenario or cls is ExtensionBlock:
        # Text reads a lone switch before the outcome of an empty body as the entry.
        items = values["steps"] if cls is Scenario else values["body"]
        if values["entry_switch"] is None and values["exit_switch"] is not None and not items:
            raise _SchemaError(f"{where} without steps has an exitModeSwitch but no entryModeSwitch")
    elif cls is Timeout:
        amount = values["amount"]
        if not 0 < amount <= sys.float_info.max:  # NaN fails too; ints compare exactly
            raise _SchemaError("timeout amount is not positive and finite")
        values["amount"] = float(amount)
        if amount_out_of_range(values["amount"]):
            raise _SchemaError(f"timeout amount {amount!r} needs more than {MAX_DIGITS} digits a side")
    elif cls is ControlFlow:
        goto, lo, hi = values["goto"], values["repeat_from"], values["repeat_to"]
        if goto is None and lo is not None and hi is not None:
            for key, bound in (("repeatFrom", lo), ("repeatTo", hi)):  # as the parser's `repeat 2-4`
                if bound.anchor_hi is not None or bound.suffix:
                    raise _SchemaError(f"{key} {bound.text!r} is not a plain step number")
        elif goto is None or lo is not None or hi is not None:
            raise _SchemaError("control-flow step must set either goto or both repeatFrom and repeatTo")


# -- XMI -----------------------------------------------------------------------


def export_xmi(resolved: ResolvedModel) -> str:
    """Flat element-per-class XMI 2.0 document with xmi:id cross-references.

    Element classes: Mode, Exception, Service, Actor, UseCase, Handler,
    Step, ExtensionBlock; containment follows the model structure and all
    cross-references use idrefs. Output is deterministic.
    """
    model = resolved.model

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

    def refs(names: list[str], by_name: dict) -> str | None:
        """The xmi:ids of the nodes `by_name` holds for `names`, skipping the rest; None if it holds none."""
        return " ".join([ids[id(by_name[name])] for name in names if name in by_name]) or None

    def bound_id(node: object) -> str | None:
        """The xmi:id of the node the resolver bound `node` to; None if it bound none."""
        return ids.get(id(resolved.binding_for(node)))

    def boundary(owner: Scenario | ExtensionBlock) -> str:
        modes = _attr("entryMode", bound_id(owner.entry_switch)) + _attr("exitMode", bound_id(owner.exit_switch))
        target = owner.outcome.continue_target
        return f'{modes} outcome="{owner.outcome.kind}"{_attr("continueTarget", target and target.text)}'

    step_ids, block_ids = count(1), count(1)

    def step_line(step: Step, indent: str) -> str:
        payload = step.payload
        kind = type(payload)
        if kind is Interaction:
            rest = f' source="{payload.source}" target="{payload.target}" message="{_escape_attrib(payload.message)}"'
        elif kind is Invocation:
            rest = _attr("invokes", bound_id(step)) + f' targetName="{payload.target}"'
        elif kind is Condition:
            rest = f' text="{_escape_attrib(payload.text)}"'
        elif kind is Internal:
            rest = f' description="{_escape_attrib(payload.description)}"'
            if (timeout := payload.timeout) is not None:
                amount = str(int(timeout.amount)) if timeout.amount == int(timeout.amount) else str(timeout.amount)
                rest += f' timeoutAmount="{amount}" timeoutUnit="{timeout.unit}"'
        elif kind is ControlFlow:
            goto, lo, hi = payload.goto, payload.repeat_from, payload.repeat_to
            rest = _attr("goto", goto and goto.text) + _attr("repeatFrom", lo and lo.text) + _attr("repeatTo", hi and hi.text)
        else:
            rest = _attr("raises", bound_id(payload)) + f' exceptionName="{payload.qualified_name}"'
        return f'{indent}<ucm:Step xmi:id="step_{next(step_ids)}" label="{step.label.text}" kind="{step.kind}"{rest} />'

    # One line per tag, as ElementTree writes the tree after `ET.indent(tree, space="  ")`:
    # children two spaces in, a childless element closed by ` />` (see `_close`).
    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        f'<xmi:XMI xmlns:ucm="{MODEL_NS}" xmlns:xmi="{XMI_NS}" xmi:version="2.0">',
        f'  <ucm:Model xmi:id="model_1" name="{model.name}"',
    ]
    for mode in model.modes:
        offers = _attr("offers", refs(mode.offered_services, resolved.service_by_name))
        default = "true" if mode.is_default else "false"
        lines.append(f'    <ucm:Mode xmi:id="{ids[id(mode)]}" name="{mode.name}" kind="{mode.kind}" default="{default}"{offers} />')
    for exc in model.exceptions:
        flag = "true" if exc.is_global else "false"
        lines.append(f'    <ucm:Exception xmi:id="{ids[id(exc)]}" category="{exc.category}" name="{exc.name}" global="{flag}" />')
    for svc in model.services:
        provides = _attr("provides", refs(svc.goals, resolved.use_case_by_name))
        lines.append(f'    <ucm:Service xmi:id="{ids[id(svc)]}" name="{svc.name}"{provides} />')
    for name, ref in actors.items():
        lines.append(f'    <ucm:Actor xmi:id="{actor_ids[name]}" name="{ref.name}"{_attr("category", ref.category or None)} />')

    for uc in model.use_cases:
        tag = "ucm:Handler" if uc.is_handler else "ucm:UseCase"
        texts = (
            ("scope", uc.scope), ("intention", uc.intention), ("multiplicity", uc.multiplicity_text),
            ("precondition", uc.precondition), ("postcondition", uc.postcondition),
        )
        start = len(lines)
        lines.append(
            f'    <{tag} xmi:id="{ids[id(uc)]}" name="{uc.name}"{_attr("level", uc.level)}'
            + "".join([f' {name}="{_escape_attrib(text)}"' for name, text in texts if text is not None])
        )
        for role, role_refs in (
            ("primary", uc.primary_actors), ("secondary", uc.secondary_actors), ("facilitator", uc.facilitator_actors)
        ):
            for ref in role_refs:
                mult = ref.multiplicity
                bounds = "" if mult is None else f' lower="{mult.lower}" upper="{"*" if mult.upper is None else mult.upper}"'
                lines.append(f'      <ucm:ActorRef role="{role}" actor="{actor_ids[ref.qualified_name]}"{bounds} />')
        for ctx in uc.contexts:
            lines.append(
                f'      <ucm:Context relation="{ctx.relation}"{_attr("contextUseCase", bound_id(ctx))}'
                f' contextName="{ctx.use_case}"{_attr("exception", bound_id(ctx.exception))}'
                f' exceptionName="{ctx.exception.qualified_name}" />'
            )
        if uc.main is not None:
            main = len(lines)
            lines.append("      <ucm:MainScenario" + boundary(uc.main))
            lines += [step_line(step, "        ") for step in uc.main.steps]
            _close(lines, main, "      </ucm:MainScenario>")
        # Each body item with its indent, or a block's start line to close; ids follow document order.
        pending = [("      ", block) for block in reversed(uc.extensions)]
        while pending:
            indent, item = pending.pop()
            if type(item) is int:
                _close(lines, item, indent + "</ucm:ExtensionBlock>")
            elif type(item) is Step:
                lines.append(step_line(item, indent))
            else:
                guard = f' guard="{_escape_attrib(item.guard)}"' if item.guard else ""
                pending.append((indent, len(lines)))
                lines.append(
                    f'{indent}<ucm:ExtensionBlock xmi:id="block_{next(block_ids)}" label="{item.label.text}"'
                    f' kind="{item.kind}"{guard}{boundary(item)}'
                )
                pending += [(indent + "  ", nested) for nested in reversed(item.body)]
        _close(lines, start, f"    </{tag}>")

    _close(lines, 2, "  </ucm:Model>")
    lines += ["</xmi:XMI>", ""]  # the last line ends in a newline too
    return "\n".join(lines)


def _attr(name: str, value: str | None) -> str:
    """The text of one attribute, none for a value the model lacks. Only free
    text can hold a character ElementTree escapes: every other value is an
    identifier, a keyword, a label, an xmi:id or a number."""
    return "" if value is None else f' {name}="{value}"'


def _close(lines: list[str], start: int, end_tag: str) -> None:
    """End the start tag `lines[start]`: with ` />` if no line follows it, else with `>`, and the element with `end_tag`."""
    if len(lines) == start + 1:
        lines[start] += " />"
    else:
        lines[start] += ">"
        lines.append(end_tag)


# ElementTree's escapes in an attribute value.
_ATTRIB_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
_ATTRIB_SPECIAL_RE = re.compile("[" + "".join(_ATTRIB_ESCAPES) + "]")


def _escape_attrib(text: str) -> str:
    """Free text as ElementTree writes it in an attribute value."""
    return text if _ATTRIB_SPECIAL_RE.search(text) is None else _ATTRIB_SPECIAL_RE.sub(lambda m: _ATTRIB_ESCAPES[m[0]], text)


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
