"""Brute-force reference implementations used only as test oracles.

Kept deliberately independent of the production code: plain edge
lists, frontier expansion instead of recursive DFS, a coloured search over
every parallel edge instead of one over distinct callees, a forward walk per
handler context instead of one walk over callers per exception, newline
counting instead of a line index, a two-pass `finditer` lexer instead of one
match per token, an ElementTree serialized by the standard library instead
of the XMI exporter's own writer, the JSON document built as a tree of
dicts and lists and written by `json.dumps` instead of in one walk that
writes the text, a `.ucm` printer written from the README grammar and the
corpus, summary tables rendered line by line, no shared helpers. The JSON
oracle walks the exporter's `_LAYOUT`, the schema that the golden files pin.
"""

from __future__ import annotations

import io
import json
import re
import xml.etree.ElementTree as ET

from ucm.export import _LAYOUT, _NODE_WORDS, _PAYLOAD, _SWITCH, FORMAT_VERSION
from ucm.lexer import EOF, IDENT, LABEL, NUMBER, STRING, SYMBOL, ParseError
from ucm.model import (
    CATEGORY_KEYWORD,
    MAX_DIGITS,
    ActorRef,
    Condition,
    ControlFlow,
    ExceptionRef,
    ExtensionBlock,
    Interaction,
    Internal,
    Invocation,
    Model,
    ModeSwitch,
    Outcome,
    Scenario,
    Step,
    StepLabel,
    UseCase,
)
from ucm.resolver import ResolvedModel
from ucm.spans import SourceSpan


def brute_force_paths(
    nodes: list[str], edges: list[tuple[str, str]], target: str
) -> list[tuple[str, ...]]:
    """Every simple path from any root (node without incoming edges) to
    target, found by exhaustively growing all simple paths one edge at a
    time. Duplicate edges in the input each contribute their own paths.
    """
    has_incoming = {b for _, b in edges}
    frontier: list[tuple[str, ...]] = [(n,) for n in nodes if n not in has_incoming]
    found: list[tuple[str, ...]] = []
    while frontier:
        grown: list[tuple[str, ...]] = []
        for path in frontier:
            if path[-1] == target:
                found.append(path)
                continue
            for a, b in edges:
                if a == path[-1] and b not in path:
                    grown.append(path + (b,))
        frontier = grown
    return sorted(found)


def declared_order_cycle(nodes: list[str], edges: list[tuple[str, str]]) -> list[str] | None:
    """The witness cycle of a depth-first search with white, grey and black
    colours that starts from the nodes in order and follows every edge, each
    parallel copy too, in the order it is listed: the grey node that the
    first edge back into the stack reaches, the nodes down the stack to that
    edge's caller, and the grey node again. None when the graph is acyclic.
    """
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for caller, callee in edges:
        adj[caller].append(callee)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    parent: dict[str, str] = {}
    for start in nodes:
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        color[start] = GREY
        while stack:
            node, i = stack[-1]
            if i < len(adj[node]):
                stack[-1] = (node, i + 1)
                nxt = adj[node][i]
                if color[nxt] == GREY:
                    cycle = [nxt]
                    cur = node
                    while cur != nxt:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.append(nxt)
                    cycle.reverse()
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return None


def unreached_handler_contexts(resolved: ResolvedModel) -> list[tuple[str, SourceSpan]]:
    """(message, span) of every E007 in document order: a handler context on
    a defined, non-global exception and a defined use case from which no
    raise site of that exception can be reached. One forward walk over
    invocations per context, then a scan of every raise site."""
    found = []
    for uc in resolved.model.use_cases:
        if not uc.is_handler:
            continue
        for ctx in uc.contexts:
            name = ctx.exception.qualified_name
            definition = resolved.exception_by_qualified_name.get(name)
            if definition is None or definition.is_global or ctx.use_case not in resolved.use_case_by_name:
                continue
            reach: set[str] = set()
            frontier = [ctx.use_case]
            while frontier:
                current = frontier.pop()
                if current not in reach:
                    reach.add(current)
                    frontier += [t.name for _, t in resolved.invocations_of(resolved.use_case_by_name[current])]
            if not any(site.use_case.name in reach for site in resolved.sites_by_exception.get(name, [])):
                message = f"exception '{name}' does not occur in '{ctx.use_case}' or in any use case it invokes"
                found.append((message, ctx.span))
    return found


def reference_mode_switch_table(resolved: ResolvedModel) -> list[tuple[str, str, str, str]]:
    """(use case, location, from mode, to mode) of every mode-switch row, by
    recursive nested functions over the block tree: a block's begin row, the
    rows of its nested blocks, then its end row, with the mode of its begin
    switch in effect inside it."""
    default_mode = resolved.model.default_mode()
    default = default_mode.name if default_mode else ""
    rows: list[tuple[str, str, str, str]] = []
    entered: dict[str, set[str]] = {}
    for site in resolved.raise_sites():
        switch = site.block and (site.block.entry_switch or site.block.exit_switch)
        if switch is not None:
            entered.setdefault(site.step.payload.qualified_name, set()).add(switch.mode)

    def emit(uc: UseCase, location: str, current: str, to_mode: str) -> str:
        if to_mode != current:
            rows.append((uc.name, location, current, to_mode))
        return to_mode

    def walk_block(uc: UseCase, block: ExtensionBlock, inherited: str) -> None:
        current = inherited
        if block.entry_switch is not None:
            current = emit(uc, f"block {block.label.text}-begin", current, block.entry_switch.mode)
        for nested in block.nested_blocks():
            walk_block(uc, nested, current)
        if block.exit_switch is not None:
            emit(uc, f"block {block.label.text}-end", current, block.exit_switch.mode)

    for uc in resolved.model.use_cases:
        current = default
        if uc.is_handler:
            candidates: set[str] = set()
            for ctx in uc.contexts:
                candidates |= entered.get(ctx.exception.qualified_name, set())
            current = candidates.pop() if len(candidates) == 1 else default
        if uc.main is not None:
            if uc.main.entry_switch is not None:
                current = emit(uc, "main-begin", current, uc.main.entry_switch.mode)
            for block in uc.extensions:
                walk_block(uc, block, current)
            if uc.main.exit_switch is not None:
                emit(uc, "main-end", current, uc.main.exit_switch.mode)
    return rows


def reference_exception_details(resolved: ResolvedModel) -> list[tuple[str, str, list[str], list[str]]]:
    """(exception, source use case, situations, participating actors) of
    every global-view exception row, in table order. Raise steps are
    collected by a recursive walk of each use case, its main steps first,
    then its blocks, a block's own steps before its nested blocks. A row's
    situations are the distinct guards of its raising blocks, and its actors
    the distinct non-System endpoints of the interactions in those blocks'
    steps and in the steps each block hangs off, in order of first
    appearance. The steps a block hangs off are found by comparing its label,
    less the final letter, with the label texts of its parent sequence,
    first occurrence per label: one step, or for an anchor ``lo-hi`` whose
    ends both exist, every step numbered lo to hi."""
    sites: list[tuple[str, str, ExtensionBlock | None, list[Step]]] = []  # with the steps scanned for actors

    def hangs_off(block: ExtensionBlock, parent: list[Step]) -> list[Step]:
        text = block.label.text
        if not text[-1].isalpha():
            return []
        anchor = text[:-1]
        first: dict[str, Step] = {}
        for step in parent:
            first.setdefault(step.label.text, step)
        lo, dash, hi = anchor.partition("-")
        if dash and lo.isdigit() and hi.isdigit():
            if lo not in first or hi not in first:
                return []
            return [first[str(k)] for k in range(int(lo), int(hi) + 1) if str(k) in first]
        return [first[anchor]] if anchor in first else []

    def visit(uc: UseCase, block: ExtensionBlock, parent: list[Step]) -> None:
        steps = [item for item in block.body if isinstance(item, Step)]
        scanned = steps + hangs_off(block, parent)
        for step in steps:
            if isinstance(step.payload, ExceptionRef):
                sites.append((step.payload.qualified_name, uc.name, block, scanned))
        for item in block.body:
            if isinstance(item, ExtensionBlock):
                visit(uc, item, steps)

    for uc in resolved.model.use_cases:
        main = uc.main.steps if uc.main is not None else []
        for step in main:
            if isinstance(step.payload, ExceptionRef):
                sites.append((step.payload.qualified_name, uc.name, None, []))
        for block in uc.extensions:
            visit(uc, block, main)

    def details(found: list[tuple[str, str, ExtensionBlock | None, list[Step]]]) -> tuple[list[str], list[str]]:
        situations: list[str] = []
        actors: list[str] = []
        for _, _, block, scanned in found:
            if block is not None and block.guard and block.guard not in situations:
                situations.append(block.guard)
            for step in scanned:
                if isinstance(step.payload, Interaction):
                    for actor in (step.payload.source, step.payload.target):
                        if actor != "System" and actor not in actors:
                            actors.append(actor)
        return situations, actors

    rows = []
    for exc in resolved.model.exceptions:
        found = [site for site in sites if site[0] == exc.qualified_name]
        if exc.is_global:
            if found:
                rows.append((exc.qualified_name, "(global)", *details(found)))
        else:
            rows += [(exc.qualified_name, site[1], *details([site])) for site in found]
    return rows


def reference_label_text(anchor_lo: int, anchor_hi: int | None, suffix: tuple[tuple[str, int | None], ...]) -> str:
    """A step label's text, written out field by field: the anchor, `-` and
    the range end if any, then each letter with its number if any."""
    text = "%d" % anchor_lo
    if anchor_hi is not None:
        text += "-%d" % anchor_hi
    for letter, num in suffix:
        text += letter if num is None else "%s%d" % (letter, num)
    return text


def position_at(source: str, offset: int) -> tuple[int, int]:
    """(line, column), both 1-based, for an offset into LF-normalized text,
    counted from scratch. Offsets at or past the end of the text land one
    column past the last character of the final line."""
    offset = max(0, min(offset, len(source)))
    line = source.count("\n", 0, offset) + 1
    last_nl = source.rfind("\n", 0, offset)
    return line, offset - last_nl


def reference_line_starts(text: str) -> list[int]:
    """The offset at which each line of LF-normalized text starts: 0, and
    the offset after each newline."""
    return [0, *(m.end() for m in re.finditer("\n", text))]


def reference_caret_pad(prefix: str) -> str:
    """The indent of a diagnostic's carets under `prefix`, the excerpt
    before the caret column: each tab kept, every other character a space."""
    return "".join(c if c == "\t" else " " for c in prefix)


def reference_step_numbering(uc: UseCase) -> list[tuple[SourceSpan, str, list[str]]]:
    """Each E002 of one use case as (span, message, suggestions), by walking
    each sequence label by label: the main scenario counts 1, 2, 3, ...; the
    block labelled L counts L1, L2, ...; a step after a range or a block label
    is out of step, with no suggestion; a block whose label does not end in a
    letter is not numbered at all."""
    found: list[tuple[SourceSpan, str, list[str]]] = []

    def walk(steps: list[Step], expected: tuple | None) -> None:
        for step in steps:
            lo, hi, suffix = fields = tuple(step.label)
            if fields != expected:
                message = f"step '{reference_label_text(*fields)}' does not follow the step numbering"
                found.append((step.span, message, [] if expected is None else [reference_label_text(*expected)]))
            if not suffix:
                expected = (lo + 1, None, ()) if hi is None else None
            elif suffix[-1][1] is None:
                expected = None
            else:
                expected = (lo, hi, (*suffix[:-1], (suffix[-1][0], suffix[-1][1] + 1)))

    if uc.main is not None:
        walk(uc.main.steps, (1, None, ()))
    for block in uc.all_blocks():
        lo, hi, suffix = block.label
        if suffix and suffix[-1][1] is None:
            walk(block.steps(), (lo, hi, (*suffix[:-1], (suffix[-1][0], 1))))
    return found


_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\n]+)
    | (?P<comment>//[^\n]*)
    | (?P<number>\d+\.\d+)
    | (?P<label>\d+(?:-\d+)?(?:[a-z]\d*)*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<arrow>->)
    | (?P<coloncolon>::)
    | (?P<dotdot>\.\.)
    | (?P<punct>[:,.{}\[\]*])
    """,
    re.VERBOSE,
)

_REFERENCE_KINDS = {
    "number": NUMBER,
    "label": LABEL,
    "ident": IDENT,
    "string": STRING,
    "arrow": SYMBOL,
    "coloncolon": SYMBOL,
    "dotdot": SYMBOL,
    "punct": SYMBOL,
}


def reference_tokenize(source: str, file: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, start, end) of every token of LF-normalized source, EOF
    last. First pass: `finditer` over whitespace, comments and tokens, one
    group each, stopping where it skips text. Second pass: drop whitespace and
    comments. Raises ParseError at the first character a string may not hold
    (below U+0020 but TAB, U+FFFE, U+FFFF), else at the first offset nothing
    matches."""
    matches = []
    pos = 0
    for m in _REFERENCE_TOKEN_RE.finditer(source):
        if m.start() != pos:
            break
        matches.append(m)
        pos = m.end()
    for m in matches:
        if m.lastgroup == "string":
            for offset, char in enumerate(m.group(), m.start()):
                if (char < " " and char != "\t") or char in "\ufffe\uffff":
                    kind = "control character" if char < " " else "noncharacter"
                    raise ParseError(f"string holds {kind} U+{ord(char):04X}", SourceSpan(file, offset, offset + 1))
    if pos < len(source):
        raise ParseError(f"unrecognized character {source[pos]!r}", SourceSpan(file, pos, pos + 1))
    tokens = []
    for m in matches:
        group = m.lastgroup
        if group not in ("ws", "comment"):
            kind = _REFERENCE_KINDS[group]
            tokens.append((kind, m.group(), m.start(), m.end()))
    return tokens + [(EOF, "", pos, pos)]


def reference_render_table(table, format: str) -> str:
    """`render_table` as each row rendered into a line of its own, the lines
    joined and the last row end appended: Markdown with `|` escaped and LF
    turned into a space in every cell, or CSV as the stdlib writer writes it
    with CRLF row ends and QUOTE_MINIMAL."""
    if format == "md":
        rows = [[c.replace("|", "\\|").replace("\n", " ") for c in row] for row in (table.columns, *table.rows)]
        lines = ["| " + " | ".join(row) + " |" for row in rows]
        lines.insert(1, "| " + " | ".join("---" for _ in table.columns) + " |")
        return "\n".join(lines) + "\n"
    lines = []
    for row in (table.columns, *table.rows):
        fields = []
        for cell in row:
            if '"' in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            elif "," in cell or "\n" in cell or "\r" in cell:
                cell = '"' + cell + '"'
            fields.append(cell)
        line = ",".join(fields)
        lines.append('""' if not line and len(row) == 1 else line)
    return "\r\n".join(lines) + "\r\n"


_XMI_NS = "http://www.omg.org/XMI"
_MODEL_NS = "http://ucm4iot/1.0"


def elementtree_xmi(resolved: ResolvedModel) -> str:
    """`export_xmi` built as an ElementTree, indented by `ET.indent` and
    serialized by `ElementTree.write`: the generic serializer whose text the
    exporter's own writer must reproduce byte for byte."""
    model = resolved.model
    ET.register_namespace("xmi", _XMI_NS)
    ET.register_namespace("ucm", _MODEL_NS)
    root = ET.Element(f"{{{_XMI_NS}}}XMI", {f"{{{_XMI_NS}}}version": "2.0"})
    model_el = ET.SubElement(root, f"{{{_MODEL_NS}}}Model", {f"{{{_XMI_NS}}}id": "model_1", "name": model.name})

    # Every definition is numbered by its position among its kind. A
    # reference takes the number of the definition the resolver bound it to,
    # an `offers` or `provides` name that of the first definition so named.
    mode_ids = [f"mode_{i}" for i in range(1, len(model.modes) + 1)]
    exc_ids = [f"exception_{i}" for i in range(1, len(model.exceptions) + 1)]
    svc_ids = [f"service_{i}" for i in range(1, len(model.services) + 1)]
    uc_ids = [f"usecase_{i}" for i in range(1, len(model.use_cases) + 1)]
    actor_ids: dict[tuple[str, str], str] = {}

    def bound_id(definitions: list, ids: list[str], bound: object) -> str | None:
        for definition, xmi_id in zip(definitions, ids):
            if definition is bound:
                return xmi_id
        return None

    def first_refs(definitions: list, ids: list[str], names: list[str]) -> list[str]:
        found = []
        for name in names:
            for definition, xmi_id in zip(definitions, ids):
                if definition.name == name:
                    found.append(xmi_id)
                    break
        return found

    for mode, mode_id in zip(model.modes, mode_ids):
        attrs = {
            f"{{{_XMI_NS}}}id": mode_id,
            "name": mode.name,
            "kind": mode.kind,
            "default": "true" if mode.is_default else "false",
        }
        offers = first_refs(model.services, svc_ids, mode.offered_services)
        if offers:
            attrs["offers"] = " ".join(offers)
        ET.SubElement(model_el, f"{{{_MODEL_NS}}}Mode", attrs)

    for exc, exc_id in zip(model.exceptions, exc_ids):
        ET.SubElement(
            model_el,
            f"{{{_MODEL_NS}}}Exception",
            {
                f"{{{_XMI_NS}}}id": exc_id,
                "category": exc.category,
                "name": exc.name,
                "global": "true" if exc.is_global else "false",
            },
        )

    for svc, svc_id in zip(model.services, svc_ids):
        attrs = {f"{{{_XMI_NS}}}id": svc_id, "name": svc.name}
        provides = first_refs(model.use_cases, uc_ids, svc.goals)
        if provides:
            attrs["provides"] = " ".join(provides)
        ET.SubElement(model_el, f"{{{_MODEL_NS}}}Service", attrs)

    for uc in model.use_cases:
        for ref in uc.all_actors():
            key = (ref.category or "", ref.name)
            if key not in actor_ids:
                actor_ids[key] = f"actor_{len(actor_ids) + 1}"
                attrs = {f"{{{_XMI_NS}}}id": actor_ids[key], "name": ref.name}
                if ref.category:
                    attrs["category"] = ref.category
                ET.SubElement(model_el, f"{{{_MODEL_NS}}}Actor", attrs)

    step_counter = [0]

    def emit_step(parent: ET.Element, step: Step) -> None:
        step_counter[0] += 1
        attrs = {
            f"{{{_XMI_NS}}}id": f"step_{step_counter[0]}",
            "label": step.label.text,
            "kind": step.kind,
        }
        payload = step.payload
        if isinstance(payload, Interaction):
            attrs.update(source=payload.source, target=payload.target, message=payload.message)
        elif isinstance(payload, Invocation):
            if (invoked := bound_id(model.use_cases, uc_ids, resolved.binding_for(step))) is not None:
                attrs["invokes"] = invoked
            attrs["targetName"] = payload.target
        elif isinstance(payload, Condition):
            attrs["text"] = payload.text
        elif isinstance(payload, Internal):
            attrs["description"] = payload.description
            if payload.timeout is not None:
                amount = payload.timeout.amount
                attrs["timeoutAmount"] = str(int(amount)) if amount == int(amount) else str(amount)
                attrs["timeoutUnit"] = payload.timeout.unit
        elif isinstance(payload, ControlFlow):
            if payload.goto is not None:
                attrs["goto"] = payload.goto.text
            if payload.repeat_from is not None:
                attrs["repeatFrom"] = payload.repeat_from.text
            if payload.repeat_to is not None:
                attrs["repeatTo"] = payload.repeat_to.text
        elif isinstance(payload, ExceptionRef):
            if (raised := bound_id(model.exceptions, exc_ids, resolved.binding_for(payload))) is not None:
                attrs["raises"] = raised
            attrs["exceptionName"] = payload.qualified_name
        ET.SubElement(parent, f"{{{_MODEL_NS}}}Step", attrs)

    block_counter = [0]

    def emit_block(parent: ET.Element, block: ExtensionBlock) -> None:
        block_counter[0] += 1
        attrs = {
            f"{{{_XMI_NS}}}id": f"block_{block_counter[0]}",
            "label": block.label.text,
            "kind": block.kind,
        }
        if block.guard:
            attrs["guard"] = block.guard
        _switch_attrs(attrs, block.entry_switch, block.exit_switch)
        _outcome_attrs(attrs, block.outcome)
        block_el = ET.SubElement(parent, f"{{{_MODEL_NS}}}ExtensionBlock", attrs)
        for item in block.body:
            if isinstance(item, Step):
                emit_step(block_el, item)
            else:
                emit_block(block_el, item)

    def _switch_attrs(attrs: dict, entry: ModeSwitch | None, exit_switch: ModeSwitch | None) -> None:
        for name, switch in (("entryMode", entry), ("exitMode", exit_switch)):
            if switch is not None and (mode_id := bound_id(model.modes, mode_ids, resolved.binding_for(switch))):
                attrs[name] = mode_id

    def _outcome_attrs(attrs: dict, outcome: Outcome) -> None:
        attrs["outcome"] = outcome.kind
        if outcome.continue_target is not None:
            attrs["continueTarget"] = outcome.continue_target.text

    for uc, uc_id in zip(model.use_cases, uc_ids):
        tag = "Handler" if uc.is_handler else "UseCase"
        attrs = {f"{{{_XMI_NS}}}id": uc_id, "name": uc.name}
        if uc.level is not None:
            attrs["level"] = uc.level
        for field_name, value in (
            ("scope", uc.scope),
            ("intention", uc.intention),
            ("multiplicity", uc.multiplicity_text),
            ("precondition", uc.precondition),
            ("postcondition", uc.postcondition),
        ):
            if value is not None:
                attrs[field_name] = value
        uc_el = ET.SubElement(model_el, f"{{{_MODEL_NS}}}{tag}", attrs)

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
                ET.SubElement(uc_el, f"{{{_MODEL_NS}}}ActorRef", ref_attrs)

        for ctx in uc.contexts:
            ctx_attrs = {"relation": ctx.relation}
            if (context_id := bound_id(model.use_cases, uc_ids, resolved.binding_for(ctx))) is not None:
                ctx_attrs["contextUseCase"] = context_id
            ctx_attrs["contextName"] = ctx.use_case
            if (exc_id := bound_id(model.exceptions, exc_ids, resolved.binding_for(ctx.exception))) is not None:
                ctx_attrs["exception"] = exc_id
            ctx_attrs["exceptionName"] = ctx.exception.qualified_name
            ET.SubElement(uc_el, f"{{{_MODEL_NS}}}Context", ctx_attrs)

        if uc.main is not None:
            main_attrs: dict = {}
            _switch_attrs(main_attrs, uc.main.entry_switch, uc.main.exit_switch)
            _outcome_attrs(main_attrs, uc.main.outcome)
            main_el = ET.SubElement(uc_el, f"{{{_MODEL_NS}}}MainScenario", main_attrs)
            for step in uc.main.steps:
                emit_step(main_el, step)
        for block in uc.extensions:
            emit_block(uc_el, block)

    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    out = io.StringIO()
    tree.write(out, encoding="unicode", xml_declaration=True)
    return out.getvalue() + "\n"


def reference_export_json(model: Model) -> str:
    """`export_json` as a tree of dicts and lists, keys in `_LAYOUT` order,
    written by `json.dumps(doc, indent=2)`."""
    return json.dumps({"formatVersion": FORMAT_VERSION, **_json_object(model)}, indent=2) + "\n"


def _json_object(node) -> dict:
    """`node` as its JSON object: a block body's item opens with its `node`
    word, and a step's payload keys follow its `kind`, a raise step's payload
    as an object under `exception`."""
    doc = {"node": _NODE_WORDS[type(node)]} if type(node) in _NODE_WORDS else {}
    for key, attr, kind, *_ in _LAYOUT[type(node)]:
        if kind is _PAYLOAD:
            doc[key] = node.kind
            payload = _json_object(node.payload)
            doc.update({"exception": payload} if type(node.payload) is ExceptionRef else payload)
        else:
            doc[key] = _json_value(getattr(node, attr), kind)
    return doc


def _json_value(value, kind):
    if value is None:
        return None
    if isinstance(kind, list):
        return [_json_object(item) for item in value]
    if kind in _LAYOUT:
        return _json_object(value)
    if kind is _SWITCH:
        return value.mode
    if kind is StepLabel:
        return value.text
    return value


def print_model(model: Model) -> str:
    """`.ucm` text that parses back to `model`, spans aside: the grammar of
    the README, clauses in their mandatory order, strings quoted with `\\`
    before every `"` and `\\`. A timeout amount is written as the decimal of
    at most `MAX_DIGITS` digits a side nearest it, or as that many nines when
    it is what they read as. Only a model `.ucm` text can write comes back
    equal, compared through `export_json`."""
    lines = [f"model {model.name}", "modes {"]
    for mode in model.modes:
        offers = f" offers {', '.join(mode.offered_services)}" if mode.offered_services else ""
        lines.append(f"  {'default ' if mode.is_default else ''}{mode.kind} {mode.name}{offers}")
    lines += ["}", "exceptions {"]
    for exc in model.exceptions:
        lines.append(f"  exception {CATEGORY_KEYWORD[exc.category]}::{exc.name}{' global' if exc.is_global else ''}")
    lines += ["}", "services {"]
    for svc in model.services:
        lines.append(f"  service {svc.name} provides {', '.join(svc.goals)}")
    lines.append("}")
    for uc in model.use_cases:
        lines += _print_use_case(uc)
    return "\n".join(lines) + "\n"


def _quote(text: str | None) -> str | None:
    return None if text is None else '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _print_actor(ref: ActorRef) -> str:
    text = ref.name if ref.category is None else f"{ref.category}::{ref.name}"
    if ref.multiplicity is not None:
        upper = "*" if ref.multiplicity.upper is None else ref.multiplicity.upper
        text += f" [{ref.multiplicity.lower}..{upper}]"
    return text


def _print_use_case(uc: UseCase) -> list[str]:
    contexts = [
        f"{ctx.use_case} on {CATEGORY_KEYWORD[ctx.exception.category]}::{ctx.exception.name} {ctx.relation}"
        for ctx in uc.contexts
    ]
    clauses = [
        ("scope", _quote(uc.scope)),
        ("level", uc.level),
        ("intention", _quote(uc.intention)),
        ("multiplicity", _quote(uc.multiplicity_text)),
        ("primary", ", ".join(map(_print_actor, uc.primary_actors)) or None),
        ("secondary", ", ".join(map(_print_actor, uc.secondary_actors)) or None),
        ("facilitator", ", ".join(map(_print_actor, uc.facilitator_actors)) or None),
        ("precondition", _quote(uc.precondition)),
        ("postcondition", _quote(uc.postcondition)),
        ("contexts", ", ".join(contexts) or None),
    ]
    lines = [f"{'handler' if uc.is_handler else 'usecase'} {uc.name} {{"]
    lines += [f"  {clause}: {text}" for clause, text in clauses if text is not None]
    if uc.main is not None:
        lines += _print_body("  main {", uc.main, uc.main.steps, "  ")
    if uc.extensions:
        lines.append("  extensions {")
        for block in uc.extensions:
            lines += _print_block(block, "    ")
        lines.append("  }")
    lines.append("}")
    return lines


def _print_block(block: ExtensionBlock, indent: str) -> list[str]:
    guard = f" when {_quote(block.guard)}" if block.guard else ""
    head = f"{indent}block {block.label.text} {block.kind}{guard} {{"
    return _print_body(head, block, block.body, indent)


def _print_body(head: str, owner: Scenario | ExtensionBlock, items: list, indent: str) -> list[str]:
    lines = [head]
    inner = indent + "  "
    if owner.entry_switch is not None:
        lines.append(f"{inner}mode switch: {owner.entry_switch.mode}")
    for item in items:
        lines += [inner + _print_step(item)] if isinstance(item, Step) else _print_block(item, inner)
    if owner.exit_switch is not None:
        lines.append(f"{inner}mode switch: {owner.exit_switch.mode}")
    target = owner.outcome.continue_target
    lines.append(f"{inner}outcome {owner.outcome.kind}{'' if target is None else ' ' + target.text}")
    lines.append(indent + "}")
    return lines


def _print_amount(amount: float) -> str:
    text = f"{amount:.{MAX_DIGITS}f}".rstrip("0").rstrip(".")
    return "9" * MAX_DIGITS if len(text.split(".")[0]) > MAX_DIGITS else text


def _print_step(step: Step) -> str:
    payload = step.payload
    if isinstance(payload, Interaction):
        text = f"{payload.source} -> {payload.target} : {_quote(payload.message)}"
    elif isinstance(payload, Invocation):
        text = f"invoke {payload.target}"
    elif isinstance(payload, Condition):
        text = f"condition {_quote(payload.text)}"
    elif isinstance(payload, Internal):
        timeout = payload.timeout
        limit = "" if timeout is None else f"timeout {_print_amount(timeout.amount)} {timeout.unit} "
        text = f"internal {limit}{_quote(payload.description)}"
    elif isinstance(payload, ControlFlow):
        if payload.goto is not None:
            text = f"goto {payload.goto.text}"
        else:
            text = f"repeat {payload.repeat_from.text}-{payload.repeat_to.text}"
    else:
        text = f"raise {CATEGORY_KEYWORD[payload.category]}::{payload.name}"
    return f"{step.label.text}. {text}"
