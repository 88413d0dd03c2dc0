"""Brute-force reference implementations used only as test oracles.

Kept deliberately independent of the production code: plain edge
lists, frontier expansion instead of recursive DFS, a coloured search over
every parallel edge instead of one over distinct callees, a forward walk per
handler context instead of one walk over callers per exception, newline
counting instead of a line index, a two-pass `finditer` lexer instead of one
match per token, an ElementTree serialized by the standard library instead
of the XMI exporter's own writer, no shared helpers.
"""

from __future__ import annotations

import io
import re
import xml.etree.ElementTree as ET

from ucm.lexer import LexError, TokenKind
from ucm.model import (
    Condition,
    ControlFlow,
    ExceptionRef,
    ExtensionBlock,
    Interaction,
    Internal,
    Invocation,
    ModeSwitch,
    Outcome,
    Step,
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


def position_at(source: str, offset: int) -> tuple[int, int]:
    """(line, column), both 1-based, for an offset into LF-normalized text,
    counted from scratch. Offsets at or past the end of the text land one
    column past the last character of the final line."""
    offset = max(0, min(offset, len(source)))
    line = source.count("\n", 0, offset) + 1
    last_nl = source.rfind("\n", 0, offset)
    return line, offset - last_nl


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
    "number": TokenKind.NUMBER,
    "label": TokenKind.LABEL,
    "ident": TokenKind.IDENT,
    "string": TokenKind.STRING,
    "arrow": TokenKind.ARROW,
    "coloncolon": TokenKind.COLONCOLON,
    "dotdot": TokenKind.DOTDOT,
    ":": TokenKind.COLON,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "*": TokenKind.STAR,
}


def reference_tokenize(source: str, file: str) -> list[tuple[TokenKind, str, int, int]]:
    """(kind, text, start, end) of every token of LF-normalized source, EOF
    last. First pass: `finditer` over whitespace, comments and tokens, one
    group each, stopping where it skips text. Second pass: drop whitespace and
    comments. Raises LexError at the first character a string may not hold
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
                    raise LexError(f"string holds {kind} U+{ord(char):04X}", SourceSpan(file, offset, offset + 1))
    if pos < len(source):
        raise LexError(f"unrecognized character {source[pos]!r}", SourceSpan(file, pos, pos + 1))
    tokens = []
    for m in matches:
        group = m.lastgroup
        if group not in ("ws", "comment"):
            kind = _REFERENCE_KINDS[m.group() if group == "punct" else group]
            tokens.append((kind, m.group(), m.start(), m.end()))
    return tokens + [(TokenKind.EOF, "", pos, pos)]


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

    mode_ids: dict[str, str] = {}
    exc_ids: dict[str, str] = {}
    svc_ids: dict[str, str] = {}
    uc_ids: dict[str, str] = {}
    actor_ids: dict[tuple[str, str], str] = {}

    for i, uc in enumerate(model.use_cases, 1):
        uc_ids[uc.name] = f"usecase_{i}"
    for i, svc in enumerate(model.services, 1):
        svc_ids[svc.name] = f"service_{i}"

    for i, mode in enumerate(model.modes, 1):
        mode_ids[mode.name] = f"mode_{i}"
        attrs = {
            f"{{{_XMI_NS}}}id": mode_ids[mode.name],
            "name": mode.name,
            "kind": mode.kind.value,
            "default": "true" if mode.is_default else "false",
        }
        offers = [svc_ids[s] for s in mode.offered_services if s in svc_ids]
        if offers:
            attrs["offers"] = " ".join(offers)
        ET.SubElement(model_el, f"{{{_MODEL_NS}}}Mode", attrs)

    for i, exc in enumerate(model.exceptions, 1):
        exc_ids[exc.qualified_name] = f"exception_{i}"
        ET.SubElement(
            model_el,
            f"{{{_MODEL_NS}}}Exception",
            {
                f"{{{_XMI_NS}}}id": exc_ids[exc.qualified_name],
                "category": exc.category.value,
                "name": exc.name,
                "global": "true" if exc.is_global else "false",
            },
        )

    for svc in model.services:
        attrs = {f"{{{_XMI_NS}}}id": svc_ids[svc.name], "name": svc.name}
        provides = [uc_ids[g] for g in svc.goals if g in uc_ids]
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
            if payload.qualified_name in exc_ids:
                attrs["raises"] = exc_ids[payload.qualified_name]
            attrs["exceptionName"] = payload.qualified_name
        ET.SubElement(parent, f"{{{_MODEL_NS}}}Step", attrs)

    block_counter = [0]

    def emit_block(parent: ET.Element, block: ExtensionBlock) -> None:
        block_counter[0] += 1
        attrs = {
            f"{{{_XMI_NS}}}id": f"block_{block_counter[0]}",
            "label": block.label.text,
            "kind": block.kind.value,
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
        attrs = {f"{{{_XMI_NS}}}id": uc_ids[uc.name], "name": uc.name}
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
            ctx_attrs = {"relation": ctx.relation.value}
            if ctx.use_case in uc_ids:
                ctx_attrs["contextUseCase"] = uc_ids[ctx.use_case]
            ctx_attrs["contextName"] = ctx.use_case
            if ctx.exception.qualified_name in exc_ids:
                ctx_attrs["exception"] = exc_ids[ctx.exception.qualified_name]
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
