"""Brute-force reference implementations used only as test oracles.

Kept deliberately independent of the production code: plain edge
lists, frontier expansion instead of recursive DFS, a coloured search over
every parallel edge instead of one over distinct callees, a forward walk per
handler context instead of one walk over callers per exception, newline
counting instead of a line index, a two-pass `finditer` lexer instead of one
match per token, an ElementTree serialized by the standard library instead
of the XMI exporter's own writer, a `.ucm` printer written from the README
grammar and the corpus, no shared helpers.
"""

from __future__ import annotations

import io
import re
import xml.etree.ElementTree as ET

from ucm.lexer import LexError, TokenKind
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
            "kind": mode.kind.value,
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
                "category": exc.category.value,
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
            "kind": step.kind.value,
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
        for name, switch in (("entryMode", entry), ("exitMode", exit_switch)):
            if switch is not None and (mode_id := bound_id(model.modes, mode_ids, resolved.binding_for(switch))):
                attrs[name] = mode_id

    def _outcome_attrs(attrs: dict, outcome: Outcome) -> None:
        attrs["outcome"] = outcome.kind.value
        if outcome.continue_target is not None:
            attrs["continueTarget"] = outcome.continue_target.text

    for uc, uc_id in zip(model.use_cases, uc_ids):
        tag = "Handler" if uc.is_handler else "UseCase"
        attrs = {f"{{{_XMI_NS}}}id": uc_id, "name": uc.name}
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
        lines.append(f"  {'default ' if mode.is_default else ''}{mode.kind.value} {mode.name}{offers}")
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
        f"{ctx.use_case} on {CATEGORY_KEYWORD[ctx.exception.category]}::{ctx.exception.name} {ctx.relation.value}"
        for ctx in uc.contexts
    ]
    clauses = [
        ("scope", _quote(uc.scope)),
        ("level", None if uc.level is None else uc.level.value),
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
    head = f"{indent}block {block.label.text} {block.kind.value}{guard} {{"
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
    lines.append(f"{inner}outcome {owner.outcome.kind.value}{'' if target is None else ' ' + target.text}")
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
