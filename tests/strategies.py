"""Hypothesis strategies producing random grammatically-valid model sources.

The generator aims for syntactic breadth (every clause, step kind, block
shape), not semantic cleanliness; generated models may carry validation
diagnostics but must always parse. `token_mutated_source` instead breaks a
given model a few tokens at a time, for the never-crash properties.
"""

from __future__ import annotations

from functools import cache

from hypothesis import strategies as st

from ucm.lexer import normalize, scan

MODE_KINDS = ("normal", "degraded", "restricted", "emergency")
CATEGORIES = ("HardwareException", "SoftwareException", "NetworkException", "EnvironmentException")
ACTOR_CATEGORIES = ("Human", "Software", "PhysicalEntity", "Device", "Sensor", "Actuator", "Tag", "Reader")
LEVELS = ("summary", "user-goal", "sub-function")
WORDS = st.text(alphabet="abcdefghij xyz", min_size=1, max_size=12).map(str.strip).filter(bool)


@st.composite
def step_line(draw, index: int, uc_names: list[str], exceptions: list[str], prefix: str = "") -> str:
    label = f"{prefix}{index}"
    choices = ["interaction", "condition", "internal", "goto"]
    if uc_names:
        choices.append("invoke")
    if exceptions:
        choices.append("raise")
    kind = draw(st.sampled_from(choices))
    if kind == "interaction":
        actor = draw(st.sampled_from(("P", "Q", "Dev")))
        left = draw(st.booleans())
        ends = (actor, "System") if left else ("System", actor)
        return f'{label}. {ends[0]} -> {ends[1]} : "{draw(WORDS)}"'
    if kind == "invoke":
        return f"{label}. invoke {draw(st.sampled_from(uc_names))}"
    if kind == "condition":
        return f'{label}. condition "{draw(WORDS)}"'
    if kind == "internal":
        if draw(st.booleans()):
            amount = draw(st.sampled_from(("1", "5", "30", "2.5", "0.5")))
            unit = draw(st.sampled_from(("ms", "s", "min")))
            return f'{label}. internal timeout {amount} {unit} "{draw(WORDS)}"'
        return f'{label}. internal "{draw(WORDS)}"'
    if kind == "goto":
        return f"{label}. goto {prefix or ''}1" if prefix else f"{label}. goto 1"
    return f"{label}. raise {draw(st.sampled_from(exceptions))}"


@st.composite
def use_case_source(draw, name: str, is_handler: bool, uc_names: list[str], exceptions: list[str], modes: list[str]) -> str:
    lines = [f"{'handler' if is_handler else 'usecase'} {name} {{"]
    lines.append(f'  scope: "{draw(WORDS)}"')
    lines.append(f"  level: {draw(st.sampled_from(LEVELS))}")
    lines.append(f'  intention: "{draw(WORDS)}"')
    lines.append(f'  multiplicity: "{draw(WORDS)}"')
    category = draw(st.sampled_from(ACTOR_CATEGORIES))
    mult = draw(st.sampled_from(("", " [1..*]", " [0..3]", " [2..2]")))
    lines.append(f"  primary: {category}::P{mult}")
    if draw(st.booleans()):
        lines.append("  secondary: Human::Q, Sensor::Dev [1..*]")
    if draw(st.booleans()):
        lines.append(f'  precondition: "{draw(WORDS)}"')
    if draw(st.booleans()):
        lines.append(f'  postcondition: "{draw(WORDS)}"')
    if is_handler and exceptions and uc_names:
        target = draw(st.sampled_from(uc_names))
        exc = draw(st.sampled_from(exceptions))
        relation = draw(st.sampled_from(("interrupt-continue", "interrupt-fail")))
        lines.append(f"  contexts: {target} on {exc} {relation}")
    lines.append("  main {")
    if modes and draw(st.booleans()):
        lines.append(f"    mode switch: {draw(st.sampled_from(modes))}")
    n_steps = draw(st.integers(min_value=1, max_value=4))
    for i in range(1, n_steps + 1):
        lines.append("    " + draw(step_line(i, uc_names, exceptions)))
    if modes and draw(st.booleans()):
        lines.append(f"    mode switch: {draw(st.sampled_from(modes))}")
    lines.append(f"    outcome {draw(st.sampled_from(('success', 'failure', 'degraded', 'abandoned')))}")
    lines.append("  }")
    if draw(st.booleans()):
        lo = draw(st.integers(min_value=1, max_value=n_steps))
        anchor = str(lo)
        if draw(st.booleans()):  # a ranged anchor `lo-hi`
            anchor += f"-{draw(st.integers(min_value=lo, max_value=n_steps))}"
        lines.append("  extensions {")
        lines.extend(draw(block_lines(anchor, 2, uc_names, exceptions, modes, "    ")))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


@st.composite
def block_lines(
    draw, anchor: str, levels: int, uc_names: list[str], exceptions: list[str], modes: list[str], indent: str,
    letter: str = "a",
) -> list[str]:
    """A block hanging off step `anchor`, with or without an entry and an
    exit mode switch. Up to `levels` more levels of blocks nest inside it:
    one or two sibling blocks may follow each of its steps, hanging off that
    step, so a nested block can sit between steps or next to another."""
    label = f"{anchor}{letter}"
    kind = draw(st.sampled_from(("alternative", "exceptional")))
    guard = f' when "{draw(WORDS)}"' if draw(st.booleans()) else ""
    lines = [f"{indent}block {label} {kind}{guard} {{"]
    if modes and draw(st.booleans()):
        lines.append(f"{indent}  mode switch: {draw(st.sampled_from(modes))}")
    n_block = draw(st.integers(min_value=0, max_value=2))
    for i in range(1, n_block + 1):
        lines.append(f"{indent}  " + draw(step_line(i, uc_names, exceptions, prefix=label)))
        siblings = draw(st.integers(min_value=0, max_value=2)) if levels else 0
        for sibling in "ab"[:siblings]:
            nested = block_lines(f"{label}{i}", levels - 1, uc_names, exceptions, modes, indent + "  ", sibling)
            lines.extend(draw(nested))
    if modes and draw(st.booleans()):
        lines.append(f"{indent}  mode switch: {draw(st.sampled_from(modes))}")
    outcome = draw(st.sampled_from(("success", "failure", "abandoned", "continue 1")))
    lines.append(f"{indent}  outcome {outcome}")
    lines.append(f"{indent}}}")
    return lines


@st.composite
def model_source(draw) -> str:
    n_modes = draw(st.integers(min_value=1, max_value=3))
    mode_names = [f"Mode{i}" for i in range(n_modes)]
    default = draw(st.integers(min_value=0, max_value=n_modes - 1))
    services = ["Svc"] if draw(st.booleans()) else []
    # Now and then one `offers` or `provides` entry names nothing declared (E017).
    unknown = draw(st.sampled_from((None, None, None, None, "offers", "provides")))
    lines = ["model Generated", "modes {"]
    for i, name in enumerate(mode_names):
        kind = draw(st.sampled_from(MODE_KINDS))
        prefix = "default " if i == default else ""
        offers = [svc for svc in services if draw(st.booleans())]
        if unknown == "offers" and i == 0:
            offers.append("Ghost")
        lines.append(f"  {prefix}{kind} {name}" + (f" offers {', '.join(offers)}" if offers else ""))
    lines.append("}")

    n_exc = draw(st.integers(min_value=0, max_value=3))
    exceptions = []
    lines.append("exceptions {")
    for i in range(n_exc):
        category = draw(st.sampled_from(CATEGORIES))
        flag = " global" if draw(st.booleans()) else ""
        exceptions.append(f"{category}::Exc{i}")
        lines.append(f"  exception {category}::Exc{i}{flag}")
    lines.append("}")

    n_ucs = draw(st.integers(min_value=1, max_value=3))
    uc_names = [f"Flow{i}" for i in range(n_ucs)]
    if services or unknown == "provides":
        lines.append("services {")
        lines.append(f"  service Svc provides {uc_names[0]}" + (", Gone" if unknown == "provides" else ""))
        lines.append("}")
    for i, name in enumerate(uc_names):
        is_handler = bool(exceptions) and i == n_ucs - 1 and n_ucs > 1 and draw(st.booleans())
        lines.append(draw(use_case_source(name, is_handler, uc_names, exceptions, mode_names)))
    return "\n".join(lines) + "\n"


@st.composite
def invocation_model_source(draw) -> str:
    """A model of up to 7 use cases that invoke one another along a random
    acyclic graph and raise exceptions at random. A use case invokes only
    those after it in a shuffled order, so name order is not invocation
    order, and it may invoke one use case several times: parallel edges.
    A handler of SoftwareException::Fault in a drawn use case may follow."""
    names = draw(st.permutations([f"U{i}" for i in range(draw(st.integers(min_value=1, max_value=7)))]))
    lines = [
        "model Invocations",
        "modes { default normal Normal }",
        "exceptions {",
        "  exception SoftwareException::Fault",
        "  exception NetworkException::Down global",
        "}",
    ]
    raises = st.sampled_from(("raise SoftwareException::Fault", "raise NetworkException::Down"))
    for i, name in enumerate(names):
        later = names[i + 1 :]
        steps = [f"invoke {callee}" for callee in draw(st.lists(st.sampled_from(later), max_size=4))] if later else []
        steps += draw(st.lists(raises, max_size=2)) or ['internal "x"']
        body = "".join(f"    {n}. {step}\n" for n, step in enumerate(steps, 1))
        lines.append(f"usecase {name} {{\n  main {{\n{body}    outcome success\n  }}\n}}")
    if draw(st.booleans()):
        context = f"{draw(st.sampled_from(names))} on SoftwareException::Fault interrupt-fail"
        body = '  main {\n    1. internal "y"\n    outcome success\n  }\n'
        lines.append(f"handler H {{\n  contexts: {context}\n{body}}}")
    return "\n".join(lines) + "\n"


@cache
def _token_pieces(text: str) -> tuple[list[tuple[str, str, str]], str, dict[str, list[str]]]:
    """The tokens of `text` as (the whitespace and comments before it, its
    kind, its text), the text after the last one, and the distinct token
    texts of each kind."""
    source = normalize(text)
    pieces, end = [], 0
    for kind, token, start, stop in scan(source)[:-1]:
        pieces.append((source[end:start], kind, token))
        end = stop
    by_kind: dict[str, set[str]] = {}
    for _, kind, token in pieces:
        by_kind.setdefault(kind, set()).add(token)
    return pieces, source[end:], {kind: sorted(tokens) for kind, tokens in by_kind.items()}


def retarget(pieces: list[tuple[str, str, str]], i: int) -> None:
    """Point the first `invoke` at or after token `i`, wrapping round to the
    start, at the use case or handler whose header precedes it, so that it
    invokes itself. Nothing changes when no invoke follows a header."""
    for at in (j % len(pieces) for j in range(i, i + len(pieces))):
        if pieces[at][2] == "invoke" and at + 1 < len(pieces):
            head = next((j for j in range(at - 1, -1, -1) if pieces[j][2] in ("usecase", "handler")), None)
            if head is not None:
                gap, kind, _ = pieces[at + 1]
                pieces[at + 1] = (gap, kind, pieces[head + 1][2])
            return


def retargeted(text: str, i: int) -> str:
    """`text` after the `retarget` edit at token `i`."""
    pieces, tail, _ = _token_pieces(text)
    pieces = list(pieces)
    retarget(pieces, i)
    return "".join(gap + token for gap, _, token in pieces) + tail


@st.composite
def token_mutated_source(draw, texts: tuple[str, ...], edits: tuple[str, ...] = ("swap", "delete", "double")) -> str:
    """One of `texts` with 1-4 token edits, each at a drawn token and drawn
    from `edits`: swap it for another token of the same kind from the same
    text, delete it, double it, or `retarget` the next invoke at its own use
    case. The whitespace and comments between tokens are kept. Swaps alone
    keep the text parsing far more often."""
    pieces, tail, by_kind = _token_pieces(draw(st.sampled_from(texts)))
    pieces = list(pieces)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(pieces) - 1))
        gap, kind, token = pieces[i]
        edit = draw(st.sampled_from(edits))
        if edit == "swap":
            pieces[i] = (gap, kind, draw(st.sampled_from(by_kind[kind])))
        elif edit == "delete":
            del pieces[i]
        elif edit == "retarget":
            retarget(pieces, i)
        else:
            pieces.insert(i + 1, (" ", kind, token))
    return "".join(gap + token for gap, _, token in pieces) + tail
