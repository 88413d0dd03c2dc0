"""Abstract syntax tree for textual use-case models.

The tree is built by :mod:`ucm.parser` and is deliberately permissive: clause
presence, actor categories, label ordering and reference resolution are
checked later by the resolver and validator, not by the node types here.
Every node carries a :class:`~ucm.spans.SourceSpan`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .spans import SourceSpan


class ModeKind(str, Enum):
    NORMAL = "normal"
    DEGRADED = "degraded"
    RESTRICTED = "restricted"
    EMERGENCY = "emergency"


class ExceptionCategory(str, Enum):
    HARDWARE = "hardware"
    SOFTWARE = "software"
    NETWORK = "network"
    ENVIRONMENT = "environment"


# Surface keyword <-> category, e.g. "HardwareException::TagUnavailable".
EXCEPTION_KEYWORDS: dict[str, ExceptionCategory] = {
    "HardwareException": ExceptionCategory.HARDWARE,
    "SoftwareException": ExceptionCategory.SOFTWARE,
    "NetworkException": ExceptionCategory.NETWORK,
    "EnvironmentException": ExceptionCategory.ENVIRONMENT,
}
CATEGORY_KEYWORD = {v: k for k, v in EXCEPTION_KEYWORDS.items()}

# Actor category keywords; sensor/actuator/tag/reader are device subkinds.
ACTOR_CATEGORIES = (
    "Human",
    "Software",
    "PhysicalEntity",
    "Device",
    "Sensor",
    "Actuator",
    "Tag",
    "Reader",
)


class Level(str, Enum):
    SUMMARY = "summary"
    USER_GOAL = "user-goal"
    SUB_FUNCTION = "sub-function"


class StepKind(str, Enum):
    INTERACTION = "interaction"
    INVOCATION = "invocation"
    CONDITION = "condition"
    INTERNAL = "internal"
    CONTROL_FLOW = "control-flow"
    RAISE = "exception-raise"


class BlockKind(str, Enum):
    ALTERNATIVE = "alternative"
    EXCEPTIONAL = "exceptional"


class OutcomeKind(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    DEGRADED = "degraded"
    ABANDONED = "abandoned"
    CONTINUE = "continue"


class InterruptRelation(str, Enum):
    CONTINUE = "interrupt-continue"
    FAIL = "interrupt-fail"


# Most digits a number in a model may have: step labels, multiplicity bounds
# and timeout amounts. Such a number, and a label's successor, converts to and
# from `int`, `str` and `float` without hitting a limit of Python's.
MAX_DIGITS = 100
_LONG_NUMBER_RE = re.compile(r"[0-9]{%d}" % (MAX_DIGITS + 1))


def too_many_digits(text: str) -> bool:
    """Whether `text` holds a number of more than `MAX_DIGITS` digits."""
    return len(text) > MAX_DIGITS and _LONG_NUMBER_RE.search(text) is not None


def bound_out_of_range(n: int) -> bool:
    """Whether `n` cannot be a multiplicity bound: negative, or of more than
    `MAX_DIGITS` digits. The parser's digit strings obey this by construction
    (`too_many_digits`); `import_json` checks decoded ints with it. It compares
    ints, since `str()` of a huge int hits Python's limit on int-to-str digits."""
    return n < 0 or n >= 10**MAX_DIGITS


def amount_out_of_range(amount: float) -> bool:
    """Whether no timeout amount of the grammar, a positive number of at most
    `MAX_DIGITS` digits a side of its point, reads as `amount`; the nearest
    such number is the one to try. The parser's amounts obey this by
    construction; `import_json` checks decoded numbers with it."""
    return not 0 < amount <= float("9" * MAX_DIGITS) or float(f"{amount:.{MAX_DIGITS}f}") != amount


# Characters no string in a model may hold: U+FFFE, U+FFFF and the C0
# controls but TAB. XML 1.0 cannot carry them, not even as character
# references, except LF and CR, which a one-line `.ucm` string cannot hold.
NON_STRING_CHARS = r"\x00-\x08\n-\x1f\ufffe\uffff"
_NON_STRING_CHAR_RE = re.compile(f"[{NON_STRING_CHARS}]")


def non_string_char(text: str) -> tuple[int, str] | None:
    """The offset of the first character in `text` that a string may not
    hold, with a message naming it; None if `text` may be a string."""
    found = _NON_STRING_CHAR_RE.search(text)
    if found is None:
        return None
    kind = "control character" if found[0] < " " else "noncharacter"
    return found.start(), f"string holds {kind} U+{ord(found[0]):04X}"


_LABEL_RE = re.compile(r"([0-9]+)(?:-([0-9]+))?((?:[a-z][0-9]*)*)")
_SUFFIX_RE = re.compile(r"([a-z])([0-9]*)")


@dataclass(frozen=True)
class StepLabel:
    """Hierarchical step number: integer anchor (optionally a range) plus
    letter/integer pairs, e.g. ``3``, ``2-6``, ``2a``, ``2a1``, ``2-6a2``.

    A trailing pair without an integer (``2a``) names an extension block;
    its steps append integers (``2a1``, ``2a2``).
    """

    anchor_lo: int
    anchor_hi: int | None = None
    suffix: tuple[tuple[str, int | None], ...] = ()

    @classmethod
    def parse(cls, text: str) -> StepLabel | None:
        m = _LABEL_RE.fullmatch(text)
        if not m:
            return None
        lo = int(m.group(1))
        hi = int(m.group(2)) if m.group(2) else None
        suffix = tuple(
            (letter, int(num) if num else None)
            for letter, num in _SUFFIX_RE.findall(m.group(3))
        )
        # Only the final pair may omit its integer (a block label).
        if any(num is None for _, num in suffix[:-1]):
            return None
        return cls(lo, hi, suffix)

    @property
    def text(self) -> str:
        anchor = str(self.anchor_lo) if self.anchor_hi is None else f"{self.anchor_lo}-{self.anchor_hi}"
        return anchor + "".join(
            letter + ("" if num is None else str(num)) for letter, num in self.suffix
        )

    def is_block_label(self) -> bool:
        return bool(self.suffix) and self.suffix[-1][1] is None

    def anchor_label(self) -> StepLabel | None:
        """The parent-sequence label(s) a block with this label is attached to."""
        if not self.is_block_label():
            return None
        return StepLabel(self.anchor_lo, self.anchor_hi, self.suffix[:-1])

    def first_in_block(self) -> StepLabel | None:
        """Label of the first step inside the block named by this label."""
        if not self.is_block_label():
            return None
        letter = self.suffix[-1][0]
        return StepLabel(self.anchor_lo, self.anchor_hi, self.suffix[:-1] + ((letter, 1),))

    def successor(self) -> StepLabel | None:
        """Next sibling step label; None when this label cannot have one."""
        if not self.suffix:
            if self.anchor_hi is not None:
                return None
            return StepLabel(self.anchor_lo + 1)
        letter, num = self.suffix[-1]
        if num is None:
            return None
        return StepLabel(self.anchor_lo, self.anchor_hi, self.suffix[:-1] + ((letter, num + 1),))

    def __str__(self) -> str:
        return self.text


@dataclass
class ModeSwitch:
    """A `mode switch: Name` statement at a scenario or block boundary."""

    mode: str
    span: SourceSpan


@dataclass
class ModeDecl:
    name: str
    kind: ModeKind
    is_default: bool
    offered_services: list[str]
    span: SourceSpan


@dataclass
class ExceptionDef:
    category: ExceptionCategory
    name: str
    is_global: bool
    span: SourceSpan

    @property
    def qualified_name(self) -> str:
        return f"{CATEGORY_KEYWORD[self.category]}::{self.name}"


@dataclass
class ServiceDecl:
    name: str
    goals: list[str]
    span: SourceSpan


@dataclass
class Multiplicity:
    """Actor multiplicity bounds; upper is None for ``*`` (unbounded)."""

    lower: int
    upper: int | None


@dataclass
class ActorRef:
    """An actor mention in a primary/secondary/facilitator clause.

    ``category`` keeps the raw keyword text (or None when omitted) so the
    type checker can diagnose missing and unknown categories.
    """

    category: str | None
    name: str
    multiplicity: Multiplicity | None
    span: SourceSpan

    @property
    def qualified_name(self) -> str:
        return f"{self.category}::{self.name}" if self.category else self.name


@dataclass
class ExceptionRef:
    category: ExceptionCategory
    name: str
    span: SourceSpan

    @property
    def qualified_name(self) -> str:
        return f"{CATEGORY_KEYWORD[self.category]}::{self.name}"


@dataclass
class Interaction:
    source: str
    target: str
    message: str


@dataclass
class Invocation:
    target: str


@dataclass
class Condition:
    text: str


TIME_UNITS = ("ms", "s", "min")


@dataclass
class Timeout:
    amount: float  # positive and finite
    unit: str  # one of TIME_UNITS


@dataclass
class Internal:
    description: str
    timeout: Timeout | None


@dataclass
class ControlFlow:
    """Either a goto (single target) or a repeat over a label range."""

    goto: StepLabel | None
    repeat_from: StepLabel | None
    repeat_to: StepLabel | None


StepPayload = Interaction | Invocation | Condition | Internal | ControlFlow | ExceptionRef

# A step's kind is the type of its payload.
_STEP_KINDS: dict[type, StepKind] = {
    Interaction: StepKind.INTERACTION,
    Invocation: StepKind.INVOCATION,
    Condition: StepKind.CONDITION,
    Internal: StepKind.INTERNAL,
    ControlFlow: StepKind.CONTROL_FLOW,
    ExceptionRef: StepKind.RAISE,
}


@dataclass
class Step:
    label: StepLabel
    payload: StepPayload
    span: SourceSpan

    @property
    def kind(self) -> StepKind:
        return _STEP_KINDS[type(self.payload)]


@dataclass
class Outcome:
    kind: OutcomeKind
    continue_target: StepLabel | None
    span: SourceSpan


# Deepest block nesting the parser and `import_json` accept (a block in a
# use case's extensions is at depth 1). Walkers over blocks recurse once per
# level, so the bound keeps every command inside Python's recursion limit.
MAX_BLOCK_DEPTH = 64


@dataclass
class ExtensionBlock:
    label: StepLabel
    kind: BlockKind
    guard: str
    body: list[Step | ExtensionBlock]
    entry_switch: ModeSwitch | None
    exit_switch: ModeSwitch | None
    outcome: Outcome
    span: SourceSpan

    def steps(self) -> list[Step]:
        return [item for item in self.body if isinstance(item, Step)]

    def nested_blocks(self) -> list[ExtensionBlock]:
        return [item for item in self.body if isinstance(item, ExtensionBlock)]


@dataclass
class Scenario:
    entry_switch: ModeSwitch | None
    steps: list[Step]
    exit_switch: ModeSwitch | None
    outcome: Outcome
    span: SourceSpan


@dataclass
class HandlerContext:
    use_case: str
    use_case_span: SourceSpan
    exception: ExceptionRef
    relation: InterruptRelation
    span: SourceSpan


@dataclass
class UseCase:
    name: str
    is_handler: bool
    scope: str | None
    level: Level | None
    intention: str | None
    multiplicity_text: str | None
    primary_actors: list[ActorRef]
    secondary_actors: list[ActorRef]
    facilitator_actors: list[ActorRef]
    precondition: str | None
    postcondition: str | None
    contexts: list[HandlerContext]
    main: Scenario | None
    extensions: list[ExtensionBlock]
    span: SourceSpan
    name_span: SourceSpan

    def all_actors(self) -> list[ActorRef]:
        return self.primary_actors + self.secondary_actors + self.facilitator_actors

    def all_blocks(self) -> list[ExtensionBlock]:
        """Extension blocks in document order, nested ones included."""
        out: list[ExtensionBlock] = []

        def walk(blocks: list[ExtensionBlock]) -> None:
            for b in blocks:
                out.append(b)
                walk(b.nested_blocks())

        walk(self.extensions)
        return out

    def all_steps(self) -> list[Step]:
        """Steps in document order: main scenario first, then block bodies."""
        out: list[Step] = list(self.main.steps) if self.main else []
        for block in self.all_blocks():
            out.extend(block.steps())
        return out


@dataclass
class Model:
    name: str
    modes: list[ModeDecl]
    exceptions: list[ExceptionDef]
    services: list[ServiceDecl]
    use_cases: list[UseCase]
    span: SourceSpan
    source_file: str = field(default="<string>")

    def default_mode(self) -> ModeDecl | None:
        for mode in self.modes:
            if mode.is_default:
                return mode
        return self.modes[0] if self.modes else None
