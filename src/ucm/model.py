"""Abstract syntax tree for textual use-case models.

The tree is built by :mod:`ucm.parser` and is deliberately permissive: clause
presence, actor categories, label ordering and reference resolution are
checked later by the resolver and validator, not by the node types here.
Every node carries a :class:`~ucm.spans.SourceSpan`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .spans import SourceSpan


# The grammar's closed vocabularies, each a tuple of its words in the order a
# syntax error lists them. A model field holds the word itself.
MODE_KINDS = ("normal", "degraded", "restricted", "emergency")
LEVELS = ("summary", "user-goal", "sub-function")
BLOCK_KINDS = ("alternative", "exceptional")
OUTCOMES = ("success", "failure", "degraded", "abandoned", "continue")
RELATIONS = ("interrupt-continue", "interrupt-fail")

# Surface keyword <-> category word, e.g. "HardwareException::TagUnavailable".
EXCEPTION_KEYWORDS = {
    "HardwareException": "hardware",
    "SoftwareException": "software",
    "NetworkException": "network",
    "EnvironmentException": "environment",
}
CATEGORY_KEYWORD = {v: k for k, v in EXCEPTION_KEYWORDS.items()}
EXCEPTION_CATEGORIES = tuple(CATEGORY_KEYWORD)

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


# Characters no string in a model may hold: the C0 controls but TAB, the
# surrogates, U+FFFE and U+FFFF. XML 1.0 cannot carry them, not even as
# character references, except LF and CR, which one-line strings cannot hold.
NON_STRING_CHARS = r"\x00-\x08\n-\x1f\ud800-\udfff\ufffe\uffff"
_NON_STRING_CHAR_RE = re.compile(f"[{NON_STRING_CHARS}]")


def non_string_char(text: str) -> tuple[int, str] | None:
    """The offset of the first character in `text` that a string may not
    hold, with a message naming it; None if `text` may be a string."""
    found = _NON_STRING_CHAR_RE.search(text)
    if found is None:
        return None
    kind = "control character" if found[0] < " " else "surrogate" if found[0] < "\ufffe" else "noncharacter"
    return found.start(), f"string holds {kind} U+{ord(found[0]):04X}"


_LABEL_RE = re.compile(r"([0-9]+)(?:-([0-9]+))?((?:[a-z][0-9]*)*)")
_SUFFIX_RE = re.compile(r"([a-z])([0-9]*)")
_LEADING_ZERO_RE = re.compile(r"(?<![0-9])0[0-9]")


class _LabelFields(NamedTuple):
    anchor_lo: int
    anchor_hi: int | None = None
    suffix: tuple[tuple[str, int | None], ...] = ()


def successor_fields(lo: int, hi: int | None, suffix: tuple) -> tuple | None:
    """The step numbering rule, on plain tuples of label fields, as the
    validator compares them: the next sibling's fields. A plain integer and
    the number of the last pair count up; a range and a block label have no
    successor."""
    if not suffix:
        return (lo + 1, None, ()) if hi is None else None
    letter, num = suffix[-1]
    return None if num is None else (lo, hi, suffix[:-1] + ((letter, num + 1),))


def first_in_block_fields(lo: int, hi: int | None, suffix: tuple) -> tuple | None:
    """The fields of the first step label in the block these fields label:
    the successor of its letter numbered 0; None unless a block label."""
    if not suffix or suffix[-1][1] is not None:
        return None
    return successor_fields(lo, hi, suffix[:-1] + ((suffix[-1][0], 0),))


class StepLabel(_LabelFields):
    """Hierarchical step number: integer anchor (optionally a range) plus
    letter/integer pairs, e.g. ``3``, ``2-6``, ``2a``, ``2a1``, ``2-6a2``.

    A trailing pair without an integer (``2a``) names an extension block;
    its steps append integers (``2a1``, ``2a2``).

    Tuple-backed like `SourceSpan`, so hashable and equal by value, and cheaper
    to build and compare than a frozen dataclass. Setting or deleting any
    attribute raises `AttributeError`. `parse` stores its text as `text` when
    no number in it has a leading zero; other labels compute `text` on first
    read.
    """

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: StepLabel is immutable")

    __delattr__ = __setattr__

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
        label = cls(lo, hi, suffix)
        if not _LEADING_ZERO_RE.search(text):
            label.__dict__["text"] = text  # spelled as the formula spells it
        return label

    # Kept in the instance dict, which it writes past __setattr__, as `parse`
    # does up front; ==, hash and repr read only the tuple.
    @cached_property
    def text(self) -> str:
        anchor = str(self.anchor_lo) if self.anchor_hi is None else f"{self.anchor_lo}-{self.anchor_hi}"
        return anchor + "".join(
            letter + ("" if num is None else str(num)) for letter, num in self.suffix
        )

    def is_block_label(self) -> bool:
        return bool(self.suffix) and self.suffix[-1][1] is None


@dataclass
class ModeSwitch:
    """A `mode switch: Name` statement at a scenario or block boundary."""

    mode: str
    span: SourceSpan


@dataclass
class ModeDecl:
    name: str
    kind: str  # one of MODE_KINDS
    is_default: bool
    offered_services: list[str]
    span: SourceSpan


@dataclass
class ExceptionDef:
    category: str  # one of EXCEPTION_CATEGORIES
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
    category: str  # one of EXCEPTION_CATEGORIES
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
STEP_KINDS = {
    Interaction: "interaction",
    Invocation: "invocation",
    Condition: "condition",
    Internal: "internal",
    ControlFlow: "control-flow",
    ExceptionRef: "exception-raise",
}


@dataclass
class Step:
    label: StepLabel
    payload: StepPayload
    span: SourceSpan

    @property
    def kind(self) -> str:
        return STEP_KINDS[type(self.payload)]


@dataclass
class Outcome:
    kind: str  # one of OUTCOMES
    continue_target: StepLabel | None
    span: SourceSpan


# Deepest block nesting the parser and `import_json` accept (a block in a
# use case's extensions is at depth 1). `parse_block`, `_from_json` and
# `_switch_rows` recurse once per level and the JSON writer three times (object,
# fields, body array), so the bound keeps every command inside Python's recursion limit.
MAX_BLOCK_DEPTH = 64


@dataclass
class ExtensionBlock:
    label: StepLabel
    kind: str  # one of BLOCK_KINDS
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
    relation: str  # one of RELATIONS
    span: SourceSpan


@dataclass
class UseCase:
    name: str
    is_handler: bool
    scope: str | None
    level: str | None  # one of LEVELS
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
        pending = self.extensions[::-1]
        while pending:
            out.append(pending.pop())
            pending.extend(reversed(out[-1].nested_blocks()))
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
