"""Recursive-descent parser building the spanned AST from `.ucm` text.

Parsing is all-or-nothing: the lexer and the parser raise one `ParseError` at
the first syntax error, and `parse` turns it into E000 and returns no tree.
The grammar is deliberately lenient in two places so that later phases can
produce better diagnostics than a bare syntax error: use-case clauses may be
absent (missing ones become E001) and actor references accept any or no
category keyword (checked as E005). One rule, `parse_section`, reads each
`keyword { word … }` section (exceptions, services, extensions); `modes { … }`
keeps its own loop, as its items run up to `}`.

Every fixed token, keyword or symbol, is tested by its text alone
(`expect(text)`, `current.text == word`, or membership in a keyword table).
Only an IDENT token can have identifier-shaped text and only a SYMBOL token
symbol-shaped text: strings keep their quotes, labels and numbers start with
an ASCII digit and EOF is empty. Lookahead reads `tokens[pos + 1]` only when
the current token is an IDENT, which is never the last token, and nothing
but the final check of `parse_model` stands on EOF, so `advance` needs no
bounds test.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Collection, TypeVar

from .diagnostics import Diagnostic
from .lexer import ParseError, Token, TokenKind, normalize, string_value, tokenize
from .model import (
    ActorRef,
    BlockKind,
    Condition,
    ControlFlow,
    EXCEPTION_KEYWORDS,
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
    StepLabel,
    TIME_UNITS,
    Timeout,
    UseCase,
    too_many_digits,
)
from .spans import SourceSpan


_MODE_KINDS = {k.value: k for k in ModeKind}
_LEVELS = {lv.value: lv for lv in Level}
_OUTCOMES = {o.value: o for o in OutcomeKind}
_RELATIONS = {r.value: r for r in InterruptRelation}
_BLOCK_KINDS = {k.value: k for k in BlockKind}

# Use-case clauses in their mandatory order, which is also the order of the
# UseCase fields they fill; value is the rank used to reject out-of-order or
# repeated clauses.
_CLAUSE_ORDER = {
    "scope": 0,
    "level": 1,
    "intention": 2,
    "multiplicity": 3,
    "primary": 4,
    "secondary": 5,
    "facilitator": 6,
    "precondition": 7,
    "postcondition": 8,
    "contexts": 9,
}
# The clauses that list entries.
_LIST_CLAUSES = ("primary", "secondary", "facilitator", "contexts")


_T = TypeVar("_T")


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.current = tokens[0]
        # StepLabel is frozen, so steps share one instance per label text.
        self.labels: dict[str, StepLabel] = {}

    # -- token plumbing -------------------------------------------------

    def advance(self) -> Token:
        """Consume the current token, which is never EOF (see the module docstring)."""
        tok = self.current
        self.pos += 1
        self.current = self.tokens[self.pos]
        return tok

    def error(self, expected: list[str]) -> ParseError:
        tok = self.current
        found = tok.text if tok.kind is not TokenKind.EOF else "end of file"
        wanted = " or ".join(expected)
        return ParseError(f"expected {wanted}, got {found!r}", self.span_of(tok), expected)

    def expect(self, text: str) -> Token:
        """Consume the current token, a keyword or symbol spelled `text`."""
        tok = self.current
        if tok.text != text:
            raise self.error([f"'{text}'"])
        self.pos += 1  # advance() inlined here and in expect_ident: the most frequent calls
        self.current = self.tokens[self.pos]
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.current
        if tok.kind is not TokenKind.IDENT:
            raise self.error([what])
        self.pos += 1
        self.current = self.tokens[self.pos]
        return tok

    def accept(self, text: str) -> bool:
        """Consume the current token if its text is `text`."""
        if self.current.text != text:
            return False
        self.advance()
        return True

    def expect_string(self) -> str:
        if self.current.kind is not TokenKind.STRING:
            raise self.error([TokenKind.STRING.value])
        return string_value(self.advance())

    def expect_word(self, table: Collection[str]) -> str:
        """Consume a keyword from `table`, or fail listing all of them."""
        word = self.current.text
        if word not in table:
            raise self.error([f"'{w}'" for w in table])
        self.advance()
        return word

    def span_of(self, tok: Token) -> SourceSpan:
        return SourceSpan(self.file, tok.start, tok.end)

    def span_from(self, start: Token) -> SourceSpan:
        """The span from `start`, already consumed, to the last consumed token."""
        return SourceSpan(self.file, start.start, self.tokens[self.pos - 1].end)

    def check_digits(self, tok: Token) -> None:
        if too_many_digits(tok.text):
            raise ParseError(f"number with more than {MAX_DIGITS} digits", self.span_of(tok))

    def parse_label(self) -> tuple[StepLabel, Token]:
        tok = self.current
        if tok.kind is not TokenKind.LABEL:
            raise self.error(["step label"])
        label = self.labels.get(tok.text)
        if label is None:
            self.check_digits(tok)
            label = StepLabel.parse(tok.text)
            if label is None:
                raise ParseError(f"malformed step label {tok.text!r}", self.span_of(tok))
            self.labels[tok.text] = label
        self.advance()
        return label, tok

    # -- grammar --------------------------------------------------------

    def parse_model(self) -> Model:
        start = self.expect("model")
        name = self.expect_ident("model name").text
        modes = self.parse_modes()
        exceptions = self.parse_section("exceptions", "exception", self.parse_exception)
        services = []
        if self.current.text == "services":
            services = self.parse_section("services", "service", self.parse_service)
        use_cases = []
        while self.current.text in ("usecase", "handler"):
            use_cases.append(self.parse_use_case())
        if self.current.kind is not TokenKind.EOF:
            raise self.error([TokenKind.EOF.value])
        return Model(name, modes, exceptions, services, use_cases, self.span_from(start), self.file)

    def parse_list(self, parse_item: Callable[[], _T]) -> list[_T]:
        """One or more items separated by commas."""
        items = [parse_item()]
        while self.accept(","):
            items.append(parse_item())
        return items

    def parse_names(self, what: str) -> list[str]:
        return self.parse_list(lambda: self.expect_ident(what).text)

    def parse_modes(self) -> list[ModeDecl]:
        self.expect("modes")
        self.expect("{")
        modes = []
        while self.current.text != "}":
            start = self.current
            is_default = self.accept("default")
            kind = _MODE_KINDS[self.expect_word(_MODE_KINDS)]
            name = self.expect_ident("mode name").text
            offered = self.parse_names("service name") if self.accept("offers") else []
            modes.append(ModeDecl(name, kind, is_default, offered, self.span_from(start)))
        self.expect("}")
        return modes

    def parse_section(self, keyword: str, word: str, parse_item: Callable[[Token], _T]) -> list[_T]:
        """`keyword { word … word … }`: each item opens with `word`, which
        `parse_item` takes already consumed."""
        self.expect(keyword)
        self.expect("{")
        items = []
        while self.current.text == word:
            items.append(parse_item(self.advance()))
        self.expect("}")
        return items

    def parse_exception(self, start: Token) -> ExceptionDef:
        ref = self.parse_exception_ref()
        return ExceptionDef(ref.category, ref.name, self.accept("global"), self.span_from(start))

    def parse_exception_ref(self) -> ExceptionRef:
        start = self.current
        category = EXCEPTION_KEYWORDS[self.expect_word(EXCEPTION_KEYWORDS)]
        self.expect("::")
        name = self.expect_ident("exception name").text
        return ExceptionRef(category, name, self.span_from(start))

    def parse_service(self, start: Token) -> ServiceDecl:
        name = self.expect_ident("service name").text
        self.expect("provides")
        return ServiceDecl(name, self.parse_names("use case name"), self.span_from(start))

    def parse_use_case(self) -> UseCase:
        start = self.advance()  # usecase | handler
        name_tok = self.expect_ident("use case name")
        self.expect("{")
        clauses = self.parse_clauses()
        main = self.parse_scenario() if self.current.text == "main" else None
        extensions = []
        if self.current.text == "extensions":
            extensions = self.parse_section("extensions", "block", self.parse_block)
        self.expect("}")
        is_handler = start.text == "handler"
        return UseCase(
            name_tok.text, is_handler, *clauses, main, extensions, self.span_from(start), self.span_of(name_tok)
        )

    def parse_clauses(self) -> list:
        """The value of each use-case clause in `_CLAUSE_ORDER`: an absent
        clause that lists entries is an empty list, any other None."""
        values: dict[str, object] = {}
        last_rank = -1
        while (word := self.current.text) in _CLAUSE_ORDER:
            rank = _CLAUSE_ORDER[word]
            if rank <= last_rank:
                raise ParseError(f"clause '{word}' repeated or out of order", self.span_of(self.current))
            last_rank = rank
            self.advance()
            self.expect(":")
            if word == "level":
                values[word] = _LEVELS[self.expect_word(_LEVELS)]
            elif word == "contexts":
                values[word] = self.parse_list(self.parse_context_entry)
            elif word in _LIST_CLAUSES:
                values[word] = self.parse_list(self.parse_actor_ref)
            else:
                values[word] = self.expect_string()
        return [values.get(word, [] if word in _LIST_CLAUSES else None) for word in _CLAUSE_ORDER]

    def parse_actor_ref(self) -> ActorRef:
        start = self.expect_ident("actor reference")
        category: str | None = None
        name = start.text
        if self.accept("::"):
            category = start.text
            name = self.expect_ident("actor name").text
        multiplicity = None
        if self.accept("["):
            lower = self.parse_int("lower bound")
            self.expect("..")
            upper = None if self.accept("*") else self.parse_int("upper bound")
            self.expect("]")
            multiplicity = Multiplicity(lower, upper)
        return ActorRef(category, name, multiplicity, self.span_from(start))

    def parse_int(self, what: str) -> int:
        tok = self.current
        if tok.kind is not TokenKind.LABEL or not (tok.text.isascii() and tok.text.isdigit()):
            raise self.error([what])
        self.check_digits(tok)
        self.advance()
        return int(tok.text)

    def parse_context_entry(self) -> HandlerContext:
        start = self.expect_ident("use case name")
        self.expect("on")
        exception = self.parse_exception_ref()
        relation = _RELATIONS[self.expect_word(_RELATIONS)]
        return HandlerContext(start.text, self.span_of(start), exception, relation, self.span_from(start))

    def parse_mode_switch(self) -> ModeSwitch | None:
        """`mode switch: Name`, or None when the next tokens are not one."""
        start = self.current
        if start.text != "mode" or self.tokens[self.pos + 1].text != "switch":
            return None
        self.pos += 2  # past `mode switch`
        self.current = self.tokens[self.pos]
        self.expect(":")
        name_tok = self.expect_ident("mode name")
        return ModeSwitch(name_tok.text, self.span_from(start))

    def parse_scenario(self) -> Scenario:
        start = self.expect("main")
        return Scenario(*self.parse_body(), self.span_from(start))

    def parse_body(self, depth: int = 0) -> tuple[ModeSwitch | None, list, ModeSwitch | None, Outcome]:
        """`{ [mode switch] items [mode switch] outcome }`: the body of a main
        scenario (depth 0), whose items are steps, or of a block at `depth`,
        whose items are steps and nested blocks."""
        self.expect("{")
        entry = self.parse_mode_switch()
        items: list[Step | ExtensionBlock] = []
        while True:
            if self.current.kind is TokenKind.LABEL:
                items.append(self.parse_step())
            elif depth and self.current.text == "block":
                items.append(self.parse_block(self.advance(), depth + 1))
            else:
                break
        exit_switch = self.parse_mode_switch()
        outcome = self.parse_outcome()
        self.expect("}")
        return entry, items, exit_switch, outcome

    def parse_outcome(self) -> Outcome:
        start = self.expect("outcome")
        kind = _OUTCOMES[self.expect_word(_OUTCOMES)]
        target = self.parse_label()[0] if kind is OutcomeKind.CONTINUE else None
        return Outcome(kind, target, self.span_from(start))

    def parse_step(self) -> Step:
        label, label_tok = self.parse_label()
        self.expect(".")
        cur = self.current
        word = cur.text
        if cur.kind is TokenKind.IDENT and self.tokens[self.pos + 1].text == "->":
            self.pos += 2  # past the source endpoint and `->`
            self.current = self.tokens[self.pos]
            target = self.expect_ident("interaction endpoint").text
            self.expect(":")
            payload: object = Interaction(word, target, self.expect_string())
        elif word == "invoke":
            self.advance()
            payload = Invocation(self.expect_ident("use case name").text)
        elif word == "condition":
            self.advance()
            payload = Condition(self.expect_string())
        elif word == "internal":
            self.advance()
            timeout = self.parse_timeout() if self.accept("timeout") else None
            payload = Internal(self.expect_string(), timeout)
        elif word == "goto":
            self.advance()
            payload = ControlFlow(goto=self.parse_label()[0], repeat_from=None, repeat_to=None)
        elif word == "repeat":
            self.advance()
            rng, rng_tok = self.parse_label()
            if rng.anchor_hi is None or rng.suffix:
                raise ParseError(
                    f"repeat expects a label range like 2-4, got {rng_tok.text!r}", self.span_of(rng_tok)
                )
            payload = ControlFlow(
                goto=None,
                repeat_from=StepLabel(rng.anchor_lo),
                repeat_to=StepLabel(rng.anchor_hi),
            )
        elif word == "raise":
            self.advance()
            payload = self.parse_exception_ref()
        else:
            raise self.error(
                ["interaction", "'invoke'", "'condition'", "'internal'", "'goto'", "'repeat'", "'raise'"]
            )
        return Step(label, payload, self.span_from(label_tok))

    def parse_timeout(self) -> Timeout:
        amount_tok = self.current  # its digit bound keeps the amount finite
        if amount_tok.kind is TokenKind.NUMBER:
            self.check_digits(amount_tok)
            amount = float(self.advance().text)
        else:
            amount = float(self.parse_int("timeout amount"))
        if amount <= 0:
            raise ParseError("timeout amount must be positive", self.span_of(amount_tok))
        return Timeout(amount, self.expect_word(TIME_UNITS))

    def parse_block(self, start: Token, depth: int = 1) -> ExtensionBlock:
        if depth > MAX_BLOCK_DEPTH:
            raise ParseError(f"block nested deeper than {MAX_BLOCK_DEPTH} levels", self.span_of(start))
        label = self.parse_label()[0]
        kind = _BLOCK_KINDS[self.expect_word(_BLOCK_KINDS)]
        guard = self.expect_string() if self.accept("when") else ""
        entry, body, exit_switch, outcome = self.parse_body(depth)
        return ExtensionBlock(label, kind, guard, body, entry, exit_switch, outcome, self.span_from(start))


def parse(source: str, file: str | Path = "<string>") -> tuple[Model | None, list[Diagnostic]]:
    """Parse `.ucm` text into a Model.

    Returns (model, []) on success, or (None, [E000 diagnostic]) on the first
    syntax error; no partial tree is ever returned. Line endings are
    normalized to LF before offsets are assigned.
    """
    file = str(file)
    text = normalize(source)
    try:
        tokens = tokenize(text, file)
        model = _Parser(tokens, file).parse_model()
    except ParseError as err:
        return None, [Diagnostic("E000", err.message, err.span, suggestions=err.expected)]
    return model, []


def parse_file(path: str | Path) -> tuple[Model | None, list[Diagnostic]]:
    """Read and parse a file; I/O failures propagate as OSError, distinct
    from syntax diagnostics."""
    path = Path(path)
    return parse(path.read_text(encoding="utf-8"), path)
