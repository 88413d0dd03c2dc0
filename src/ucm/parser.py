"""Recursive-descent parser building the spanned AST from `.ucm` text.

Parsing is all-or-nothing: any grammar violation yields an E000 diagnostic
and no tree. The grammar is deliberately lenient in two places so that later
phases can produce better diagnostics than a bare syntax error: use-case
clauses may be absent (missing ones become E001) and actor references accept
any or no category keyword (checked as E005).
"""

from __future__ import annotations

from pathlib import Path

from .diagnostics import Diagnostic
from .lexer import LexError, Token, TokenKind, normalize, string_value, tokenize
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
    Timeout,
    UseCase,
)
from .spans import SourceSpan


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: list[str] | None = None):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected or []


_MODE_KINDS = {k.value: k for k in ModeKind}
_LEVELS = {lv.value: lv for lv in Level}
_OUTCOMES = {o.value: o for o in OutcomeKind}
_RELATIONS = {r.value: r for r in InterruptRelation}
_TIME_UNITS = ("ms", "s", "min")

# Use-case clauses in their mandatory order; value is the rank used to
# reject out-of-order or repeated clauses.
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


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.current = tokens[0]

    # -- token plumbing -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[min(self.pos + 1, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind is not TokenKind.EOF:  # the last token is EOF
            self.pos += 1
            self.current = self.tokens[self.pos]
        return tok

    def at_keyword(self, *words: str) -> bool:
        return self.current.kind is TokenKind.IDENT and self.current.text in words

    def error(self, expected: list[str]) -> ParseError:
        tok = self.current
        found = tok.text if tok.kind is not TokenKind.EOF else "end of file"
        wanted = " or ".join(expected)
        return ParseError(f"expected {wanted}, got {found!r}", self.span_of(tok), expected)

    def expect(self, kind: TokenKind) -> Token:
        if self.current.kind is not kind:
            raise self.error([kind.value])
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error([f"'{word}'"])
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.current.kind is not TokenKind.IDENT:
            raise self.error([what])
        return self.advance()

    def expect_string(self) -> str:
        return string_value(self.expect(TokenKind.STRING))

    def span_of(self, tok: Token) -> SourceSpan:
        return SourceSpan(self.file, tok.start, tok.end)

    def span_from(self, start: Token) -> SourceSpan:
        end = self.tokens[self.pos - 1].end if self.pos > 0 else start.end
        return SourceSpan(self.file, start.start, max(start.end, end))

    def parse_label(self) -> tuple[StepLabel, Token]:
        tok = self.current
        if tok.kind is not TokenKind.LABEL:
            raise self.error(["step label"])
        label = StepLabel.parse(tok.text)
        if label is None:
            raise ParseError(f"malformed step label {tok.text!r}", self.span_of(tok))
        self.advance()
        return label, tok

    # -- grammar --------------------------------------------------------

    def parse_model(self) -> Model:
        start = self.expect_keyword("model")
        name = self.expect_ident("model name").text
        modes = self.parse_modes()
        exceptions = self.parse_exceptions()
        services = self.parse_services() if self.at_keyword("services") else []
        use_cases = []
        while self.at_keyword("usecase", "handler"):
            use_cases.append(self.parse_use_case())
        self.expect(TokenKind.EOF)
        return Model(name, modes, exceptions, services, use_cases, self.span_from(start), self.file)

    def parse_modes(self) -> list[ModeDecl]:
        self.expect_keyword("modes")
        self.expect(TokenKind.LBRACE)
        modes = []
        while self.current.kind is not TokenKind.RBRACE:
            start = self.current
            is_default = False
            if self.at_keyword("default"):
                is_default = True
                self.advance()
            if not self.at_keyword(*_MODE_KINDS):
                raise self.error([f"'{k}'" for k in _MODE_KINDS])
            kind = _MODE_KINDS[self.advance().text]
            name = self.expect_ident("mode name").text
            offered = []
            if self.at_keyword("offers"):
                self.advance()
                offered.append(self.expect_ident("service name").text)
                while self.current.kind is TokenKind.COMMA:
                    self.advance()
                    offered.append(self.expect_ident("service name").text)
            modes.append(ModeDecl(name, kind, is_default, offered, self.span_from(start)))
        self.expect(TokenKind.RBRACE)
        return modes

    def parse_exceptions(self) -> list[ExceptionDef]:
        self.expect_keyword("exceptions")
        self.expect(TokenKind.LBRACE)
        out = []
        while self.at_keyword("exception"):
            start = self.advance()
            category, name, _ = self.parse_exception_name()
            is_global = False
            if self.at_keyword("global"):
                is_global = True
                self.advance()
            out.append(ExceptionDef(category, name, is_global, self.span_from(start)))
        self.expect(TokenKind.RBRACE)
        return out

    def parse_exception_name(self):
        if not self.at_keyword(*EXCEPTION_KEYWORDS):
            raise self.error([f"'{k}'" for k in EXCEPTION_KEYWORDS])
        start = self.advance()
        category = EXCEPTION_KEYWORDS[start.text]
        self.expect(TokenKind.COLONCOLON)
        name = self.expect_ident("exception name").text
        return category, name, self.span_from(start)

    def parse_services(self) -> list[ServiceDecl]:
        self.expect_keyword("services")
        self.expect(TokenKind.LBRACE)
        out = []
        while self.at_keyword("service"):
            start = self.advance()
            name = self.expect_ident("service name").text
            self.expect_keyword("provides")
            goals = [self.expect_ident("use case name").text]
            while self.current.kind is TokenKind.COMMA:
                self.advance()
                goals.append(self.expect_ident("use case name").text)
            out.append(ServiceDecl(name, goals, self.span_from(start)))
        self.expect(TokenKind.RBRACE)
        return out

    def parse_use_case(self) -> UseCase:
        start = self.advance()  # usecase | handler
        is_handler = start.text == "handler"
        name_tok = self.expect_ident("use case name")
        self.expect(TokenKind.LBRACE)

        uc = UseCase(
            name=name_tok.text,
            is_handler=is_handler,
            scope=None,
            level=None,
            intention=None,
            multiplicity_text=None,
            primary_actors=[],
            secondary_actors=[],
            facilitator_actors=[],
            precondition=None,
            postcondition=None,
            contexts=[],
            main=None,
            extensions=[],
            span=self.span_of(start),
            name_span=self.span_of(name_tok),
        )
        self.parse_clauses(uc)
        if self.at_keyword("main"):
            uc.main = self.parse_scenario()
        if self.at_keyword("extensions"):
            uc.extensions = self.parse_extensions()
        self.expect(TokenKind.RBRACE)
        uc.span = self.span_from(start)
        return uc

    def parse_clauses(self, uc: UseCase) -> None:
        last_rank = -1
        while self.current.kind is TokenKind.IDENT and self.current.text in _CLAUSE_ORDER:
            word = self.current.text
            rank = _CLAUSE_ORDER[word]
            if rank <= last_rank:
                raise ParseError(
                    f"clause '{word}' repeated or out of order", self.span_of(self.current)
                )
            last_rank = rank
            self.advance()
            self.expect(TokenKind.COLON)
            if word == "scope":
                uc.scope = self.expect_string()
            elif word == "level":
                if not self.at_keyword(*_LEVELS):
                    raise self.error([f"'{lv}'" for lv in _LEVELS])
                uc.level = _LEVELS[self.advance().text]
            elif word == "intention":
                uc.intention = self.expect_string()
            elif word == "multiplicity":
                uc.multiplicity_text = self.expect_string()
            elif word in ("primary", "secondary", "facilitator"):
                refs = [self.parse_actor_ref()]
                while self.current.kind is TokenKind.COMMA:
                    self.advance()
                    refs.append(self.parse_actor_ref())
                getattr(uc, f"{word}_actors").extend(refs)
            elif word == "precondition":
                uc.precondition = self.expect_string()
            elif word == "postcondition":
                uc.postcondition = self.expect_string()
            elif word == "contexts":
                uc.contexts.append(self.parse_context_entry())
                while self.current.kind is TokenKind.COMMA:
                    self.advance()
                    uc.contexts.append(self.parse_context_entry())

    def parse_actor_ref(self) -> ActorRef:
        start = self.expect_ident("actor reference")
        category: str | None = None
        name = start.text
        if self.current.kind is TokenKind.COLONCOLON:
            self.advance()
            category = start.text
            name = self.expect_ident("actor name").text
        multiplicity = None
        if self.current.kind is TokenKind.LBRACKET:
            self.advance()
            lower = self.parse_int("lower bound")
            self.expect(TokenKind.DOTDOT)
            if self.current.kind is TokenKind.STAR:
                self.advance()
                upper: int | None = None
            else:
                upper = self.parse_int("upper bound")
            self.expect(TokenKind.RBRACKET)
            multiplicity = Multiplicity(lower, upper)
        return ActorRef(category, name, multiplicity, self.span_from(start))

    def parse_int(self, what: str) -> int:
        tok = self.current
        if tok.kind is not TokenKind.LABEL or not tok.text.isdigit():
            raise self.error([what])
        self.advance()
        return int(tok.text)

    def parse_context_entry(self) -> HandlerContext:
        start = self.expect_ident("use case name")
        self.expect_keyword("on")
        category, name, exc_span = self.parse_exception_name()
        if not self.at_keyword(*_RELATIONS):
            raise self.error([f"'{r}'" for r in _RELATIONS])
        relation = _RELATIONS[self.advance().text]
        return HandlerContext(
            use_case=start.text,
            use_case_span=self.span_of(start),
            exception=ExceptionRef(category, name, exc_span),
            relation=relation,
            span=self.span_from(start),
        )

    def at_mode_switch(self) -> bool:
        return self.at_keyword("mode") and self.peek().kind is TokenKind.IDENT and self.peek().text == "switch"

    def parse_mode_switch(self) -> ModeSwitch:
        start = self.expect_keyword("mode")
        self.expect_keyword("switch")
        self.expect(TokenKind.COLON)
        name_tok = self.expect_ident("mode name")
        return ModeSwitch(name_tok.text, self.span_from(start))

    def parse_scenario(self) -> Scenario:
        start = self.expect_keyword("main")
        self.expect(TokenKind.LBRACE)
        entry = self.parse_mode_switch() if self.at_mode_switch() else None
        steps = []
        while self.current.kind is TokenKind.LABEL:
            steps.append(self.parse_step())
        exit_switch = self.parse_mode_switch() if self.at_mode_switch() else None
        outcome = self.parse_outcome()
        self.expect(TokenKind.RBRACE)
        return Scenario(entry, steps, exit_switch, outcome, self.span_from(start))

    def parse_outcome(self) -> Outcome:
        start = self.expect_keyword("outcome")
        if not self.at_keyword(*_OUTCOMES):
            raise self.error([f"'{o}'" for o in _OUTCOMES])
        kind = _OUTCOMES[self.advance().text]
        target = None
        if kind is OutcomeKind.CONTINUE:
            target, _ = self.parse_label()
        return Outcome(kind, target, self.span_from(start))

    def parse_step(self) -> Step:
        label, label_tok = self.parse_label()
        self.expect(TokenKind.DOT)
        cur = self.current

        if cur.kind is TokenKind.IDENT and self.peek().kind is TokenKind.ARROW:
            source = self.advance().text
            self.expect(TokenKind.ARROW)
            target = self.expect_ident("interaction endpoint").text
            self.expect(TokenKind.COLON)
            message = self.expect_string()
            payload: object = Interaction(source, target, message)
            kind = StepKind.INTERACTION
        elif self.at_keyword("invoke"):
            self.advance()
            payload = Invocation(self.expect_ident("use case name").text)
            kind = StepKind.INVOCATION
        elif self.at_keyword("condition"):
            self.advance()
            payload = Condition(self.expect_string())
            kind = StepKind.CONDITION
        elif self.at_keyword("internal"):
            self.advance()
            timeout = None
            if self.at_keyword("timeout"):
                self.advance()
                amount_tok = self.current
                if amount_tok.kind is TokenKind.NUMBER:
                    amount = float(amount_tok.text)
                    self.advance()
                else:
                    amount = float(self.parse_int("timeout amount"))
                if amount <= 0:
                    raise ParseError("timeout amount must be positive", self.span_of(amount_tok))
                if not self.at_keyword(*_TIME_UNITS):
                    raise self.error([f"'{u}'" for u in _TIME_UNITS])
                unit = self.advance().text
                timeout = Timeout(amount, unit)
            payload = Internal(self.expect_string(), timeout)
            kind = StepKind.INTERNAL
        elif self.at_keyword("goto"):
            self.advance()
            target, _ = self.parse_label()
            payload = ControlFlow(goto=target, repeat_from=None, repeat_to=None)
            kind = StepKind.CONTROL_FLOW
        elif self.at_keyword("repeat"):
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
            kind = StepKind.CONTROL_FLOW
        elif self.at_keyword("raise"):
            self.advance()
            category, name, exc_span = self.parse_exception_name()
            payload = ExceptionRef(category, name, exc_span)
            kind = StepKind.RAISE
        else:
            raise self.error(
                ["interaction", "'invoke'", "'condition'", "'internal'", "'goto'", "'repeat'", "'raise'"]
            )
        return Step(label, kind, payload, self.span_from(label_tok))

    def parse_extensions(self) -> list[ExtensionBlock]:
        self.expect_keyword("extensions")
        self.expect(TokenKind.LBRACE)
        blocks = []
        while self.at_keyword("block"):
            blocks.append(self.parse_block())
        self.expect(TokenKind.RBRACE)
        return blocks

    def parse_block(self, depth: int = 1) -> ExtensionBlock:
        start = self.expect_keyword("block")
        if depth > MAX_BLOCK_DEPTH:
            raise ParseError(f"block nested deeper than {MAX_BLOCK_DEPTH} levels", self.span_of(start))
        label, _ = self.parse_label()
        if not self.at_keyword("alternative", "exceptional"):
            raise self.error(["'alternative'", "'exceptional'"])
        kind = BlockKind.ALTERNATIVE if self.advance().text == "alternative" else BlockKind.EXCEPTIONAL
        guard = ""
        if self.at_keyword("when"):
            self.advance()
            guard = self.expect_string()
        self.expect(TokenKind.LBRACE)
        entry = self.parse_mode_switch() if self.at_mode_switch() else None
        body: list[Step | ExtensionBlock] = []
        while True:
            if self.current.kind is TokenKind.LABEL:
                body.append(self.parse_step())
            elif self.at_keyword("block"):
                body.append(self.parse_block(depth + 1))
            else:
                break
        exit_switch = self.parse_mode_switch() if self.at_mode_switch() else None
        outcome = self.parse_outcome()
        self.expect(TokenKind.RBRACE)
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
    except LexError as err:
        return None, [Diagnostic("E000", err.message, err.span)]
    except ParseError as err:
        return None, [Diagnostic("E000", err.message, err.span, suggestions=err.expected)]
    return model, []


def parse_file(path: str | Path) -> tuple[Model | None, list[Diagnostic]]:
    """Read and parse a file; I/O failures propagate as OSError, distinct
    from syntax diagnostics."""
    path = Path(path)
    return parse(path.read_text(encoding="utf-8"), path)
