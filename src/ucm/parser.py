"""Recursive-descent parser building the spanned AST from `.ucm` text.

Parsing is all-or-nothing: `parse` turns the first error in the text, the
lexer's or the parser's `ParseError`, into E000 and returns no tree. The
lexer's error waits in the ERROR token that ends the tokens at a bad
character, and is raised only when the parser reaches that token or peeks at
it, so an earlier syntax error wins.
The grammar is deliberately lenient in two places so that later phases can
produce better diagnostics than a bare syntax error: use-case clauses may be
absent (missing ones become E001) and actor references accept any or no
category keyword (checked as E005). One rule, `parse_section`, reads each
`keyword { word … }` section (exceptions, services, extensions); `modes { … }`
keeps its own loop, as its items run up to `}`.

Every fixed token, keyword or symbol, is tested by its text alone
(`expect(text)`, `current[TEXT] == word`, or membership in a keyword table).
Only an IDENT token can have identifier-shaped text and only a SYMBOL token
symbol-shaped text: strings keep their quotes, labels and numbers start with
an ASCII digit, EOF is empty and ERROR opens with a bad character. So no
check accepts ERROR and only the final one of `parse_model` accepts EOF, and
`advance` needs no bounds test. Lookahead (`peek`) reads `tokens[pos + 1]`
only when the current token is an IDENT, which is never the last token.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Collection, TypeVar

from .diagnostics import Diagnostic
from .lexer import END, KIND, START, TEXT, ParseError, Token, TokenKind, lex_error, normalize, scan, string_value
from .model import (
    ActorRef,
    BLOCK_KINDS,
    Condition,
    ControlFlow,
    EXCEPTION_KEYWORDS,
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

_IDENT, _LABEL, _NUMBER, _STRING, _SYMBOL, _EOF, _ERROR = TokenKind  # definition order; faster than TokenKind.X

_T = TypeVar("_T")


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.current = tokens[0]
        # StepLabel is immutable, so steps share one instance per label text.
        self.labels: dict[str, StepLabel] = {}

    # -- token plumbing -------------------------------------------------

    def advance(self) -> Token:
        """Consume the current token, which is never EOF (see the module docstring)."""
        tok = self.current
        self.pos += 1
        self.current = self.tokens[self.pos]
        return tok

    def error(self, expected: list[str]) -> ParseError:
        """The syntax error at the current token; at ERROR, its lexer error."""
        tok = self.current
        if tok[KIND] is _ERROR:
            return lex_error(tok, self.file)
        found = tok[TEXT] if tok[KIND] is not _EOF else "end of file"
        wanted = " or ".join(expected)
        return ParseError(f"expected {wanted}, got {found!r}", self.span_of(tok), expected)

    def expect(self, text: str) -> Token:
        """Consume the current token, a keyword or symbol spelled `text`."""
        tok = self.current
        if tok[TEXT] != text:
            raise self.error([f"'{text}'"])
        self.pos += 1  # advance() inlined here and in expect_ident: the most frequent calls
        self.current = self.tokens[self.pos]
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.current
        if tok[KIND] is not _IDENT:
            raise self.error([what])
        self.pos += 1
        self.current = self.tokens[self.pos]
        return tok

    def peek(self) -> str:
        """The text of the token after the current IDENT; at ERROR, its lexer error."""
        tok = self.tokens[self.pos + 1]
        if tok[KIND] is _ERROR:
            raise lex_error(tok, self.file)
        return tok[TEXT]

    def accept(self, text: str) -> bool:
        """Consume the current token if its text is `text`."""
        if self.current[TEXT] != text:
            return False
        self.advance()
        return True

    def expect_string(self) -> str:
        if self.current[KIND] is not _STRING:
            raise self.error([_STRING.value])
        return string_value(self.advance()[TEXT])

    def expect_word(self, table: Collection[str]) -> str:
        """Consume a keyword from `table`, or fail listing all of them."""
        word = self.current[TEXT]
        if word not in table:
            raise self.error([f"'{w}'" for w in table])
        self.advance()
        return word

    # These spans skip `SourceSpan`'s order check: a token starts before it
    # ends, and the last token consumed ends at or after `start` begins.
    def span_of(self, tok: Token) -> SourceSpan:
        return tuple.__new__(SourceSpan, (self.file, tok[START], tok[END]))

    def span_from(self, start: Token) -> SourceSpan:
        """The span from `start`, already consumed, to the last consumed token."""
        return tuple.__new__(SourceSpan, (self.file, start[START], self.tokens[self.pos - 1][END]))

    def check_digits(self, tok: Token) -> None:
        if too_many_digits(tok[TEXT]):
            raise ParseError(f"number with more than {MAX_DIGITS} digits", self.span_of(tok))

    def parse_label(self) -> tuple[StepLabel, Token]:
        tok = self.current
        if tok[KIND] is not _LABEL:
            raise self.error(["step label"])
        label = self.labels.get(tok[TEXT])
        if label is None:
            self.check_digits(tok)
            label = StepLabel.parse(tok[TEXT])
            if label is None:
                raise ParseError(f"malformed step label {tok[TEXT]!r}", self.span_of(tok))
            self.labels[tok[TEXT]] = label
        self.advance()
        return label, tok

    # -- grammar --------------------------------------------------------

    def parse_model(self) -> Model:
        start = self.expect("model")
        name = self.expect_ident("model name")[TEXT]
        modes = self.parse_modes()
        exceptions = self.parse_section("exceptions", "exception", self.parse_exception)
        services = []
        if self.current[TEXT] == "services":
            services = self.parse_section("services", "service", self.parse_service)
        use_cases = []
        while self.current[TEXT] in ("usecase", "handler"):
            use_cases.append(self.parse_use_case())
        if self.current[KIND] is not _EOF:
            raise self.error([_EOF.value])
        return Model(name, modes, exceptions, services, use_cases, self.span_from(start), self.file)

    def parse_list(self, parse_item: Callable[[], _T]) -> list[_T]:
        """One or more items separated by commas."""
        items = [parse_item()]
        while self.accept(","):
            items.append(parse_item())
        return items

    def parse_names(self, what: str) -> list[str]:
        return self.parse_list(lambda: self.expect_ident(what)[TEXT])

    def parse_modes(self) -> list[ModeDecl]:
        self.expect("modes")
        self.expect("{")
        modes = []
        while self.current[TEXT] != "}":
            start = self.current
            is_default = self.accept("default")
            kind = self.expect_word(MODE_KINDS)
            name = self.expect_ident("mode name")[TEXT]
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
        while self.current[TEXT] == word:
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
        name = self.expect_ident("exception name")[TEXT]
        return ExceptionRef(category, name, self.span_from(start))

    def parse_service(self, start: Token) -> ServiceDecl:
        name = self.expect_ident("service name")[TEXT]
        self.expect("provides")
        return ServiceDecl(name, self.parse_names("use case name"), self.span_from(start))

    def parse_use_case(self) -> UseCase:
        start = self.advance()  # usecase | handler
        name_tok = self.expect_ident("use case name")
        self.expect("{")
        clauses = self.parse_clauses()
        main = self.parse_scenario() if self.current[TEXT] == "main" else None
        extensions = []
        if self.current[TEXT] == "extensions":
            extensions = self.parse_section("extensions", "block", self.parse_block)
        self.expect("}")
        is_handler = start[TEXT] == "handler"
        return UseCase(
            name_tok[TEXT], is_handler, *clauses, main, extensions, self.span_from(start), self.span_of(name_tok)
        )

    def parse_clauses(self) -> list:
        """The value of each use-case clause in `_CLAUSE_ORDER`: an absent
        clause that lists entries is an empty list, any other None."""
        values: dict[str, object] = {}
        last_rank = -1
        while (word := self.current[TEXT]) in _CLAUSE_ORDER:
            rank = _CLAUSE_ORDER[word]
            if rank <= last_rank:
                raise ParseError(f"clause '{word}' repeated or out of order", self.span_of(self.current))
            last_rank = rank
            self.advance()
            self.expect(":")
            if word == "level":
                values[word] = self.expect_word(LEVELS)
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
        name = start[TEXT]
        if self.accept("::"):
            category = start[TEXT]
            name = self.expect_ident("actor name")[TEXT]
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
        if tok[KIND] is not _LABEL or not (tok[TEXT].isascii() and tok[TEXT].isdigit()):
            raise self.error([what])
        self.check_digits(tok)
        self.advance()
        return int(tok[TEXT])

    def parse_context_entry(self) -> HandlerContext:
        start = self.expect_ident("use case name")
        self.expect("on")
        exception = self.parse_exception_ref()
        relation = self.expect_word(RELATIONS)
        return HandlerContext(start[TEXT], self.span_of(start), exception, relation, self.span_from(start))

    def parse_mode_switch(self) -> ModeSwitch | None:
        """`mode switch: Name`, or None when the next tokens are not one."""
        start = self.current
        if start[TEXT] != "mode" or self.peek() != "switch":
            return None
        self.pos += 2  # past `mode switch`
        self.current = self.tokens[self.pos]
        self.expect(":")
        name_tok = self.expect_ident("mode name")
        return ModeSwitch(name_tok[TEXT], self.span_from(start))

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
            if self.current[KIND] is _LABEL:
                items.append(self.parse_step())
            elif depth and self.current[TEXT] == "block":
                items.append(self.parse_block(self.advance(), depth + 1))
            else:
                break
        exit_switch = self.parse_mode_switch()
        outcome = self.parse_outcome()
        self.expect("}")
        return entry, items, exit_switch, outcome

    def parse_outcome(self) -> Outcome:
        start = self.expect("outcome")
        kind = self.expect_word(OUTCOMES)
        target = self.parse_label()[0] if kind == "continue" else None
        return Outcome(kind, target, self.span_from(start))

    def parse_step(self) -> Step:
        label, label_tok = self.parse_label()
        self.expect(".")
        cur = self.current
        word = cur[TEXT]
        if cur[KIND] is _IDENT and self.peek() == "->":
            self.pos += 2  # past the source endpoint and `->`
            self.current = self.tokens[self.pos]
            target = self.expect_ident("interaction endpoint")[TEXT]
            self.expect(":")
            payload: object = Interaction(word, target, self.expect_string())
        elif word == "invoke":
            self.advance()
            payload = Invocation(self.expect_ident("use case name")[TEXT])
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
                    f"repeat expects a label range like 2-4, got {rng_tok[TEXT]!r}", self.span_of(rng_tok)
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
        if amount_tok[KIND] is _NUMBER:
            self.check_digits(amount_tok)
            amount = float(self.advance()[TEXT])
        else:
            amount = float(self.parse_int("timeout amount"))
        if amount <= 0:
            raise ParseError("timeout amount must be positive", self.span_of(amount_tok))
        return Timeout(amount, self.expect_word(TIME_UNITS))

    def parse_block(self, start: Token, depth: int = 1) -> ExtensionBlock:
        if depth > MAX_BLOCK_DEPTH:
            raise ParseError(f"block nested deeper than {MAX_BLOCK_DEPTH} levels", self.span_of(start))
        label = self.parse_label()[0]
        kind = self.expect_word(BLOCK_KINDS)
        guard = self.expect_string() if self.accept("when") else ""
        entry, body, exit_switch, outcome = self.parse_body(depth)
        return ExtensionBlock(label, kind, guard, body, entry, exit_switch, outcome, self.span_from(start))


def parse(source: str, file: str | Path = "<string>") -> tuple[Model | None, list[Diagnostic]]:
    """Parse `.ucm` text into a Model.

    Returns (model, []) on success, or (None, [E000 diagnostic]) for the first
    error in the text, the lexer's or the parser's; no partial tree is ever
    returned. Line endings are normalized to LF before offsets are assigned.
    """
    file = str(file)
    try:
        model = _Parser(scan(normalize(source)), file).parse_model()
    except ParseError as err:
        return None, [Diagnostic("E000", err.message, err.span, suggestions=err.expected)]
    return model, []


def parse_file(path: str | Path) -> tuple[Model | None, list[Diagnostic]]:
    """Read and parse a file; I/O failures propagate as OSError, distinct
    from syntax diagnostics."""
    path = Path(path)
    return parse(path.read_text(encoding="utf-8"), path)
