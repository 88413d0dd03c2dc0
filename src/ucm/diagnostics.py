"""Diagnostics: stable codes, severities, and text rendering.

Codes are part of the tool's contract; scripts may match on them, so they
never change meaning. E-codes are errors, W-codes warnings: a severity is the
plain word "error" or "warning", which every rendering prints as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import normalize
from .spans import LineIndex, SourceSpan


class Severity:  # the two words `Diagnostic.severity` returns
    ERROR = "error"
    WARNING = "warning"


#: Catalog of every diagnostic the tool can emit.
CODES: dict[str, str] = {
    "E000": "input does not conform to the grammar",
    "E001": "mandatory use-case clause is missing",
    "E002": "step label does not follow its predecessor",
    "E003": "invoked use case is not defined",
    "E004": "raised exception is not defined in the header",
    "E005": "actor reference is missing a category or uses an unknown one",
    "E006": "multiplicity lower bound exceeds its upper bound",
    "E007": "handler context exception never occurs in the context use case",
    "E008": "exceptional block must contain exactly one raise step",
    "E009": "exception block continues but the exception is never handled",
    "E010": "interaction must connect the System with a declared actor",
    "E011": "main success scenario must end in success",
    "E012": "step reference does not name an existing step",
    "E013": "mode name is not declared in the header",
    "E014": "duplicate definition",
    "E015": "invocation cycle prevents path analysis",
    "E016": "invocation paths are too many to list",
    "E017": "offered service or provided use case is not defined",
    "W001": "raised exception is not handled by any handler",
    "W002": "declared exception is never raised",
    "W003": "declared mode is never the target of a mode switch",
}


@dataclass
class Diagnostic:
    code: str
    message: str
    span: SourceSpan
    related: list[tuple[SourceSpan, str]] = field(default_factory=list)
    suggestions: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code}")

    @property
    def severity(self) -> str:
        return Severity.ERROR if self.code.startswith("E") else Severity.WARNING

    def sort_key(self) -> tuple[str, int, str]:
        return (self.span.file, self.span.start, self.code)

    def to_dict(self, index: LineIndex) -> dict:
        """JSON-friendly form; `index` indexes the normalized source the spans
        point into and supplies every line and column."""
        related = []
        for span, note in self.related:
            note_line, note_column = index.position(span.start)
            related.append({"file": span.file, "line": note_line, "column": note_column, "note": note})
        line, column = index.position(self.span.start)
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "file": self.span.file,
            "line": line,
            "column": column,
            "start": self.span.start,
            "end": self.span.end,
            "suggestions": list(self.suggestions),
            "related": related,
        }


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=Diagnostic.sort_key)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


def render_diagnostic(diag: Diagnostic, source: str) -> str:
    """Human-readable rendering: location header, source excerpt with carets,
    then any suggestions and related notes. Total and deterministic; spans at
    or past end of file render one column past the last character.
    """
    return render_diagnostics([diag], source)[0]


def render_diagnostics(diags: list[Diagnostic], source: str) -> list[str]:
    """`render_diagnostic` of each of `diags`, all against one source, which
    is normalized and indexed once."""
    if not diags:
        return []
    index = LineIndex(normalize(source))
    return [_render(diag, index) for diag in diags]


def _render(diag: Diagnostic, index: LineIndex) -> str:
    text = index.text
    line, column = index.position(diag.span.start)
    line_begin = index.starts[line - 1]
    start = line_begin + column - 1  # clamped to the end of the text
    lines = [f"{diag.span.file}:{line}:{column}: {diag.severity}[{diag.code}]: {diag.message}"]
    line_end = text.find("\n", start)
    if line_end == -1:
        line_end = len(text)
    excerpt = text[line_begin:line_end]
    if excerpt:
        width = max(1, min(diag.span.end, line_end) - start)
        lines.append(f"  {excerpt}")
        # Tabs stay tabs, so the carets share the excerpt's tab stops.
        pad = excerpt[: column - 1]
        pad = "".join(c if c == "\t" else " " for c in pad) if "\t" in pad else " " * (column - 1)
        lines.append(f"  {pad}{'^' * width}")
    for suggestion in diag.suggestions:
        lines.append(f"  suggestion: {suggestion}")
    for span, note in diag.related:
        note_line, note_column = index.position(span.start)
        lines.append(f"  note: {span.file}:{note_line}:{note_column}: {note}")
    return "\n".join(lines)
