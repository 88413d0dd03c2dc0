"""Diagnostics: stable codes, severities, and text rendering.

Codes are part of the tool's contract; scripts may match on them, so they
never change meaning. E-codes are errors, W-codes warnings.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from .lexer import normalize
from .spans import SourceSpan


class Severity(str, Enum):
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
    "W001": "raised exception is not handled by any handler",
    "W002": "declared exception is never raised",
    "W003": "declared mode is never the target of a mode switch",
}


def severity_of(code: str) -> Severity:
    return Severity.ERROR if code.startswith("E") else Severity.WARNING


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
    def severity(self) -> Severity:
        return severity_of(self.code)

    def sort_key(self) -> tuple[str, int, str]:
        return (self.span.file, self.span.start, self.code)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.span.file,
            "line": self.span.line,
            "column": self.span.column,
            "start": self.span.start,
            "end": self.span.end,
            "suggestions": list(self.suggestions),
            "related": [
                {"file": s.file, "line": s.line, "column": s.column, "note": note}
                for s, note in self.related
            ],
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
    """`render_diagnostic` of each of `diags`, all against one source.

    The source is normalized and its line starts indexed once, so each
    diagnostic costs a binary search instead of a scan of the whole text.
    """
    if not diags:
        return []
    text = normalize(source)
    starts = [0, *(m.end() for m in re.finditer("\n", text))]
    rendered = []
    for diag in diags:
        start = min(diag.span.start, len(text))
        line = bisect_right(starts, start)
        rendered.append(_render(diag, text, start, line, start - starts[line - 1] + 1))
    return rendered


def _render(diag: Diagnostic, text: str, start: int, line: int, column: int) -> str:
    lines = [f"{diag.span.file}:{line}:{column}: {diag.severity.value}[{diag.code}]: {diag.message}"]
    line_begin = start - column + 1
    line_end = text.find("\n", start)
    if line_end == -1:
        line_end = len(text)
    excerpt = text[line_begin:line_end]
    if excerpt:
        width = max(1, min(diag.span.end, line_end) - start)
        lines.append(f"  {excerpt}")
        lines.append("  " + " " * (column - 1) + "^" * width)
    for suggestion in diag.suggestions:
        lines.append(f"  suggestion: {suggestion}")
    for span, note in diag.related:
        lines.append(f"  note: {span.file}:{span.line}:{span.column}: {note}")
    return "\n".join(lines)
