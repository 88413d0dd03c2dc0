#!/usr/bin/env python3
"""Regenerate every analysis artifact for the corpus models.

Writes, per model, the exception/handler/mode-switch/mode-service tables in
Markdown and CSV plus the JSON, XMI, and DOT exports:

    python scripts/generate_reports.py [-o reports]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from ucm.analysis import (  # noqa: E402
    AnalysisError,
    exception_summary,
    exception_table,
    handler_summary,
    handler_table,
    mode_service_summary_table,
    mode_service_table,
    mode_switch_summary_table,
    mode_switch_table,
)
from ucm.cli import read_source  # noqa: E402
from ucm.diagnostics import has_errors  # noqa: E402
from ucm.export import export_dot, export_json, export_xmi, render_table  # noqa: E402
from ucm.lexer import normalize  # noqa: E402
from ucm.parser import parse  # noqa: E402
from ucm.resolver import resolve  # noqa: E402
from ucm.spans import LineIndex  # noqa: E402
from ucm.validation import validate  # noqa: E402


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    print(f"wrote {path}")


def generate(corpus_file: Path, out_dir: Path) -> int:
    """Write every artifact of one model; print each problem as
    `file:LINE: CODE message` and write nothing when any is an error."""
    source = read_source(corpus_file)
    if source is None:
        return 1
    model, problems = parse(source, corpus_file)
    if model is not None:
        resolved, resolve_diags = resolve(model)
        problems = resolve_diags + validate(resolved)
        if not has_errors(problems):
            try:
                tables = {
                    "exceptions": exception_table(exception_summary(resolved)),
                    "handlers": handler_table(handler_summary(resolved)),
                    "mode-switches": mode_switch_summary_table(mode_switch_table(resolved)),
                    "mode-services": mode_service_summary_table(mode_service_table(model)),
                }
            except AnalysisError as err:
                problems.append(err.diagnostic)
    if problems:
        index = LineIndex(normalize(source))
        for diag in problems:
            line, _ = index.position(diag.span.start)
            print(f"{corpus_file}:{line}: {diag.code} {diag.message}", file=sys.stderr)
    if has_errors(problems):
        return 1

    stem = out_dir / corpus_file.stem
    for name, table in tables.items():
        write(stem / f"{name}.md", render_table(table, "md"))
        write(stem / f"{name}.csv", render_table(table, "csv"))
    write(stem / "model.json", export_json(resolved))
    write(stem / "model.xmi", export_xmi(resolved))
    write(stem / "model.dot", export_dot(resolved))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="reports", help="output directory (default: reports)")
    parser.add_argument(
        "models", nargs="*", type=Path, default=sorted((REPO / "corpus").glob("*.ucm")),
        help="model files (default: every corpus model)",
    )
    args = parser.parse_args()
    status = 0
    for corpus_file in args.models:
        status |= generate(corpus_file, Path(args.output))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
