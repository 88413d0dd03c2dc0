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

from ucm.analysis import TABLES, AnalysisError  # noqa: E402
from ucm.cli import load  # noqa: E402
from ucm.diagnostics import has_errors, sort_diagnostics  # noqa: E402
from ucm.export import EXPORTS, render_table  # noqa: E402
from ucm.lexer import normalize  # noqa: E402
from ucm.spans import LineIndex  # noqa: E402
from ucm.validation import validate  # noqa: E402

#: The file name of each table kind's report.
REPORTS = {"exceptions": "exceptions", "handlers": "handlers", "modes": "mode-switches", "services": "mode-services"}


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    print(f"wrote {path}")


def generate(corpus_file: Path, out_dir: Path) -> int:
    """Write every artifact of one model; print each problem as
    `file:LINE: CODE message`, in the order of `ucm check`, and write
    nothing when any is an error."""
    loaded = load(corpus_file)
    if loaded is None:
        return 1
    source, resolved, problems = loaded
    if resolved is not None:
        problems = sort_diagnostics(problems + validate(resolved))
        if not has_errors(problems):
            try:
                tables = {name: TABLES[kind](resolved, None) for kind, name in REPORTS.items()}
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
    for target, export in EXPORTS.items():
        write(stem / f"model.{target}", export(resolved))
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
