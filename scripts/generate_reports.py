#!/usr/bin/env python3
"""Regenerate every analysis artifact for the corpus models.

Writes, per model, the exception/handler/mode-switch/mode-service tables in
Markdown and CSV plus the JSON, XMI, and DOT exports:

    python scripts/generate_reports.py [-o reports]
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from ucm.analysis import TABLES, AnalysisError  # noqa: E402
from ucm.cli import load, report_unwritable_stdout, without_collector  # noqa: E402
from ucm.diagnostics import has_errors, sort_diagnostics  # noqa: E402
from ucm.export import EXPORTS, TABLE_FORMATS, table_parts  # noqa: E402
from ucm.lexer import normalize  # noqa: E402
from ucm.spans import LineIndex  # noqa: E402
from ucm.validation import validate  # noqa: E402

#: The file name of each table kind's report.
REPORTS = {"exceptions": "exceptions", "handlers": "handlers", "modes": "mode-switches", "services": "mode-services"}


def write(path: Path, parts: list[str]) -> bool:
    """Write the text `parts` to `path`, making its directory, and say so on
    stdout; a failure of either is reported in the words of `ucm` and
    returns False."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(parts)
    except OSError as err:
        print(f"ucm: cannot write '{path}': {err.strerror or err}", file=sys.stderr)
        return False
    try:
        print(f"wrote {path}", flush=True)  # flushed, so that a failing stdout fails here and not at exit
    except OSError as err:
        report_unwritable_stdout(err)
        return False
    return True


@without_collector()
def generate(corpus_file: Path, out_dir: Path) -> int:
    """Write every artifact of one model; print each problem as
    `file:LINE: CODE message`, in the order of `ucm check`, and write
    nothing when any is an error. Stop at the first artifact that cannot
    be written; either way the model's status is 1. Like `ucm`, it runs
    with the cyclic collector off."""
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
        lines = (f"{corpus_file}:{index.position(d.span.start)[0]}: {d.code} {d.message}\n" for d in problems)
        sys.stderr.write("".join(lines))
    if has_errors(problems):
        return 1

    stem = out_dir / corpus_file.stem
    table_files = (
        (f"{name}.{fmt}", table_parts(table, fmt)) for name, table in tables.items() for fmt in TABLE_FORMATS
    )
    export_files = ((f"model.{target}", [export(resolved)]) for target, export in EXPORTS.items())
    return 0 if all(write(stem / name, parts) for name, parts in chain(table_files, export_files)) else 1


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
