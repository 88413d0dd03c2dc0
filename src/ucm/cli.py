"""Command-line driver: check, table, and export subcommands.

Every command starts from `load`, which reads, parses and resolves a model,
and scripts/generate_reports.py calls it too; the table kinds and their
builders are `analysis.TABLES`. Diagnostics go to stderr, requested artifacts
to stdout, so output can be piped. Exit codes: 0 success, 1 model errors (or
warnings under --strict), 2 usage or I/O problems, an output stream closed
early included.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import analysis
from .diagnostics import Diagnostic, Severity, has_errors, render_diagnostics, sort_diagnostics
from .export import dump_json, export_dot, export_json, export_xmi, render_table
from .lexer import normalize
from .parser import parse
from .resolver import ResolvedModel, resolve
from .spans import LineIndex
from .validation import validate

OK, MODEL_ERRORS, USAGE_ERROR = 0, 1, 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ucm", description="Check and analyze .ucm use-case models.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse, resolve and validate a model")
    check.add_argument("file", help="input .ucm file")
    check.add_argument("--strict", action="store_true", help="treat warnings as failures")
    check.add_argument("--format", choices=("text", "json"), default="text")

    table = sub.add_parser("table", help="generate a summary table")
    table.add_argument("kind", choices=analysis.TABLES)
    table.add_argument("file", help="input .ucm file")
    view = table.add_mutually_exclusive_group()
    view.add_argument("--view", choices=("global",), default="global")
    view.add_argument("--usecase", metavar="NAME", help="restrict the exception view to one use case")
    table.add_argument("--format", choices=("md", "csv"), default="md")

    export = sub.add_parser("export", help="export the model")
    export.add_argument("target", choices=("json", "xmi", "dot"))
    export.add_argument("file", help="input .ucm file")
    export.add_argument("-o", "--output", metavar="OUT", help="write to OUT instead of stdout")
    return parser


_PARSER = _build_parser()  # built once: each parser holds reference cycles


def _print_diagnostics(diags: list[Diagnostic], source: str) -> None:
    use_color = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
    for diag, text in zip(diags, render_diagnostics(diags, source)):
        if use_color:
            # The severity follows `file:line:column: `; the file name may hold the same word.
            color = "\x1b[31m" if diag.severity is Severity.ERROR else "\x1b[33m"
            word, cut = diag.severity.value, len(diag.span.file)
            text = text[:cut] + text[cut:].replace(f"{word}[", f"{color}{word}\x1b[0m[", 1)
        print(text, file=sys.stderr)


def load(path: str | Path) -> tuple[str, ResolvedModel | None, list[Diagnostic]] | None:
    """Read, parse and resolve the model at `path`. Returns the source, the
    resolved model (None when parsing failed) and the parse or resolve
    diagnostics; None, with the reason printed, when the file cannot be read."""
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        reason = err.strerror or err
    except UnicodeDecodeError as err:
        reason = f"not valid UTF-8 at byte {err.start}"
    else:
        model, diags = parse(source, path)
        if model is None:
            return source, None, diags
        resolved, diags = resolve(model)
        return source, resolved, diags
    print(f"ucm: cannot read '{path}': {reason}", file=sys.stderr)
    return None


def _write_artifact(text: str, output: str | None) -> bool:
    if output is None:
        sys.stdout.write(text)
        return True
    try:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        print(f"ucm: cannot write '{output}': {err.strerror or err}", file=sys.stderr)
        return False
    return True


def _cmd_check(args: argparse.Namespace) -> int:
    loaded = load(args.file)
    if loaded is None:
        return USAGE_ERROR
    source, resolved, diags = loaded
    if resolved is not None:
        diags = sort_diagnostics(diags + validate(resolved))
    if args.format == "json":
        index = LineIndex(normalize(source)) if diags else None
        sys.stdout.write(dump_json([d.to_dict(index) for d in diags]) + "\n")
    else:
        _print_diagnostics(diags, source)
    if has_errors(diags):
        return MODEL_ERRORS
    if args.strict and diags:
        return MODEL_ERRORS
    return OK


def _cmd_table(args: argparse.Namespace) -> int:
    if args.usecase is not None and args.kind != "exceptions":
        print("ucm: --usecase applies only to 'table exceptions'", file=sys.stderr)
        return USAGE_ERROR
    loaded = load(args.file)
    if loaded is None:
        return USAGE_ERROR
    source, resolved, diags = loaded
    if resolved is None or has_errors(diags):
        _print_diagnostics(diags, source)
        return MODEL_ERRORS
    try:
        table = analysis.TABLES[args.kind](resolved, args.usecase)
    except ValueError as err:
        print(f"ucm: {err}", file=sys.stderr)
        return USAGE_ERROR
    except analysis.AnalysisError as err:
        _print_diagnostics([err.diagnostic], source)
        return MODEL_ERRORS
    sys.stdout.write(render_table(table, args.format))
    return OK


def _cmd_export(args: argparse.Namespace) -> int:
    # Exporters are total over any resolved model, so unlike `table` this
    # only requires a successful parse; resolution diagnostics still print.
    loaded = load(args.file)
    if loaded is None:
        return USAGE_ERROR
    source, resolved, diags = loaded
    _print_diagnostics(diags, source)
    if resolved is None:
        return MODEL_ERRORS
    if args.target == "json":
        text = export_json(resolved)
    elif args.target == "xmi":
        text = export_xmi(resolved)
    else:
        text = export_dot(resolved)
    return OK if _write_artifact(text, args.output) else USAGE_ERROR


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exit_err:
        return exit_err.code if isinstance(exit_err.code, int) else USAGE_ERROR
    command = {"check": _cmd_check, "table": _cmd_table}.get(args.command, _cmd_export)
    try:
        code = command(args)
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # The reader has gone: what is still buffered goes to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
