"""Command-line driver: check, table, and export subcommands.

Diagnostics go to stderr, requested artifacts to stdout, so output can be
piped. Exit codes: 0 success, 1 model errors (or warnings under --strict),
2 usage or I/O problems.
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
from .model import Model
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
    table.add_argument("kind", choices=("exceptions", "handlers", "modes", "services"))
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


def _print_diagnostics(diags: list[Diagnostic], source: str) -> None:
    use_color = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
    for diag, text in zip(diags, render_diagnostics(diags, source)):
        if use_color:
            color = "\x1b[31m" if diag.severity is Severity.ERROR else "\x1b[33m"
            text = text.replace(f"{diag.severity.value}[", f"{color}{diag.severity.value}\x1b[0m[", 1)
        print(text, file=sys.stderr)


def read_source(path: str | Path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        reason = err.strerror or err
    except UnicodeDecodeError as err:
        reason = f"not valid UTF-8 at byte {err.start}"
    print(f"ucm: cannot read '{path}': {reason}", file=sys.stderr)
    return None


def _load(path: str) -> tuple[str, Model | None, list[Diagnostic]] | None:
    source = read_source(path)
    if source is None:
        return None
    model, diags = parse(source, path)
    return source, model, diags


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
    loaded = _load(args.file)
    if loaded is None:
        return USAGE_ERROR
    source, model, diags = loaded
    if model is not None:
        resolved, resolve_diags = resolve(model)
        diags = sort_diagnostics(diags + resolve_diags + validate(resolved))
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


def _load_resolved(path: str) -> tuple[str, ResolvedModel, list[Diagnostic]] | int:
    """Read, parse and resolve a model, or print why not and return the exit
    code."""
    loaded = _load(path)
    if loaded is None:
        return USAGE_ERROR
    source, model, parse_diags = loaded
    if model is None:
        _print_diagnostics(parse_diags, source)
        return MODEL_ERRORS
    resolved, resolve_diags = resolve(model)
    return source, resolved, resolve_diags


def _cmd_table(args: argparse.Namespace) -> int:
    if args.usecase is not None and args.kind != "exceptions":
        print("ucm: --usecase applies only to 'table exceptions'", file=sys.stderr)
        return USAGE_ERROR
    outcome = _load_resolved(args.file)
    if isinstance(outcome, int):
        return outcome
    source, resolved, resolve_diags = outcome
    if has_errors(resolve_diags):
        _print_diagnostics(resolve_diags, source)
        return MODEL_ERRORS
    try:
        if args.kind == "exceptions":
            table = analysis.exception_table(analysis.exception_summary(resolved, args.usecase or None))
        elif args.kind == "handlers":
            table = analysis.handler_table(analysis.handler_summary(resolved))
        elif args.kind == "modes":
            table = analysis.mode_switch_summary_table(analysis.mode_switch_table(resolved))
        else:
            table = analysis.mode_service_summary_table(analysis.mode_service_table(resolved.model))
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
    outcome = _load_resolved(args.file)
    if isinstance(outcome, int):
        return outcome
    source, resolved, resolve_diags = outcome
    _print_diagnostics(resolve_diags, source)
    if args.target == "json":
        text = export_json(resolved)
    elif args.target == "xmi":
        text = export_xmi(resolved)
    else:
        text = export_dot(resolved)
    return OK if _write_artifact(text, args.output) else USAGE_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        return exit_err.code if isinstance(exit_err.code, int) else USAGE_ERROR
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "table":
        return _cmd_table(args)
    return _cmd_export(args)


if __name__ == "__main__":
    sys.exit(main())
