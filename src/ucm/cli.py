"""Command-line driver: check, table, and export subcommands.

`main` calls `load` once for every command, to read, parse and resolve the
model; scripts/generate_reports.py calls it too. Both take their choices from
the registries `analysis.TABLES`, `export.TABLE_FORMATS` and `export.EXPORTS`:
the builder of each table kind and the writer of each format and target.
Diagnostics go to stderr in one write, requested artifacts to stdout, a
table as its parts, so output can be piped. Exit codes: 0 success, 1 model errors (or warnings
under --strict), 2 usage or I/O problems, an output stream closed early or
failing included.

`main` and the report script's `generate` run with the cyclic collector off
(`without_collector`): no command leaves a reference cycle, so reference
counting frees all they build. Argument parsing stays outside, as argparse
leaves cycles on usage errors. Library callers keep their own setting.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from . import analysis
from .diagnostics import Diagnostic, Severity, has_errors, render_diagnostics, sort_diagnostics
from .export import EXPORTS, TABLE_FORMATS, dump_json, table_parts
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
    table.add_argument("--format", choices=TABLE_FORMATS, default="md")

    export = sub.add_parser("export", help="export the model")
    export.add_argument("target", choices=EXPORTS)
    export.add_argument("file", help="input .ucm file")
    export.add_argument("-o", "--output", metavar="OUT", help="write to OUT instead of stdout")
    return parser


_PARSER = _build_parser()  # built once: each parser holds reference cycles


@contextlib.contextmanager
def without_collector() -> Iterator[None]:
    """Run the body with the cyclic collector off, then restore the caller's
    setting, which may be off already (see the module docstring for why)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _print_diagnostics(diags: list[Diagnostic], source: str) -> None:
    texts = render_diagnostics(diags, source)
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        for i, (diag, text) in enumerate(zip(diags, texts)):
            # The severity follows `file:line:column: `; the file name may hold the same word.
            color = "\x1b[31m" if diag.severity is Severity.ERROR else "\x1b[33m"
            word, cut = diag.severity.value, len(diag.span.file)
            texts[i] = text[:cut] + text[cut:].replace(f"{word}[", f"{color}{word}\x1b[0m[", 1)
    sys.stderr.write("".join(text + "\n" for text in texts))


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


def _drop_buffered(*streams) -> None:
    """Point each stream at the null device, where what it still buffers
    goes, so that exiting does not fail on it again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    for stream in streams:
        os.dup2(devnull, stream.fileno())
    os.close(devnull)


def report_unwritable_stdout(err: OSError) -> None:
    """Report that stdout failed with `err` while stderr still works, and
    drop what the failed streams still buffer; when stderr was the one that
    failed, the report fails too and both are dropped."""
    try:
        print(f"ucm: cannot write '<stdout>': {err.strerror or err}", file=sys.stderr)
        sys.stderr.flush()
    except OSError:
        _drop_buffered(sys.stdout, sys.stderr)
    else:
        _drop_buffered(sys.stdout)


def _cmd_check(args: argparse.Namespace, source: str, resolved: ResolvedModel | None, diags: list[Diagnostic]) -> int:
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


def _cmd_table(args: argparse.Namespace, source: str, resolved: ResolvedModel | None, diags: list[Diagnostic]) -> int:
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
    sys.stdout.writelines(table_parts(table, args.format))
    return OK


def _cmd_export(args: argparse.Namespace, source: str, resolved: ResolvedModel | None, diags: list[Diagnostic]) -> int:
    # Exporters are total over any resolved model, so unlike `table` this
    # only requires a successful parse; resolution diagnostics still print.
    _print_diagnostics(diags, source)
    if resolved is None:
        return MODEL_ERRORS
    return OK if _write_artifact(EXPORTS[args.target](resolved), args.output) else USAGE_ERROR


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exit_err:
        return exit_err.code if isinstance(exit_err.code, int) else USAGE_ERROR
    if args.command == "table" and args.usecase is not None and args.kind != "exceptions":
        print("ucm: --usecase applies only to 'table exceptions'", file=sys.stderr)
        return USAGE_ERROR
    command = {"check": _cmd_check, "table": _cmd_table}.get(args.command, _cmd_export)
    with without_collector():
        try:
            loaded = load(args.file)
            code = USAGE_ERROR if loaded is None else command(args, *loaded)
            sys.stdout.flush()
            sys.stderr.flush()
        except BrokenPipeError:
            _drop_buffered(sys.stdout, sys.stderr)  # the reader has gone
            return USAGE_ERROR
        except OSError as err:  # a full disk, say
            report_unwritable_stdout(err)
            return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
