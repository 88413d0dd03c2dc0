"""By-construction checks of everything the benchmark makes ucm print.

Each check returns a list of problems; an empty list means the output is
what the generator's construction of the model implies. Nothing here is
compared with an earlier run of the compiler.
"""

from __future__ import annotations

import csv
import json
import re
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

from workloads import Workload, diamond_path_pattern

TRACEBACK = "Traceback (most recent call last)"
# `ucm` text diagnostics: "file:line:col: error[E001]: message".
_CLI_CODE = re.compile(r"^\S.*?:\d+:\d+: (?:error|warning)\[([EW]\d{3})\]: ", re.M)
# scripts/generate_reports.py: "file:line: E001 message".
_REPORT_CODE = re.compile(r"^\S.*?:\d+: ([EW]\d{3}) ", re.M)

REPORT_TABLES = ("exceptions", "handlers", "mode-switches", "mode-services")
REPORT_EXPORTS = ("json", "xmi", "dot")


def md_rows(text: str) -> list[list[str]]:
    """Body rows of a Markdown table as rendered by ucm (no cell has a pipe)."""
    return [line[2:-2].split(" | ") for line in text.splitlines()[2:]]


def exceptions_table(wl: Workload, text: str) -> list[str]:
    rows = md_rows(text)
    problems = []
    if len(rows) != wl.exception_rows:
        problems.append(f"exception table has {len(rows)} rows, expected {wl.exception_rows}")
    cells = {(row[0], row[1]): row[5] for row in rows if len(row) == 6}
    for key, want in wl.exact_paths.items():
        cell = cells.get(key)
        got = [tuple(p.split(" -> ")) for p in cell.split("; ")] if cell else None
        if got != want:
            problems.append(f"paths of {key}: {got}, expected {want}")
    for key, stage in wl.diamond_stages.items():
        paths = cells.get(key, "").split("; ")
        pattern = diamond_path_pattern(wl.params["prefix"], stage)
        if len(paths) != 2**stage or len(set(paths)) != len(paths):
            problems.append(f"{key}: {len(set(paths))} distinct paths, expected {2**stage}")
        elif not all(pattern.fullmatch(p) for p in paths):
            problems.append(f"{key}: a path is not a root-to-J{stage:02d} diamond path")
    return problems


def handlers_table(wl: Workload, text: str) -> list[str]:
    rows = md_rows(text)
    problems = []
    if len(rows) != wl.handler_rows:
        problems.append(f"handler table has {len(rows)} rows, expected {wl.handler_rows}")
    totals = {row[0]: row[4] for row in rows if len(row) == 5}
    for handler, want in wl.handler_totals.items():
        if totals.get(handler) != str(want):
            problems.append(f"{handler} covers {totals.get(handler)} paths, expected {want}")
    return problems


def modes_table(wl: Workload, text: str) -> list[str]:
    rows = [tuple(row) for row in md_rows(text)]
    if rows != wl.mode_rows:
        return [f"mode switch table differs: {len(rows)} rows, expected {len(wl.mode_rows)}"]
    return []


def services_table(wl: Workload, text: str) -> list[str]:
    return [] if md_rows(text) else ["mode service table is empty"]


def export_json(wl: Workload, text: str) -> list[str]:
    try:
        doc = json.loads(text)
    except ValueError as err:
        return [f"JSON export does not parse: {err}"]
    if doc.get("formatVersion") != 1 or len(doc.get("usecases", ())) != wl.use_cases:
        return [f"JSON export: formatVersion {doc.get('formatVersion')}, "
                f"{len(doc.get('usecases', ()))} use cases, expected {wl.use_cases}"]
    return []


def export_xmi(wl: Workload, text: str) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        return [f"XMI export does not parse: {err}"]
    count = sum(1 for el in root.iter() if el.tag.endswith(("}UseCase", "}Handler")))
    return [] if count == wl.use_cases else [f"XMI export has {count} use cases, expected {wl.use_cases}"]


def export_dot(wl: Workload, text: str) -> list[str]:
    count = text.count("[shape=ellipse")
    if not (text.startswith("digraph ") and text.endswith("}\n")) or count != wl.use_cases:
        return [f"DOT export has {count} use-case nodes, expected {wl.use_cases}"]
    return []


TABLES = {
    "exceptions": exceptions_table,
    "handlers": handlers_table,
    "modes": modes_table,
    "mode-switches": modes_table,
    "mode-services": services_table,
}
EXPORTS = {"json": export_json, "xmi": export_xmi, "dot": export_dot}


def cli_output(wl: Workload, argv: list[str], rc: int | None, out: str, err: str) -> list[str]:
    """Check one `ucm` command against the README's exit codes and the
    workload's construction."""
    command = argv[0]
    if TRACEBACK in err:
        return [f"{' '.join(argv[:2])}: traceback on stderr"]
    if command == "export":
        want_rc, want_codes = 0, wl.resolution_codes
    elif command == "table":
        blocked = bool(wl.resolution_codes)
        want_rc, want_codes = (1 if blocked else 0), wl.resolution_codes
    else:
        want_rc, want_codes = (1 if wl.codes else 0), wl.codes
    problems = []
    if rc != want_rc:
        problems.append(f"{' '.join(argv[:2])}: exit code {rc}, expected {want_rc}")
    codes = Counter(_CLI_CODE.findall(err))
    if codes != want_codes:
        problems.append(f"{' '.join(argv[:2])}: diagnostics {dict(codes)}, expected {dict(want_codes)}")
    if command == "check" or (command == "table" and want_rc):
        if out:
            problems.append(f"{' '.join(argv[:2])}: unexpected output on stdout")
    elif command == "table":
        problems += TABLES[argv[1]](wl, out)
    else:
        problems += EXPORTS[argv[1]](wl, out)
    return problems


def report_output(wl: Workload, rc: int | None, err: str, report_dir: Path) -> list[str]:
    """Check one scripts/generate_reports.py batch and the files it wrote."""
    if TRACEBACK in err:
        return ["report: traceback on stderr"]
    if wl.codes:
        problems = [] if rc == 1 else [f"report: exit status {rc}, expected 1"]
        codes = Counter(_REPORT_CODE.findall(err))
        if codes != wl.codes:
            problems.append(f"report: diagnostics {dict(codes)}, expected {dict(wl.codes)}")
        if report_dir.exists():
            problems.append("report: wrote artifacts for a model with errors")
        return problems
    problems = [] if rc == 0 and not err else [f"report: exit status {rc}, stderr {err[:200]!r}"]
    csv.field_size_limit(2**31 - 1)  # a diamond path cell runs to megabytes
    for name in REPORT_TABLES:
        try:
            md = (report_dir / f"{name}.md").read_text(encoding="utf-8")
            with open(report_dir / f"{name}.csv", encoding="utf-8", newline="") as handle:
                csv_rows = len(list(csv.reader(handle))) - 1
        except OSError as error:
            problems.append(f"report: {error}")
            continue
        problems += TABLES[name](wl, md)
        if csv_rows != len(md_rows(md)):
            problems.append(f"report: {name}.csv has {csv_rows} rows, {name}.md {len(md_rows(md))}")
    for target in REPORT_EXPORTS:
        try:
            text = (report_dir / f"model.{target}").read_text(encoding="utf-8")
        except OSError as error:
            problems.append(f"report: {error}")
            continue
        problems += EXPORTS[target](wl, text)
    return problems


def trace_diagnostics(wl: Workload, resolve_codes: list[str], all_codes: list[str]) -> list[str]:
    """The library's own diagnostics, as the traced run collects them."""
    problems = []
    if Counter(resolve_codes) != wl.resolution_codes:
        problems.append(f"resolve: {dict(Counter(resolve_codes))}, expected {dict(wl.resolution_codes)}")
    if Counter(all_codes) != wl.codes:
        problems.append(f"diagnostics: {dict(Counter(all_codes))}, expected {dict(wl.codes)}")
    return problems
