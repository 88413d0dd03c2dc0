from __future__ import annotations

import ast
import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from conftest import CORPUS, REPO_ROOT, chain_source, diamond_chain_source, nested_blocks_source, report_script
from strategies import model_source, retargeted, token_mutated_source
from test_diagnostics import CYCLIC, MULTI_DEFECT
import ucm
from ucm import analysis, export
from ucm.cli import load, main
from ucm.model import MAX_BLOCK_DEPTH, MAX_DIGITS
from ucm.parser import parse

SMARTSTORE = str(CORPUS / "smartstore.ucm")
FIREALARM = str(CORPUS / "firealarm.ucm")
RESOLVER_FAULTS = REPO_ROOT / "tests" / "fixtures" / "resolver-faults.ucm"
# The directory this suite imported `ucm` from: `src/`, or an installed
# package's. Child interpreters get it first on PYTHONPATH, so they test the same `ucm`.
UCM_PATH = str(Path(ucm.__file__).resolve().parents[1])

BROKEN = """model M
modes { default normal Normal }
exceptions { }
usecase A {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::P
  main {
    1. invoke Nowhere
    outcome failure
  }
}
"""

WARN_ONLY = """model M
modes { default normal Normal }
exceptions { exception HardwareException::X global }
usecase A {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::P
  main {
    1. internal "x"
    outcome success
  }
}
"""


class _Terminal(io.StringIO):
    def isatty(self) -> bool:
        return True


def test_colour_marks_the_severity_not_the_file_name(tmp_path, monkeypatch):
    """On a terminal the severity after `file:line:column: ` is coloured,
    also when the file name holds the same word."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NO_COLOR", raising=False)
    Path("error[1].ucm").write_text(BROKEN, encoding="utf-8")
    Path("warning[1].ucm").write_text(WARN_ONLY, encoding="utf-8")
    monkeypatch.setattr(sys, "stderr", _Terminal())
    assert main(["check", "error[1].ucm"]) == 1
    assert main(["check", "warning[1].ucm"]) == 0
    headers = [line for line in sys.stderr.getvalue().splitlines() if not line.startswith(" ")]
    assert headers == [
        "error[1].ucm:11:5: \x1b[31merror\x1b[0m[E003]: invoked use case 'Nowhere' is not defined",
        "error[1].ucm:12:5: \x1b[31merror\x1b[0m[E011]: main success scenario of 'A' ends in 'failure',"
        " expected success",
        "warning[1].ucm:3:14: \x1b[33mwarning\x1b[0m[W002]: exception 'HardwareException::X' is declared"
        " but never raised",
    ]


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.ucm"
    path.write_text(BROKEN, encoding="utf-8")
    return str(path)


@pytest.fixture
def warn_file(tmp_path):
    path = tmp_path / "warn.ucm"
    path.write_text(WARN_ONLY, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "flags, out", [([], ""), (["--strict"], ""), (["--format", "json"], "[]\n")], ids=["plain", "strict", "json"]
)
@pytest.mark.parametrize("model", [SMARTSTORE, FIREALARM], ids=["smartstore", "firealarm"])
def test_check_clean_corpus_exits_zero(model, flags, out, capsys):
    assert main(["check", *flags, model]) == 0
    assert capsys.readouterr() == (out, "")


def test_check_reports_errors_and_exits_one(broken_file, capsys):
    assert main(["check", broken_file]) == 1
    captured = capsys.readouterr()
    assert "E003" in captured.err
    assert "E011" in captured.err
    assert captured.out == ""


def test_check_warnings_pass_unless_strict(warn_file, capsys):
    assert main(["check", warn_file]) == 0
    assert "W002" in capsys.readouterr().err
    assert main(["check", "--strict", warn_file]) == 1


def test_check_json_format_emits_machine_readable_diagnostics(broken_file, capsys):
    assert main(["check", "--format", "json", broken_file]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert {d["code"] for d in payload} >= {"E003", "E011"}
    assert all(d["severity"] == "error" for d in payload)


def test_control_character_in_a_string_is_e000_not_ill_formed_xmi(tmp_path, capsys):
    text = Path(FIREALARM).read_text(encoding="utf-8")
    at = text.index('"') + 1
    path = tmp_path / "firealarm.ucm"
    path.write_text(text[:at] + "\x01" + text[at:], encoding="utf-8")
    assert main(["export", "xmi", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "E000" in captured.err and "string holds control character U+0001" in captured.err


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "missing.ucm"]) == 2
    assert "missing.ucm" in capsys.readouterr().err
    assert main(["export", "json", "missing.ucm"]) == 2


def test_usecase_on_another_table_is_rejected_before_the_file_is_read(capsys):
    assert main(["table", "handlers", "--usecase", "X", "missing.ucm"]) == 2
    assert capsys.readouterr() == ("", "ucm: --usecase applies only to 'table exceptions'\n")


@pytest.mark.parametrize(
    "argv",
    [["check", SMARTSTORE], ["table", "exceptions", SMARTSTORE], ["export", "json", SMARTSTORE]],
    ids=["check", "table", "export"],
)
def test_every_command_loads_its_model_once(argv, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("ucm.cli.load", lambda path: calls.append(path) or load(path))
    assert main(argv) == 0
    assert calls == [SMARTSTORE]


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate", SMARTSTORE]) == 2
    assert main(["table", "nonsense", SMARTSTORE]) == 2


@pytest.mark.parametrize(
    "argv, names",
    [
        (["export", "yaml", SMARTSTORE], ["json", "xmi", "dot"]),
        (["table", "bogus", SMARTSTORE], ["exceptions", "handlers", "modes", "services"]),
    ],
)
def test_usage_error_names_every_registry_entry_in_order(capsys, argv, names):
    """An unknown export target or table kind is a usage error whose message
    lists every entry of `export.EXPORTS` or `analysis.TABLES`, in order. Only
    the order is pinned: argparse quotes the choices differently by version."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    line = next(line for line in err.splitlines() if "invalid choice" in line)
    positions = [line.find(name, line.find("choose from")) for name in names]
    assert -1 not in positions and positions == sorted(positions), line


def test_table_handlers_shows_service_sensor(capsys):
    assert main(["table", "handlers", SMARTSTORE]) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if "ServiceSensor" in line)
    assert "| 9 |" in row
    assert out.startswith("| Handler |")


def test_table_exceptions_global_and_usecase_views(capsys):
    assert main(["table", "exceptions", SMARTSTORE]) == 0
    global_view = capsys.readouterr().out
    assert "HardwareException::TagUnavailable" in global_view
    assert "(global)" in global_view

    assert main(["table", "exceptions", "--usecase", "IdentifyItem", SMARTSTORE]) == 0
    scoped = capsys.readouterr().out
    assert "IdentifyItem" in scoped
    assert "EntryFailure" not in scoped


def test_table_unknown_usecase_is_usage_error(capsys):
    assert main(["table", "exceptions", "--usecase", "Nope", SMARTSTORE]) == 2
    assert "Nope" in capsys.readouterr().err


def test_table_empty_usecase_name_is_usage_error(capsys):
    assert main(["table", "exceptions", SMARTSTORE, "--usecase", ""]) == 2
    assert capsys.readouterr() == ("", "ucm: unknown use case ''\n")


@pytest.mark.parametrize("kind", ["handlers", "modes", "services"])
def test_usecase_with_another_table_is_usage_error(kind, capsys):
    assert main(["table", kind, FIREALARM, "--usecase", "Foo"]) == 2
    assert capsys.readouterr() == ("", "ucm: --usecase applies only to 'table exceptions'\n")


def test_table_csv_format(capsys):
    assert main(["table", "modes", SMARTSTORE, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Use Case,Location,From Mode,To Mode"


def test_without_a_default_mode_the_mode_table_starts_in_the_first_declared_mode(tmp_path, capsys):
    source = WARN_ONLY.replace("default normal Normal", "normal A restricted B").replace("usecase A", "usecase U")
    path = tmp_path / "m.ucm"
    path.write_text(source.replace("  main {", "  main {\n    mode switch: B"), encoding="utf-8")
    assert main(["table", "modes", str(path)]) == 0
    assert "| U | main-begin | A | B |" in capsys.readouterr().out


def test_table_services(capsys):
    assert main(["table", "services", FIREALARM]) == 0
    out = capsys.readouterr().out
    assert "NoInternet" in out and "degraded" in out


def test_table_on_model_with_resolution_errors_exits_one(broken_file, capsys):
    assert main(["table", "exceptions", broken_file]) == 1
    captured = capsys.readouterr()
    assert "E003" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("categories", [("Human", "Humna"), ("Humna", "Human")])
def test_a_misspelled_actor_category_is_e005_alone(categories, tmp_path, capsys):
    """An unknown category declares nothing, so it is no redeclaration
    (E014) of the actor, and the resolver lets the tables run."""
    usecases = "".join(
        f'usecase {name} {{\n  scope: "s"\n  level: user-goal\n  intention: "i"\n  multiplicity: "m"\n'
        f'  primary: {category}::Owner\n  main {{\n    1. Owner -> System : "asks"\n    outcome success\n  }}\n}}\n'
        for name, category in zip("AB", categories)
    )
    path = tmp_path / "typo.ucm"
    path.write_text("model M\nmodes { default normal Normal }\nexceptions { }\n" + usecases, encoding="utf-8")
    assert main(["check", "--format", "json", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(d["code"], d["message"]) for d in payload] == [("E005", "actor 'Owner' uses unknown category 'Humna'")]
    assert main(["table", "handlers", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_table_on_cyclic_model_reports_e015(tmp_path, capsys):
    src = BROKEN.replace("invoke Nowhere", "invoke B").replace("outcome failure", "outcome success")
    src += """usecase B {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::P
  main {
    1. invoke A
    outcome success
  }
}
"""
    path = tmp_path / "cycle.ucm"
    path.write_text(src, encoding="utf-8")
    assert main(["table", "exceptions", str(path)]) == 1
    assert "E015" in capsys.readouterr().err


def test_path_tables_on_a_1200_deep_invocation_chain(tmp_path, capsys):
    path = tmp_path / "chain.ucm"
    path.write_text(chain_source(1200), encoding="utf-8")
    assert main(["table", "handlers", str(path)]) == 0
    assert "| H | U1199 | SoftwareException::Boom |  | 1 |" in capsys.readouterr().out
    assert main(["table", "exceptions", str(path)]) == 0
    assert " -> ".join(f"U{i}" for i in range(1200)) in capsys.readouterr().out


def test_exception_table_past_the_path_node_bound_is_e016(tmp_path, capsys):
    # 2**22 paths of 45 nodes each: far more than the table may list.
    path = tmp_path / "diamonds.ucm"
    path.write_text(diamond_chain_source(22), encoding="utf-8")
    start = time.perf_counter()
    assert main(["table", "exceptions", str(path)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error[E016]: invocation paths too many to list: 188743680 path nodes" in captured.err
    assert main(["table", "exceptions", str(path), "--usecase", "J20"]) == 0
    assert "J20 -> A21 -> J21 -> A22 -> J22" in capsys.readouterr().out


@pytest.mark.parametrize("format", ["md", "csv"])
def test_the_exception_table_peaks_near_its_printed_size(format, tmp_path, capsys, monkeypatch):
    """On a diamond chain whose one row prints 4,096 paths, printing the table
    to a text file allocates at most 2.5 times its text: the Paths cell and
    the bytes the file encodes it to, but no copy of the whole table."""
    path = tmp_path / "diamonds.ucm"
    path.write_text(diamond_chain_source(12), encoding="utf-8")
    argv = ["table", "exceptions", str(path), "--format", format]
    assert main(argv) == 0
    printed = len(capsys.readouterr().out.encode())
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert printed > 600_000
    assert peak <= 2.5 * printed, f"peak {peak} bytes for {printed} printed"


def test_export_json_to_stdout(capsys):
    assert main(["export", "json", SMARTSTORE]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "SmartStore"


def test_export_writes_output_file(tmp_path, capsys):
    out = tmp_path / "model.xmi"
    assert main(["export", "xmi", SMARTSTORE, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8").startswith("<?xml")


def test_export_to_a_missing_directory_cannot_write(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["export", "json", SMARTSTORE, "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"ucm: cannot write '{out}': No such file or directory\n")


def test_export_dot(capsys):
    assert main(["export", "dot", FIREALARM]) == 0
    assert capsys.readouterr().out.startswith('digraph "SmartFireAlarm"')


def test_export_proceeds_past_resolution_errors(broken_file, capsys):
    assert main(["export", "json", broken_file]) == 0
    captured = capsys.readouterr()
    assert "E003" in captured.err  # diagnostics still reported
    assert json.loads(captured.out)["name"] == "M"


def test_export_on_syntax_error_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.ucm"
    path.write_text("model {", encoding="utf-8")
    assert main(["export", "json", str(path)]) == 1
    assert "E000" in capsys.readouterr().err


def test_stdout_is_reproducible(capsys):
    assert main(["table", "exceptions", SMARTSTORE]) == 0
    first = capsys.readouterr().out
    assert main(["table", "exceptions", SMARTSTORE]) == 0
    assert capsys.readouterr().out == first


GOLDEN = REPO_ROOT / "tests" / "golden"
INVOCATION_PATHS = str(REPO_ROOT / "tests" / "fixtures" / "invocation-paths.ucm")
GOLDEN_TABLES = {
    "smartstore-exceptions.md": ["table", "exceptions", SMARTSTORE],
    "smartstore-exceptions-IdentifyItem.md": ["table", "exceptions", SMARTSTORE, "--usecase", "IdentifyItem"],
    "smartstore-handlers.md": ["table", "handlers", SMARTSTORE],
    "smartstore-modes.md": ["table", "modes", SMARTSTORE],
    "firealarm-exceptions.md": ["table", "exceptions", FIREALARM],
    "firealarm-handlers.md": ["table", "handlers", FIREALARM],
    "firealarm-modes.md": ["table", "modes", FIREALARM],
    "smartstore-services.md": ["table", "services", SMARTSTORE],
    "firealarm-services.md": ["table", "services", FIREALARM],
    "invocation-paths-exceptions.md": ["table", "exceptions", INVOCATION_PATHS],
    "invocation-paths-exceptions.csv": ["table", "exceptions", INVOCATION_PATHS, "--format", "csv"],
    "invocation-paths-exceptions-Home.md": ["table", "exceptions", INVOCATION_PATHS, "--usecase", "Home"],
    "invocation-paths-exceptions-Browse.md": ["table", "exceptions", INVOCATION_PATHS, "--usecase", "Browse"],
    "invocation-paths-exceptions-Browse.csv": [
        "table", "exceptions", INVOCATION_PATHS, "--usecase", "Browse", "--format", "csv",
    ],
    **{
        f"{name}-{kind}.csv": ["table", kind, path, "--format", "csv"]
        for name, path in (("smartstore", SMARTSTORE), ("firealarm", FIREALARM))
        for kind in ("exceptions", "handlers", "modes", "services")
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_table_output_matches_golden_file(name, capsys):
    assert main(GOLDEN_TABLES[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_non_utf8_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "latin1.ucm"
    path.write_bytes("model Caf\xe9\n".encode("latin-1"))
    for argv in (["check", str(path)], ["table", "modes", str(path)], ["export", "dot", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "latin1.ucm" in captured.err and "UTF-8" in captured.err
        assert captured.out == ""


def _every_command(path: str, first_use_case: str) -> list[list[str]]:
    """Each `check` form, each table kind in each table format, the exception
    table's view of `first_use_case`, and each export target, on `path`."""
    return [
        ["check", path],
        ["check", "--format", "json", path],
        ["check", "--strict", path],
        *(["table", kind, path, "--format", fmt] for kind in analysis.TABLES for fmt in export.TABLE_FORMATS),
        ["table", "exceptions", path, "--usecase", first_use_case],
        *(["export", target, path] for target in export.EXPORTS),
    ]


GENERATE = report_script().generate


@pytest.mark.parametrize("model", ["smartstore", "firealarm"])
def test_generated_reports_match_the_golden_files(model, tmp_path, capsys):
    assert GENERATE(CORPUS / f"{model}.ucm", tmp_path) == 0
    assert capsys.readouterr().err == ""
    kinds = {"exceptions": "exceptions", "handlers": "handlers", "mode-switches": "modes", "mode-services": "services"}
    expected = {f"{kind}.{fmt}": f"{model}-{golden}.{fmt}" for kind, golden in kinds.items() for fmt in ("md", "csv")}
    expected.update({f"model.{target}": f"{model}.{target}" for target in ("json", "xmi", "dot")})
    written = tmp_path / model
    assert sorted(p.name for p in written.iterdir()) == sorted(expected)
    for name, golden in expected.items():
        assert (written / name).read_bytes() == (GOLDEN / golden).read_bytes(), name


def test_report_script_names_a_report_for_every_table_kind():
    assert list(report_script().REPORTS) == list(analysis.TABLES)


@pytest.mark.parametrize(
    "content, reason",
    [(None, "No such file or directory"), (b"model \xff\n", "not valid UTF-8 at byte 6")],
    ids=["missing", "not-utf8"],
)
def test_report_script_on_an_unreadable_file_writes_nothing(content, reason, tmp_path, capsys):
    model = tmp_path / "m.ucm"
    if content is not None:
        model.write_bytes(content)
    assert GENERATE(model, tmp_path / "reports") == 1
    assert capsys.readouterr() == ("", f"ucm: cannot read '{model}': {reason}\n")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("step, reason", [("mkdir", "Not a directory"), ("open", "Is a directory")])
def test_report_script_on_an_unwritable_output_reports_it(step, reason, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    target = out_dir / "smartstore" / "exceptions.md"
    if step == "mkdir":
        out_dir.write_text("")  # a file where the output directory goes
    else:
        target.mkdir(parents=True)  # a directory where the first report goes
    assert GENERATE(CORPUS / "smartstore.ucm", out_dir) == 1
    assert capsys.readouterr() == ("", f"ucm: cannot write '{target}': {reason}\n")


def _run_every_command(path: str, first_use_case: str) -> None:
    for argv in _every_command(path, first_use_case):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = GENERATE(Path(path), Path(path).parent / "reports")
    assert code in (0, 1), "generate_reports"


def test_blocks_nested_to_the_limit_pass_every_command(tmp_path, capsys):
    path = tmp_path / "deep.ucm"
    path.write_text(nested_blocks_source(MAX_BLOCK_DEPTH), encoding="utf-8")
    for argv in _every_command(str(path), "A"):
        assert main(argv) in (0, 1), argv
        captured = capsys.readouterr()
        assert "E000" not in captured.err + captured.out, argv


CYCLE_FREE_INPUTS = {
    "smartstore.ucm": Path(SMARTSTORE).read_text(encoding="utf-8"),
    "firealarm.ucm": Path(FIREALARM).read_text(encoding="utf-8"),
    "all-productions.ucm": (REPO_ROOT / "tests" / "fixtures" / "all-productions.ucm").read_text(encoding="utf-8"),
    "multi-defect.ucm": MULTI_DEFECT,
    "cycle.ucm": CYCLIC,
    "deep.ucm": nested_blocks_source(MAX_BLOCK_DEPTH),
    "too-deep.ucm": nested_blocks_source(MAX_BLOCK_DEPTH + 1),
}


@pytest.mark.parametrize("name", sorted(CYCLE_FREE_INPUTS))
def test_every_command_leaves_no_reference_cycles(name, tmp_path, capsys):
    """With the cyclic collector off, reference counting alone frees all a
    command builds: `gc.collect()` afterwards finds nothing. Usage errors are
    left out, because argparse leaves cycles of its own on those."""
    path = tmp_path / name
    path.write_text(CYCLE_FREE_INPUTS[name], encoding="utf-8")
    commands = _every_command(str(path), _first_use_case(CYCLE_FREE_INPUTS[name]))
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            assert main(argv) in (0, 1), argv
            capsys.readouterr()
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def self_referring_nested_functions(source: str) -> list[str]:
    """Each function defined inside another that names itself. Its closure
    cell then holds the function, so every call leaves a reference cycle."""
    found = []
    for outer in ast.walk(ast.parse(source)):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)):
                        found.append(f"{outer.name}.{inner.name}:{inner.lineno}")
    return found


def test_no_nested_function_refers_to_itself():
    """The static partner of the reference-cycle test: it also covers
    paths no input of that test reaches."""
    assert self_referring_nested_functions("def f():\n    def g(n):\n        return g(n - 1)\n") == ["f.g:2"]
    for path in sorted((REPO_ROOT / "src" / "ucm").glob("*.py")):
        assert self_referring_nested_functions(path.read_text(encoding="utf-8")) == [], path.name


@pytest.mark.parametrize(
    "content, argv, code",
    [
        (Path(SMARTSTORE).read_text(encoding="utf-8"), None, 0),
        (Path(FIREALARM).read_text(encoding="utf-8"), None, 0),
        (MULTI_DEFECT, None, 1),
        ("model M $", ["check"], 1),
        (BROKEN.replace('"s"', '"s\x01"'), ["check"], 1),
        (None, ["check"], 2),
        (b"model \xff\n", ["check"], 2),
        (Path(SMARTSTORE).read_text(encoding="utf-8"), ["export", "xmi", "-o", "out.xmi"], 0),
        (Path(SMARTSTORE).read_text(encoding="utf-8"), ["export", "json", "-o", "missing/out.json"], 2),
    ],
    ids=[
        "report-smartstore", "report-firealarm", "report-multi-defect", "unrecognized-character",
        "control-character", "missing-file", "not-utf8", "export-to-file", "export-unwritable",
    ],
)
def test_no_path_run_without_the_collector_leaves_a_reference_cycle(content, argv, code, tmp_path, monkeypatch, capsys):
    """The paths the cycle test above does not reach, each run with the
    collector off as `main` and the report script run them: the report
    script (argv None), lexer errors, unreadable files and `export -o`."""
    monkeypatch.chdir(tmp_path)
    if content is not None:
        Path("m.ucm").write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    gc.collect()
    gc.disable()
    try:
        assert (GENERATE(Path("m.ucm"), Path("reports")) if argv is None else main([*argv, "m.ucm"])) == code
        capsys.readouterr()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Enter the test with the cyclic collector on or off; restore it after."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", SMARTSTORE], 0),
        (["check", str(REPO_ROOT / "tests" / "fixtures" / "resolver-faults.ucm")], 1),
        (["check", "missing.ucm"], 2),
        (["table", "handlers", "--usecase", "X", SMARTSTORE], 2),
        (["table", "bogus", SMARTSTORE], 2),
    ],
    ids=["ok", "model-errors", "unreadable", "usecase-on-handlers", "usage-error"],
)
def test_main_restores_the_collector(argv, code, collector, capsys):
    assert main(argv) == code
    assert gc.isenabled() is collector


@pytest.mark.parametrize("driver", ["main", "report-script"])
def test_a_driver_runs_without_the_collector_and_restores_it_when_a_builder_raises(
    driver, collector, tmp_path, monkeypatch, capsys
):
    seen = []

    def failing_builder(resolved, usecase):
        seen.append(gc.isenabled())
        raise RuntimeError("builder failed")

    monkeypatch.setitem(analysis.TABLES, "handlers", failing_builder)
    with pytest.raises(RuntimeError, match="builder failed"):
        if driver == "main":
            main(["table", "handlers", SMARTSTORE])
        else:
            GENERATE(CORPUS / "smartstore.ucm", tmp_path / "reports")
    assert seen == [False]
    assert gc.isenabled() is collector


class _FailingStream(io.StringIO):
    """A stream every write to which, after the first `writes`, fails with
    the error number `code`: EPIPE when its reader has gone, ENOSPC when the
    disk is full. Its file number is that of a file the test owns, which
    `main` and the report script may point at the null device."""

    def __init__(self, fileno: int, code: int = errno.EPIPE, writes: int = 0):
        super().__init__()
        self._fileno, self._code, self._writes = fileno, code, writes

    def write(self, text: str) -> int:
        if self._writes:
            self._writes -= 1
            return super().write(text)
        raise OSError(self._code, os.strerror(self._code))  # EPIPE makes a BrokenPipeError

    def fileno(self) -> int:
        return self._fileno


def test_main_restores_the_collector_after_a_broken_pipe(collector, tmp_path, monkeypatch):
    model = tmp_path / "m.ucm"
    model.write_text(MULTI_DEFECT, encoding="utf-8")
    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        monkeypatch.setattr(sys, "stdout", _FailingStream(out.fileno()))
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["check", "--format", "json", str(model)]) == 2
        monkeypatch.undo()
    assert gc.isenabled() is collector


FULL_DEVICE = f"ucm: cannot write '<stdout>': {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "stream, argv, writes",
    [
        ("stdout", ["export", "json", SMARTSTORE], 0),
        ("stdout", ["check", "--format", "json", SMARTSTORE], 0),
        ("stderr", ["export", "json", str(RESOLVER_FAULTS)], 0),  # fails on the first diagnostic
        ("stdout", ["table", "exceptions", SMARTSTORE], 1),  # fails after the table's first part
    ],
    ids=["export-stdout", "check-stdout", "export-stderr", "table-stdout-partway"],
)
def test_a_full_output_stream_is_exit_2_with_its_reason(stream, argv, writes, collector, tmp_path, monkeypatch):
    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        streams = {"stdout": out, "stderr": err}
        failing = streams[stream] = _FailingStream(streams[stream].fileno(), errno.ENOSPC, writes)
        for name, value in streams.items():
            monkeypatch.setattr(sys, name, value)
        assert main(argv) == 2
        monkeypatch.undo()
    assert bool(failing.getvalue()) is bool(writes)
    assert (tmp_path / "err").read_text() == (FULL_DEVICE if stream == "stdout" else "")
    assert gc.isenabled() is collector


def test_report_script_on_a_full_stdout_reports_it(tmp_path, monkeypatch, capsys):
    with open(tmp_path / "out", "w") as out:
        monkeypatch.setattr(sys, "stdout", _FailingStream(out.fileno(), errno.ENOSPC))
        assert GENERATE(CORPUS / "smartstore.ucm", tmp_path / "reports") == 1
        monkeypatch.undo()
    assert capsys.readouterr().err == FULL_DEVICE
    assert [p.name for p in (tmp_path / "reports" / "smartstore").iterdir()] == ["exceptions.md"]


@pytest.mark.parametrize("case, code", [("ok", 0), ("model-errors", 1), ("unwritable", 1)])
def test_report_script_restores_the_collector(case, code, collector, tmp_path, capsys):
    model = CORPUS / "smartstore.ucm"
    if case == "model-errors":
        model = REPO_ROOT / "tests" / "fixtures" / "resolver-faults.ucm"
    elif case == "unwritable":
        (tmp_path / "reports").write_text("")  # a file where the output directory goes
    assert GENERATE(model, tmp_path / "reports") == code
    assert gc.isenabled() is collector


def test_block_nested_past_the_limit_is_e000_for_every_command(tmp_path, capsys):
    path = tmp_path / "deep.ucm"
    path.write_text(nested_blocks_source(MAX_BLOCK_DEPTH + 1), encoding="utf-8")
    for argv in _every_command(str(path), "A"):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        shown = captured.out + captured.err  # check --format json reports on stdout
        assert "E000" in shown and "block nested deeper than 64 levels" in shown, argv


def one_use_case(steps: str, extensions: str = "", actors: str = "Human::User") -> str:
    """A model whose one use case `A` has the given main steps, extension
    blocks and primary actors, and declares `HardwareException::Fault`."""
    return f"""model M
modes {{ default normal Normal }}
exceptions {{ exception HardwareException::Fault }}
usecase A {{
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: {actors}
  main {{
{steps}
    outcome success
  }}
  extensions {{
{extensions}
  }}
}}
"""


RANGE_END = 10**7
# Block `1-10000000a` hangs off steps 1, 2 and 10000000; step 10000000 is E002.
RANGE_ANCHOR = one_use_case(
    f'    1. User -> System : "a"\n    2. System -> User : "b"\n    {RANGE_END}. System -> Lamp : "c"',
    f'    block 1-{RANGE_END}a exceptional when "g" {{\n'
    f"      1-{RANGE_END}a1. raise HardwareException::Fault\n      outcome failure\n    }}",
    actors="Human::User, Device::Lamp",
)


def test_range_anchor_costs_its_parent_sequence_not_its_range(tmp_path, capsys):
    path = tmp_path / "range.ucm"
    path.write_text(RANGE_ANCHOR, encoding="utf-8")
    start = time.perf_counter()
    assert main(["check", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "error[E002]" in capsys.readouterr().err
    assert main(["table", "exceptions", str(path)]) == 0
    assert "| HardwareException::Fault | A |  | g | User, Lamp | A |" in capsys.readouterr().out
    for argv in _every_command(str(path), "A"):
        assert main(argv) in (0, 1), argv
        assert "E000" not in "".join(capsys.readouterr()), argv


LONG = "1" * 5000
OVER_LONG_NUMBERS = {
    "step label": one_use_case(f'    1. User -> System : "a"\n    {LONG}. System -> User : "b"'),
    "block label": one_use_case('    1. User -> System : "a"', f"    block {LONG}a alternative {{ outcome failure }}"),
    "multiplicity": one_use_case('    1. User -> System : "a"', actors=f"Human::User[1..{LONG}]"),
    "integer timeout": one_use_case(f'    1. internal timeout {"1" * 400} s "x"'),
    "decimal timeout": one_use_case(f'    1. internal timeout {"1" * 400}.5 s "x"'),
}


@pytest.mark.parametrize("name", sorted(OVER_LONG_NUMBERS))
def test_number_over_the_digit_bound_is_e000_for_every_command(name, tmp_path, capsys):
    path = tmp_path / "long.ucm"
    path.write_text(OVER_LONG_NUMBERS[name], encoding="utf-8")
    for argv in _every_command(str(path), "A"):
        assert main(argv) == 1, argv
        shown = "".join(capsys.readouterr())  # check --format json reports on stdout
        assert "E000" in shown and f"number with more than {MAX_DIGITS} digits" in shown, argv


def test_numbers_at_the_digit_bound_pass_every_command(tmp_path, capsys):
    big = "9" * MAX_DIGITS
    path = tmp_path / "big.ucm"
    path.write_text(
        one_use_case(
            f'    1. internal timeout {big} s "x"\n    2. internal timeout {big}.{big} ms "y"\n'
            f'    {big}. User -> System : "a"',
            f'    block {big}a alternative {{ outcome failure }}',
            actors=f"Human::User[{big}..{big}]",
        ),
        encoding="utf-8",
    )
    for argv in _every_command(str(path), "A"):
        assert main(argv) in (0, 1), argv
        assert "E000" not in "".join(capsys.readouterr()), argv


def _first_use_case(text: str) -> str:
    model, _ = parse(text)
    return model.use_cases[0].name if model is not None and model.use_cases else "Missing"


SMARTSTORE_BYTES = (CORPUS / "smartstore.ucm").read_bytes()


@st.composite
def mutated_smartstore(draw) -> bytes:
    """The smart-store corpus with a few byte ranges replaced by random bytes."""
    data = bytearray(SMARTSTORE_BYTES)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=len(data)))
        length = draw(st.integers(min_value=0, max_value=40))
        data[start : start + length] = draw(st.binary(max_size=8))
    return bytes(data)


NEVER_CRASH = settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@NEVER_CRASH
@given(source=model_source())
def test_cli_never_crashes_on_generated_models(tmp_path_factory, source):
    path = tmp_path_factory.mktemp("generated") / "model.ucm"
    path.write_text(source, encoding="utf-8")
    _run_every_command(str(path), _first_use_case(source))


@NEVER_CRASH
@given(data=mutated_smartstore())
def test_cli_never_crashes_on_mutated_corpus(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mutated") / "smartstore.ucm"
    path.write_bytes(data)
    _run_every_command(str(path), _first_use_case(data.decode("utf-8", "replace")))


# Both corpora and the four fixtures, the texts whose tokens are mutated.
TOKEN_MUTATION_BASES = tuple(
    path.read_text(encoding="utf-8")
    for path in (
        CORPUS / "smartstore.ucm",
        CORPUS / "firealarm.ucm",
        *(
            REPO_ROOT / "tests" / "fixtures" / f"{name}.ucm"
            for name in ("all-productions", "invocation-paths", "resolver-faults", "validation-faults")
        ),
    )
)


@NEVER_CRASH
@given(source=token_mutated_source(TOKEN_MUTATION_BASES))
def test_cli_never_crashes_on_token_mutations(tmp_path_factory, source):
    """Token edits reach past the parser: a mutant that still parses, after
    a swapped name say, takes a broken model through resolution,
    validation, the tables and the exports."""
    path = tmp_path_factory.mktemp("tokens") / "model.ucm"
    path.write_text(source, encoding="utf-8")
    _run_every_command(str(path), _first_use_case(source))


@st.composite
def parsed_retargeted_mutant(draw) -> str:
    """A token mutant of swaps and retargeted invokes that parses, drawn
    until one does."""
    for _ in range(20):
        source = draw(token_mutated_source(TOKEN_MUTATION_BASES, edits=("swap", "retarget")))
        if parse(source)[0] is not None:
            return source
    reject()


# The smart store with its first invoke retargeted: UseSmartStore invokes itself.
SELF_INVOKING = retargeted(TOKEN_MUTATION_BASES[0], 0)


def test_a_retargeted_invoke_is_an_invocation_cycle(tmp_path, capsys):
    path = tmp_path / "model.ucm"
    path.write_text(SELF_INVOKING, encoding="utf-8")
    assert main(["table", "exceptions", str(path)]) == 1
    assert "error[E015]: invocation cycle detected: UseSmartStore -> UseSmartStore" in capsys.readouterr().err


@NEVER_CRASH
@example(source=SELF_INVOKING)
@given(source=parsed_retargeted_mutant())
def test_cli_never_crashes_on_parsed_retargeted_mutants(tmp_path_factory, source):
    """Mutants that parse take every command past the parser; a retargeted
    invoke makes a cycle, which the tables report as E015."""
    path = tmp_path_factory.mktemp("retargeted") / "model.ucm"
    path.write_text(source, encoding="utf-8")
    _run_every_command(str(path), _first_use_case(source))


def run_ucm(argv: list[str], stream: str, fd: int) -> subprocess.CompletedProcess:
    """Run `ucm argv` in a fresh interpreter whose `stream`, "stdout" or
    "stderr", writes to the file `fd`; the other stream is captured. Output
    is buffered, as by default, so a short output fails only when flushed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [UCM_PATH, env.get("PYTHONPATH")]))
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: fd}
    code = "import sys; from ucm.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=60, **streams)


def run_into_closed_pipe(stream: str, argv: list[str]) -> subprocess.CompletedProcess:
    """`run_ucm` with `stream` a pipe whose read end is already closed, so
    every write to it fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_ucm(argv, stream, write_end)
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "stream, argv",
    [
        ("stdout", ["table", "exceptions", SMARTSTORE]),  # fits the buffer: fails when flushed
        ("stdout", ["export", "json", SMARTSTORE]),  # overflows the buffer: fails in the write
        ("stdout", ["check", "--format", "json", "multi-defect.ucm"]),
        ("stderr", ["check", "multi-defect.ucm"]),
        ("stdout", ["table", "exceptions", "diamonds.ucm"]),  # 129 KB, over a pipe's buffer: fails in its parts' writes
    ],
)
def test_an_output_stream_closed_early_exits_2_and_prints_nothing(stream, argv, tmp_path):
    models = {"multi-defect.ucm": MULTI_DEFECT, "diamonds.ucm": diamond_chain_source(10)}
    for name, source in models.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    done = run_into_closed_pipe(stream, [str(tmp_path / a) if a in models else a for a in argv])
    assert done.returncode == 2
    assert (done.stderr if stream == "stdout" else done.stdout) == b""


def test_check_writes_the_golden_diagnostics_to_a_pipe():
    """`python -m ucm.cli check` with stderr on a real pipe, so through a
    text stream over a file descriptor, writes the golden bytes."""
    fixtures = REPO_ROOT / "tests" / "fixtures"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [UCM_PATH, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "ucm.cli", "check", "validation-faults.ucm"],
        cwd=fixtures, env=env, capture_output=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == (REPO_ROOT / "tests" / "golden" / "validation-faults-check.txt").read_bytes()


@pytest.mark.parametrize("format", ["md", "csv"])
def test_table_exceptions_writes_the_golden_table_to_a_pipe(format):
    """`python -m ucm.cli table exceptions` with stdout on a real pipe, so
    through a text stream over a file descriptor, writes the table's parts
    as exactly the golden bytes."""
    fixtures = REPO_ROOT / "tests" / "fixtures"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [UCM_PATH, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "ucm.cli", "table", "exceptions", "invocation-paths.ucm", "--format", format],
        cwd=fixtures, env=env, capture_output=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (REPO_ROOT / "tests" / "golden" / f"invocation-paths-exceptions.{format}").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="the system has no /dev/full")
@pytest.mark.parametrize(
    "stream, argv",
    [
        ("stdout", ["export", "json", SMARTSTORE]),  # overflows the buffer: fails in the write
        ("stdout", ["check", "--format", "json", SMARTSTORE]),  # fits the buffer: fails when flushed
        ("stderr", ["export", "json", str(RESOLVER_FAULTS)]),
    ],
    ids=["export-stdout", "check-stdout", "export-stderr"],
)
def test_a_full_device_exits_2_without_a_traceback(stream, argv):
    with open("/dev/full", "wb") as full:
        done = run_ucm(argv, stream, full.fileno())
    assert done.returncode == 2
    if stream == "stdout":
        assert done.stderr.decode() == FULL_DEVICE
    else:
        assert done.stdout == b""


# Every command whose output could follow the set or dict order of use-case
# names, run in one interpreter; prints exit codes, outputs and report files as
# JSON. Stdlib only, so any interpreter can run it by hand, pytest or not:
#     python -c "import sys; sys.path[:0] = ['tests', 'src']; import test_cli; print(test_cli.SEEDED_RUN)" > seeded.py
#     PYTHONHASHSEED=1 PYTHONPATH=src python3.13 seeded.py .
SEEDED_RUN = """
import contextlib, importlib.util, io, json, os, sys, tempfile
from pathlib import Path
import ucm.cli  # before the report script, whose sys.path entry for src/ would otherwise win

repo = Path(sys.argv[1]).resolve()
spec = importlib.util.spec_from_file_location("generate_reports", repo / "scripts" / "generate_reports.py")
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
fixtures = repo / "tests" / "fixtures"
commands = [["check", "--format", "json", str(fixtures / f"{name}-faults.ucm")] for name in ("resolver", "validation")]
commands += [
    ["table", "exceptions", "--format", fmt, *view, str(fixtures / "invocation-paths.ucm")]
    for view in ([], ["--usecase", "Home"], ["--usecase", "Browse"])
    for fmt in ("md", "csv")
]

def run(function, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = function(*args)
    return [code, out.getvalue(), err.getvalue()]

runs = [run(ucm.cli.main, argv) for argv in commands]
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)  # write to the relative reports/, so both seeds print the same paths
    for name in ("smartstore", "firealarm"):
        runs.append(run(script.generate, repo / "corpus" / f"{name}.ucm", Path("reports")))
    files = {str(p): p.read_text(encoding="utf-8") for p in sorted(Path("reports").rglob("*")) if p.is_file()}
print(json.dumps({"ucm": ucm.__file__, "runs": runs, "files": files}, indent=1))
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    """The fault fixtures' JSON diagnostics, six exception-table views of
    `invocation-paths.ucm` and the report trees of both corpora come out
    byte for byte the same under two hash seeds, from the `ucm` this suite tests."""
    outputs = [
        subprocess.run(
            [sys.executable, "-c", SEEDED_RUN, str(REPO_ROOT)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": UCM_PATH},
            capture_output=True, timeout=60, check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    first, second = (json.loads(output) for output in outputs)
    assert first == second and outputs[0] == outputs[1]
    assert Path(first["ucm"]).resolve() == Path(ucm.__file__).resolve()
    assert [code for code, _, _ in first["runs"]] == [1, 1, *[0] * 8]
    assert len(first["files"]) == 22
