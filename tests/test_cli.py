from __future__ import annotations

import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, REPO_ROOT, chain_source, diamond_chain_source, nested_blocks_source, report_script
from strategies import model_source
from test_diagnostics import CYCLIC, MULTI_DEFECT
from ucm.cli import main
from ucm.model import MAX_BLOCK_DEPTH, MAX_DIGITS
from ucm.parser import parse

SMARTSTORE = str(CORPUS / "smartstore.ucm")
FIREALARM = str(CORPUS / "firealarm.ucm")

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


def test_check_clean_corpus_exits_zero(capsys):
    assert main(["check", SMARTSTORE]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ""


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


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate", SMARTSTORE]) == 2
    assert main(["table", "nonsense", SMARTSTORE]) == 2


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
    return [
        ["check", path],
        ["check", "--format", "json", path],
        *(["table", kind, path] for kind in ("exceptions", "handlers", "modes", "services")),
        ["table", "exceptions", path, "--usecase", first_use_case],
        *(["export", target, path] for target in ("json", "xmi", "dot")),
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


def run_into_closed_pipe(stream: str, argv: list[str]) -> subprocess.CompletedProcess:
    """Run `ucm argv` in a fresh interpreter whose `stream`, "stdout" or
    "stderr", is a pipe with its read end already closed, so every write to
    it fails; the other stream is captured. Output is buffered, as by
    default, so a short output fails only when flushed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
    code = "import sys; from ucm.cli import main; sys.exit(main())"
    try:
        return subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=60, **streams)
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "stream, argv",
    [
        ("stdout", ["table", "exceptions", SMARTSTORE]),  # fits the buffer: fails when flushed
        ("stdout", ["export", "json", SMARTSTORE]),  # overflows the buffer: fails in the write
        ("stdout", ["check", "--format", "json", "multi-defect.ucm"]),
        ("stderr", ["check", "multi-defect.ucm"]),
    ],
)
def test_an_output_stream_closed_early_exits_2_and_prints_nothing(stream, argv, tmp_path):
    defective = tmp_path / "multi-defect.ucm"
    defective.write_text(MULTI_DEFECT, encoding="utf-8")
    done = run_into_closed_pipe(stream, [str(defective) if a == defective.name else a for a in argv])
    assert done.returncode == 2
    assert (done.stderr if stream == "stdout" else done.stdout) == b""
