"""The package surface: `ucm`'s public names, loaded when first read, and the
table formats, named once in `export.TABLE_FORMATS`."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ucm
from conftest import CORPUS, report_script
from ucm import export
from ucm.cli import main

PUBLIC_NAMES = [
    "AnalysisError", "CODES", "Diagnostic", "InvocationCycleError", "InvocationGraph", "LineIndex", "Model",
    "PathRecord", "ResolvedModel", "Severity", "SourceSpan", "SummaryTable", "build_invocation_graph",
    "enumerate_paths", "exception_summary", "export_dot", "export_json", "export_xmi", "handler_summary",
    "import_json", "mode_service_table", "mode_switch_table", "parse", "parse_file", "reachable_use_cases",
    "render_diagnostic", "render_table", "resolve", "validate",
]  # fmt: skip

# Run in a fresh interpreter: which `ucm` submodules each import loads.
IMPORTS = """
import json, sys
loaded = lambda: sorted(name for name in sys.modules if name.startswith("ucm."))
import ucm
after_package = loaded()
from ucm import parse
after_parse = loaded()
import ucm.cli
print(json.dumps({"package": after_package, "parse": after_parse, "cli": ucm.cli.main.__module__}))
"""


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ)
    src = str(Path(ucm.__file__).resolve().parents[1])  # the directory this suite imported `ucm` from
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORTS], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded["package"] == []
    assert "ucm.parser" in loaded["parse"]
    assert "ucm.analysis" not in loaded["parse"] and "ucm.export" not in loaded["parse"]
    assert loaded["cli"] == "ucm.cli"


def test_no_module_of_the_package_uses_enum():
    """Kinds, severities and keywords are plain words: no module imports `enum`."""
    for path in Path(ucm.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "enum" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.level or node.module.split(".")[0] != "enum", path.name


def test_all_lists_the_public_names_in_order():
    assert ucm.__all__ == PUBLIC_NAMES


def test_each_public_name_is_the_object_of_its_submodule():
    for name in PUBLIC_NAMES:
        module = import_module(f"ucm.{ucm._SUBMODULES[name]}")
        assert getattr(ucm, name) is getattr(module, name), name
        assert ucm.__dict__[name] is getattr(module, name), name  # kept after the first read


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from ucm import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(PUBLIC_NAMES)


def test_other_names_are_not_attributes():
    assert not hasattr(ucm, "nope")
    assert ucm.__version__ == "0.1.0"


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(ucm))


def test_a_submodule_imports_by_name():
    from ucm import analysis

    assert analysis is sys.modules["ucm.analysis"] is ucm.analysis


def _tsv(table: export.SummaryTable) -> list[str]:
    return ["\t".join(row) + "\n" for row in (table.columns, *table.rows)]


def test_an_unknown_table_format_is_a_value_error():
    table = export.SummaryTable(["A"], [["1"]])
    with pytest.raises(ValueError) as raised:
        export.render_table(table, "xml")
    assert str(raised.value) == "unknown table format 'xml'"


def test_ucm_table_usage_names_the_formats(capsys):
    assert main(["table", "handlers", str(CORPUS / "smartstore.ucm"), "--format", "xml"]) == 2
    assert "[--format {md,csv}]" in capsys.readouterr().err


def test_ucm_table_takes_its_formats_from_the_registry(monkeypatch, capsys):
    monkeypatch.setitem(export.TABLE_FORMATS, "tsv", _tsv)
    assert main(["table", "handlers", str(CORPUS / "smartstore.ucm"), "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Handler\t") and "|" not in out.splitlines()[0]


def test_ucm_table_usage_lists_the_registry(monkeypatch, capsys):
    monkeypatch.setitem(export.TABLE_FORMATS, "tsv", _tsv)
    assert main(["table", "handlers", str(CORPUS / "smartstore.ucm"), "--format", "xml"]) == 2
    line = next(line for line in capsys.readouterr().err.splitlines() if "invalid choice" in line)
    positions = [line.find(fmt, line.find("choose from")) for fmt in ("md", "csv", "tsv")]
    assert -1 not in positions and positions == sorted(positions), line  # argparse quotes them by version


def test_report_script_writes_every_registered_format(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(export.TABLE_FORMATS, "tsv", _tsv)
    assert report_script().generate(CORPUS / "firealarm.ucm", tmp_path) == 0
    capsys.readouterr()
    written = sorted(path.name for path in (tmp_path / "firealarm").iterdir())
    tables = [f"{kind}.{fmt}" for kind in report_script().REPORTS.values() for fmt in ("md", "csv", "tsv")]
    assert written == sorted([*tables, "model.json", "model.xmi", "model.dot"])
    assert (tmp_path / "firealarm" / "handlers.tsv").read_text(encoding="utf-8").startswith("Handler\t")
