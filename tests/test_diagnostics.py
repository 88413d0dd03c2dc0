from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import REPO_ROOT, pipeline, report_script
from oracles import position_at, reference_caret_pad
from ucm.cli import main
from ucm.diagnostics import CODES, Diagnostic, Severity, render_diagnostic, render_diagnostics, sort_diagnostics
from ucm.spans import ZERO_SPAN, LineIndex, SourceSpan


def span(file="store.ucm", start=0, end=1):
    return SourceSpan(file, start, end)


def test_severity_follows_code_prefix():
    assert Diagnostic("E004", "x", span()).severity is Severity.ERROR
    assert Diagnostic("W001", "x", span()).severity is Severity.WARNING
    for code in CODES:
        assert code[0] in "EW"


def test_a_severity_is_its_plain_word():
    """`Severity` names the two words; a diagnostic's severity is that very
    string, which callers may test with `is` or `==` alike."""
    error, warning = Diagnostic("E004", "x", span()).severity, Diagnostic("W001", "x", span()).severity
    assert error is Severity.ERROR and error == "error" and type(error) is str
    assert warning is Severity.WARNING and warning == "warning" and type(warning) is str


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic("E999", "x", span())


def test_render_contains_location_code_and_message():
    source = "\n" * 11 + "4. raise HardwareException::Nope\n"
    diag = Diagnostic("E004", "exception 'HardwareException::Nope' is not defined", span(start=11, end=12))
    text = render_diagnostic(diag, source)
    assert text.startswith("store.ucm:12:")
    assert "E004" in text
    assert "error" in text
    assert "not defined" in text


def test_render_lists_suggestions_in_order():
    diag = Diagnostic("E002", "bad step", span(), suggestions=["3", "4"])
    text = render_diagnostic(diag, "1. x\n")
    first = text.index("suggestion: 3")
    second = text.index("suggestion: 4")
    assert first < second


def test_render_zero_length_span_at_end_of_file():
    source = "model M"
    diag = Diagnostic("E000", "expected more", span(start=7, end=7))
    text = render_diagnostic(diag, source)
    assert text.startswith("store.ucm:1:8:")  # one past the last column
    assert "^" in text


def test_render_carets_keep_the_tabs_of_the_excerpt():
    source = "modes {\n\t bogus\n"
    diag = Diagnostic("E000", "expected '}'", span(start=10, end=15))
    header, excerpt, carets = render_diagnostic(diag, source).split("\n")
    assert header.startswith("store.ucm:2:3:")  # a tab counts as one column
    assert excerpt == "  \t bogus"
    assert carets == "  \t ^^^^^"


@given(text=st.text(alphabet="ab \t\n", max_size=30), start=st.integers(0, 35), length=st.integers(0, 8))
@example(text="", start=0, length=0)
@example(text="ab\ncd", start=4, length=1)
@example(text="ab\ncd\n", start=4, length=9)
@example(text="a\t b\n", start=3, length=2)
@example(text="\t\tab", start=9, length=1)
def test_render_pads_the_carets_as_the_reference(text, start, length):
    """The caret line repeats the tabs of the excerpt before the caret
    column and a space for every other character, also where the offset
    lies past the end of the text."""
    rendered = render_diagnostic(Diagnostic("E000", "m", span(start=start, end=start + length)), text).split("\n")
    line, column = position_at(text, start)
    excerpt = text.split("\n")[line - 1]
    if not excerpt:
        assert len(rendered) == 1
        return
    offset = min(start, len(text))
    line_end = offset - column + 1 + len(excerpt)
    width = max(1, min(start + length, line_end) - offset)
    assert rendered[1:] == [f"  {excerpt}", f"  {reference_caret_pad(excerpt[: column - 1])}{'^' * width}"]


def test_render_related_notes():
    related = [(span(start=0, end=1), "first definition")]
    diag = Diagnostic("E014", "duplicate", span(start=5, end=6), related=related)
    text = render_diagnostic(diag, "abc\nabc\n")
    assert "note: store.ucm:1:1: first definition" in text


def test_render_is_deterministic():
    source = "line one\nline two\n"
    diag = Diagnostic("W002", "never raised", span(start=9, end=17), suggestions=["drop it"])
    assert render_diagnostic(diag, source) == render_diagnostic(diag, source)


def test_sort_orders_by_file_offset_code():
    d1 = Diagnostic("E003", "a", span(file="b.ucm", start=5, end=6))
    d2 = Diagnostic("E001", "b", span(file="a.ucm", start=9, end=10))
    d3 = Diagnostic("E002", "c", span(file="b.ucm", start=5, end=6))
    assert [d.code for d in sort_diagnostics([d1, d2, d3])] == ["E001", "E002", "E003"]


def test_to_dict_is_json_friendly():
    import json

    related = [(span(start=2, end=3), "first definition")]
    diag = Diagnostic("E010", "msg", span(start=5, end=6), related=related, suggestions=["s"])
    payload = json.loads(json.dumps(diag.to_dict(LineIndex("abc\nabc\n"))))
    assert payload["code"] == "E010"
    assert payload["severity"] == "error"
    assert (payload["line"], payload["column"], payload["start"], payload["end"]) == (2, 2, 5, 6)
    assert payload["related"] == [{"file": "store.ucm", "line": 1, "column": 3, "note": "first definition"}]


def test_span_rejects_start_after_end():
    with pytest.raises(ValueError):
        SourceSpan("f", 5, 4)


def test_spans_are_immutable_hashable_and_equal_by_value():
    a, b = span(start=3, end=7), span(start=3, end=7)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, ZERO_SPAN}) == 2
    assert a != span(start=3, end=8)
    assert SourceSpan._fields == ("file", "start", "end")
    assert (a.file, a.start, a.end) == ("store.ucm", 3, 7)
    with pytest.raises(AttributeError):
        a.start = 0


# A BOM, CRLF line ends, and eight defects; the last line is two spaces with
# no line end, so the end of file sits at 21:3.
MULTI_DEFECT = "\ufeff" + "\r\n".join([
    "model M",
    "modes { default normal Normal }",
    "exceptions {",
    "  exception HardwareException::Jam",
    "  exception HardwareException::Jam",
    "}",
    "usecase A {",
    '  scope: "s"',
    "  level: user-goal",
    '  intention: "i"',
    '  multiplicity: "m"',
    "  primary: Human::P [3..1]",
    "  secondary: Sensr::Q",
    "  main {",
    '    1. System -> Ghost : "hello"',
    "    2. invoke Missing",
    "    3. raise SoftwareException::Nope",
    "    outcome success",
    "  }",
    "}",
    "  ",
])

MULTI_DEFECT_RENDERED = [
    "m.ucm:4:3: warning[W002]: exception 'HardwareException::Jam' is declared but never raised\n"
    "    exception HardwareException::Jam\n"
    "    ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^",
    "m.ucm:5:3: error[E014]: duplicate exception 'Jam'\n"
    "    exception HardwareException::Jam\n"
    "    ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^\n"
    "  note: m.ucm:4:3: first definition",
    "m.ucm:5:3: warning[W002]: exception 'HardwareException::Jam' is declared but never raised\n"
    "    exception HardwareException::Jam\n"
    "    ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^",
    "m.ucm:12:12: error[E006]: multiplicity [3..1] has lower bound above upper bound\n"
    "    primary: Human::P [3..1]\n"
    "             ^^^^^^^^^^^^^^^",
    "m.ucm:13:14: error[E005]: actor 'Q' uses unknown category 'Sensr'\n"
    "    secondary: Sensr::Q\n"
    "               ^^^^^^^^\n"
    "  suggestion: use one of Human::Q, Software::Q, PhysicalEntity::Q, Device::Q, Sensor::Q, Actuator::Q, Tag::Q, Reader::Q",
    "m.ucm:15:5: error[E010]: actor 'Ghost' is not declared in 'A' (declared actors: P, Q)\n"
    '      1. System -> Ghost : "hello"\n'
    "      ^^^^^^^^^^^^^^^^^^^^^^^^^^^^",
    "m.ucm:16:5: error[E003]: invoked use case 'Missing' is not defined\n"
    "      2. invoke Missing\n"
    "      ^^^^^^^^^^^^^^^^^",
    "m.ucm:17:14: error[E004]: exception 'SoftwareException::Nope' is not defined in the header\n"
    "      3. raise SoftwareException::Nope\n"
    "               ^^^^^^^^^^^^^^^^^^^^^^^",
    "m.ucm:21:3: error[E000]: expected more\n    \n    ^",
    "m.ucm:21:3: error[E000]: past the end\n    \n    ^",
    "m.ucm:7:1: error[E014]: at a line start\n  usecase A {\n  ^^^^^^^",
]


def test_render_every_diagnostic_of_a_crlf_bom_model():
    _, diags = pipeline(MULTI_DEFECT, "m.ucm")
    diags = sort_diagnostics(diags)
    eof = len(MULTI_DEFECT) - 1 - MULTI_DEFECT.count("\r\n")  # offsets exclude the BOM and the CRs
    diags.append(Diagnostic("E000", "expected more", SourceSpan("m.ucm", eof, eof)))
    diags.append(Diagnostic("E000", "past the end", SourceSpan("m.ucm", eof + 5, eof + 9)))
    usecase = MULTI_DEFECT[1:].replace("\r\n", "\n").index("usecase")
    diags.append(Diagnostic("E014", "at a line start", SourceSpan("m.ucm", usecase, usecase + 7)))
    assert [render_diagnostic(d, MULTI_DEFECT) for d in diags] == MULTI_DEFECT_RENDERED
    assert render_diagnostics(diags, MULTI_DEFECT) == MULTI_DEFECT_RENDERED
    assert render_diagnostics([], MULTI_DEFECT) == []


GOLDEN = REPO_ROOT / "tests" / "golden"


# File name and text of MULTI_DEFECT, and of a copy missing the use case's
# closing brace, so the parser stops at the end of the file (20:3, after the
# trailing spaces).
_MULTI_DEFECT_FILES = {
    "m.ucm": MULTI_DEFECT,
    "m-eof.ucm": "\r\n".join(MULTI_DEFECT.split("\r\n")[:-2] + ["  "]),
}
FIXTURES = REPO_ROOT / "tests" / "fixtures"


def _write_fixture(file: str, directory: Path) -> None:
    """Write `file`, a multi-defect copy or a fixture, as bytes into `directory`."""
    text = _MULTI_DEFECT_FILES[file].encode("utf-8") if file in _MULTI_DEFECT_FILES else (FIXTURES / file).read_bytes()
    (directory / file).write_bytes(text)


@pytest.mark.parametrize(
    ("file", "golden"),
    [
        ("m.ucm", "multi-defect"),
        ("m-eof.ucm", "multi-defect-eof"),
        ("resolver-faults.ucm", "resolver-faults"),
        ("validation-faults.ucm", "validation-faults"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_output_matches_golden_file(file, golden, fmt, tmp_path, monkeypatch, capsys):
    """`ucm check` on the BOM+CRLF model, written as bytes, and on the
    fixtures holding every resolver and every validator message: stderr
    (text) or stdout (json) equals the file captured from the command."""
    _write_fixture(file, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--format", fmt, file]) == 1
    captured = capsys.readouterr()
    produced = captured.err if fmt == "text" else captured.out
    suffix = "txt" if fmt == "text" else "json"
    assert produced == (GOLDEN / f"{golden}-check.{suffix}").read_text(encoding="utf-8")


def test_report_script_prints_file_line_code_message(tmp_path, monkeypatch, capsys):
    for file, text in _MULTI_DEFECT_FILES.items():
        (tmp_path / file).write_bytes(text.encode("utf-8"))
    monkeypatch.chdir(tmp_path)
    generate = report_script().generate
    assert generate(Path("m.ucm"), tmp_path / "reports") == 1
    assert capsys.readouterr().err == (GOLDEN / "multi-defect-report.txt").read_text(encoding="utf-8")
    assert generate(Path("m-eof.ucm"), tmp_path / "reports") == 1
    assert capsys.readouterr().err == "m-eof.ucm:20: E000 expected '}', got 'end of file'\n"
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("file", ["m.ucm", "resolver-faults.ucm"])
def test_report_script_prints_diagnostics_in_check_order(file, tmp_path, monkeypatch, capsys):
    """The report script lists a model's diagnostics by line and code in the
    order `ucm check` does: resolver and validator findings interleaved."""
    _write_fixture(file, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--format", "json", file]) == 1
    checked = [(d["line"], d["code"]) for d in json.loads(capsys.readouterr().out)]
    assert report_script().generate(Path(file), tmp_path / "reports") == 1
    reported = []
    for line in capsys.readouterr().err.splitlines():
        location, code, _ = line.split(" ", 2)
        reported.append((int(location.split(":")[1]), code))
    assert reported == checked


def _usecase(name: str, step: str, extra: str = "") -> str:
    return (
        f'usecase {name} {{\n  scope: "s"\n  level: user-goal\n  intention: "i"\n  multiplicity: "m"\n'
        f"  primary: Human::P\n  main {{\n    1. {step}\n    outcome success\n  }}\n{extra}}}\n"
    )


# A invokes B and B invokes A; B raises a handled exception. The model checks
# clean, but its exception table is blocked by the cycle.
CYCLIC = (
    "model M\nmodes { default normal Normal }\nexceptions { exception SoftwareException::Down }\n"
    + _usecase("A", "invoke B")
    + _usecase(
        "B",
        "invoke A",
        '  extensions {\n    block 1a exceptional when "down" {\n      1a1. raise SoftwareException::Down\n'
        "      outcome failure\n    }\n  }\n",
    )
    + 'handler H {\n  scope: "s"\n  level: sub-function\n  intention: "i"\n  multiplicity: "m"\n'
    "  primary: Human::P\n  contexts: B on SoftwareException::Down interrupt-fail\n"
    '  main {\n    1. internal "recover"\n    outcome success\n  }\n}\n'
)


def test_report_script_prints_an_invocation_cycle_and_writes_nothing(tmp_path, monkeypatch, capsys):
    (tmp_path / "cycle.ucm").write_text(CYCLIC, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["check", "cycle.ucm"]) == 0
    assert report_script().generate(Path("cycle.ucm"), tmp_path / "reports") == 1
    captured = capsys.readouterr()
    assert captured.err == "cycle.ucm:11: E015 invocation cycle detected: A -> B -> A\n"
    assert captured.out == ""
    assert not (tmp_path / "reports").exists()
