from __future__ import annotations

import pytest

from conftest import pipeline
from ucm.diagnostics import CODES, Diagnostic, Severity, render_diagnostic, render_diagnostics, sort_diagnostics
from ucm.spans import ZERO_SPAN, SourceSpan


def span(file="store.ucm", start=0, end=1, line=1, column=1):
    return SourceSpan(file, start, end, line, column)


def test_severity_follows_code_prefix():
    assert Diagnostic("E004", "x", span()).severity is Severity.ERROR
    assert Diagnostic("W001", "x", span()).severity is Severity.WARNING
    for code in CODES:
        assert code[0] in "EW"


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic("E999", "x", span())


def test_render_contains_location_code_and_message():
    source = "\n" * 11 + "4. raise HardwareException::Nope\n"
    diag = Diagnostic("E004", "exception 'HardwareException::Nope' is not defined", span(start=11, end=12, line=12))
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


def test_render_related_notes():
    related = [(span(start=0, end=1, line=1, column=1), "first definition")]
    diag = Diagnostic("E014", "duplicate", span(start=5, end=6, line=2, column=1), related=related)
    text = render_diagnostic(diag, "abc\nabc\n")
    assert "note: store.ucm:1:1: first definition" in text


def test_render_is_deterministic():
    source = "line one\nline two\n"
    diag = Diagnostic("W002", "never raised", span(start=9, end=17, line=2), suggestions=["drop it"])
    assert render_diagnostic(diag, source) == render_diagnostic(diag, source)


def test_sort_orders_by_file_offset_code():
    d1 = Diagnostic("E003", "a", span(file="b.ucm", start=5, end=6))
    d2 = Diagnostic("E001", "b", span(file="a.ucm", start=9, end=10))
    d3 = Diagnostic("E002", "c", span(file="b.ucm", start=5, end=6))
    assert [d.code for d in sort_diagnostics([d1, d2, d3])] == ["E001", "E002", "E003"]


def test_to_dict_is_json_friendly():
    import json

    diag = Diagnostic("E010", "msg", span(), suggestions=["s"])
    payload = json.loads(json.dumps(diag.to_dict()))
    assert payload["code"] == "E010"
    assert payload["severity"] == "error"
    assert payload["line"] == 1


def test_span_rejects_start_after_end():
    with pytest.raises(ValueError):
        SourceSpan("f", 5, 4, 1, 1)


def test_spans_are_immutable_hashable_and_equal_by_value():
    a, b = span(start=3, end=7, line=2, column=4), span(start=3, end=7, line=2, column=4)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, ZERO_SPAN}) == 2
    assert a != span(start=3, end=8, line=2, column=4)
    assert (a.file, a.start, a.end, a.line, a.column) == ("store.ucm", 3, 7, 2, 4)
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
    diags.append(Diagnostic("E000", "expected more", SourceSpan("m.ucm", eof, eof, 21, 3)))
    diags.append(Diagnostic("E000", "past the end", SourceSpan("m.ucm", eof + 5, eof + 9, 21, 3)))
    usecase = MULTI_DEFECT[1:].replace("\r\n", "\n").index("usecase")
    diags.append(Diagnostic("E014", "at a line start", SourceSpan("m.ucm", usecase, usecase + 7, 7, 1)))
    assert [render_diagnostic(d, MULTI_DEFECT) for d in diags] == MULTI_DEFECT_RENDERED
    assert render_diagnostics(diags, MULTI_DEFECT) == MULTI_DEFECT_RENDERED
    assert render_diagnostics([], MULTI_DEFECT) == []
