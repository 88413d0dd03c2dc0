from __future__ import annotations

import csv
import functools
import io
import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, REPO_ROOT, growth, many_actors_source, nested_blocks_source, wide_use_case_source
from oracles import elementtree_xmi, print_model
from strategies import model_source
from ucm.cli import main
from ucm.export import (
    SummaryTable,
    dump_json,
    export_dot,
    export_json,
    export_xmi,
    import_json,
    render_table,
)
from ucm.model import MAX_BLOCK_DEPTH, MAX_DIGITS
from ucm.parser import parse, parse_file
from ucm.resolver import resolve
from ucm.validation import validate

MINIMAL = "model M modes { default normal Normal } exceptions { }"


def resolved_of(src: str):
    model, diags = parse(src, "t.ucm")
    assert model is not None, diags
    return resolve(model)[0]


# -- tables --------------------------------------------------------------------


def test_markdown_one_by_one_table_contract():
    table = SummaryTable(["H"], [["v"]])
    assert render_table(table, "md") == "| H |\n| --- |\n| v |\n"


def test_markdown_escapes_pipes():
    table = SummaryTable(["H"], [["a|b"]])
    assert "a\\|b" in render_table(table, "md")


def test_csv_quotes_cells_with_commas():
    table = SummaryTable(["H"], [["a,b"]])
    assert render_table(table, "csv") == 'H\r\n"a,b"\r\n'


def test_csv_quotes_embedded_quotes_and_newlines():
    table = SummaryTable(["H"], [['say "hi"'], ["two\nlines"]])
    text = render_table(table, "csv")
    assert '"say ""hi"""' in text
    assert '"two\nlines"' in text
    assert text.endswith("\r\n")


CSV_CELLS = st.text(alphabet=[",", '"', "\r", "\n", " ", "\t", "a", "é", "→"], max_size=6)


@st.composite
def csv_tables(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(CSV_CELLS, min_size=width, max_size=width)
    return SummaryTable(draw(row), draw(st.lists(row, max_size=5)))


@settings(max_examples=300, deadline=None)
@given(table=csv_tables())
def test_csv_matches_the_stdlib_writer(table):
    # One-column tables with empty cells exercise the lone empty field,
    # which the stdlib writer quotes.
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    assert render_table(table, "csv") == buffer.getvalue()


def test_csv_writes_a_lone_empty_field_quoted():
    table = SummaryTable(["H"], [[""], ["v"]])
    assert render_table(table, "csv") == 'H\r\n""\r\nv\r\n'
    assert render_table(SummaryTable(["A", "B"], [["", ""]]), "csv") == "A,B\r\n,\r\n"


def test_row_width_must_match_columns():
    with pytest.raises(ValueError):
        SummaryTable(["A", "B"], [["only one"]])


def test_render_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_table(SummaryTable(["H"], []), "html")


def test_table_rendering_is_deterministic(smartstore_resolved):
    from ucm.analysis import exception_summary, exception_table

    table = exception_table(exception_summary(smartstore_resolved))
    assert render_table(table, "md") == render_table(table, "md")
    assert render_table(table, "csv") == render_table(table, "csv")


# -- JSON ------------------------------------------------------------------------

# Strings that exercise every escape: non-ASCII, astral, control, quote and
# backslash characters.
JSON_TEXT = st.text(st.characters() | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600"]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**300), 10**300) | st.floats() | JSON_TEXT,
    lambda children: st.lists(children) | st.dictionaries(JSON_TEXT, children),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_dump_json_equals_indented_json_dumps(value):
    assert dump_json(value) == json.dumps(value, indent=2)


GOLDEN = REPO_ROOT / "tests" / "golden"
GOLDEN_MODELS = {
    "smartstore": CORPUS / "smartstore.ucm",
    "firealarm": CORPUS / "firealarm.ucm",
    "all-productions": REPO_ROOT / "tests" / "fixtures" / "all-productions.ucm",
}


@pytest.mark.parametrize("target", ["json", "xmi", "dot"])
@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_export_matches_golden_file(name, target, capsys):
    assert main(["export", target, str(GOLDEN_MODELS[name])]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / f"{name}.{target}").read_bytes()


def test_minimal_model_exports_expected_shape():
    resolved = resolved_of(MINIMAL)
    doc = json.loads(export_json(resolved))
    assert doc["formatVersion"] == 1
    assert doc["name"] == "M"
    assert doc["usecases"] == []
    assert len(doc["modes"]) == 1
    assert list(doc.keys()) == ["formatVersion", "name", "modes", "exceptions", "services", "usecases"]


def test_import_of_export_parses_cleanly(smartstore_resolved):
    text = export_json(smartstore_resolved)
    model, diags = import_json(text)
    assert diags == []
    assert model is not None
    assert model.name == "SmartStore"


def test_round_trip_is_idempotent(smartstore_resolved, firealarm_resolved):
    for resolved in (smartstore_resolved, firealarm_resolved):
        once = export_json(resolved)
        again_model, diags = import_json(once)
        assert diags == []
        assert export_json(again_model) == once


def test_unknown_format_version_is_an_error():
    model, diags = import_json('{"formatVersion": 2}')
    assert model is None
    assert len(diags) == 1
    assert diags[0].code == "E000"
    assert "formatVersion" in diags[0].message


def test_truncated_document_is_schema_error_without_partial_model(smartstore_resolved):
    text = export_json(smartstore_resolved)
    model, diags = import_json(text[: len(text) // 2])
    assert model is None
    assert diags and diags[0].code == "E000"


def test_non_object_document_rejected():
    model, diags = import_json("[1, 2]")
    assert model is None
    assert "object" in diags[0].message


@pytest.mark.parametrize("name", ["A -> B", "Identify Item", "", "1a", "A-", "X::Y"])
def test_use_case_name_that_is_not_an_identifier_is_an_error(smartstore_resolved, name):
    doc = json.loads(export_json(smartstore_resolved))
    doc["usecases"][0]["name"] = name
    model, diags = import_json(json.dumps(doc))
    assert model is None
    assert [d.code for d in diags] == ["E000"]
    assert repr(name) in diags[0].message


def test_hyphenated_use_case_name_imports(smartstore_resolved):
    doc = json.loads(export_json(smartstore_resolved))
    doc["usecases"][0]["name"] = "Use-Smart_Store2"
    model, diags = import_json(json.dumps(doc))
    assert diags == []
    assert model.use_cases[0].name == "Use-Smart_Store2"


def test_imported_spans_are_synthetic(smartstore_resolved):
    model, _ = import_json(export_json(smartstore_resolved))
    assert model.span.start == model.span.end == 0
    assert model.use_cases[0].span.file == "<synthetic>"


def nested_block_document(depth: int) -> str:
    """An export_json document whose use case nests `depth` blocks. It is
    written as text, because the encoder itself recurses once per level."""
    doc = json.loads(export_json(resolved_of(nested_blocks_source(1))))
    (block,) = doc["usecases"][0]["extensions"]
    doc["usecases"][0]["extensions"] = ["BLOCK"]
    head, tail = json.dumps({**block, "body": ["BODY"]}).split('"BODY"')
    return json.dumps(doc).replace('"BLOCK"', head * (depth - 1) + json.dumps(block) + tail * (depth - 1))


def test_blocks_nested_to_the_limit_import_and_export_again():
    model, diags = import_json(nested_block_document(MAX_BLOCK_DEPTH))
    assert diags == []
    (block,) = model.use_cases[0].extensions
    for _ in range(MAX_BLOCK_DEPTH - 1):
        (block,) = block.nested_blocks()
    assert block.nested_blocks() == []
    text = export_json(resolve(model)[0])
    assert import_json(text)[1] == []


@pytest.mark.parametrize("depth", [MAX_BLOCK_DEPTH + 1, 600])
def test_block_nested_past_the_limit_is_e000(depth):
    model, diags = import_json(nested_block_document(depth))
    assert model is None
    assert [d.code for d in diags] == ["E000"]


def test_document_too_deep_for_the_decoder_is_e000():
    model, diags = import_json("[" * 100_000 + "]" * 100_000)
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("E000", "document nests too deeply to decode")]


TIMEOUT_MODEL = MINIMAL + ' usecase A { main { 1. internal timeout 5 s "x" outcome success } }'


def timeout_document(amount: str, unit: str = "s", label: str = "1") -> str:
    """The export of TIMEOUT_MODEL with its step's timeout and label
    replaced; `amount` is JSON text."""
    text = export_json(resolved_of(TIMEOUT_MODEL))
    for old, new in (('"amount": 5.0', f'"amount": {amount}'), ('"unit": "s"', f'"unit": "{unit}"'),
                     ('"label": "1"', f'"label": "{label}"')):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("amount", ["0", "-5", "0.0", "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_timeout_amount_that_is_not_positive_and_finite_is_e000(amount):
    model, diags = import_json(timeout_document(amount))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("E000", "timeout amount is not positive and finite")]


@pytest.mark.parametrize("unit", ["weeks", "", "S"])
def test_timeout_unit_the_parser_would_reject_is_e000(unit):
    model, diags = import_json(timeout_document("5", unit))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("E000", f"unknown timeout unit {unit!r}")]


def test_label_over_the_digit_bound_is_e000():
    assert import_json(timeout_document("5", label="9" * MAX_DIGITS))[1] == []
    model, diags = import_json(timeout_document("5", label="1" * (MAX_DIGITS + 1)))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [
        ("E000", f"label in step has a number with more than {MAX_DIGITS} digits")
    ]


def test_integer_too_long_to_decode_is_e000():
    model, diags = import_json(timeout_document("1" * 5000))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("E000", "document holds an integer too long to decode")]


CONTROL_MODEL = MINIMAL + " usecase A { primary: Human::U [1..3] main { 1. goto 1 2. repeat 1-2 outcome success } }"


def edited_document(edit) -> str:
    """The export of CONTROL_MODEL after `edit(use_case_doc)`."""
    doc = json.loads(export_json(resolved_of(CONTROL_MODEL)))
    edit(doc["usecases"][0])
    return json.dumps(doc)


def test_unedited_control_document_imports():
    assert import_json(edited_document(lambda uc: None))[1] == []


@pytest.mark.parametrize(
    ("key", "value"),
    [("lower", -5), ("upper", -1), ("lower", 10**MAX_DIGITS), ("upper", 10**200)],
    ids=["negative-lower", "negative-upper", "long-lower", "long-upper"],
)
def test_multiplicity_bound_the_parser_would_reject_is_e000(key, value):
    def edit(uc):
        uc["primary"][0]["multiplicity"][key] = value

    model, diags = import_json(edited_document(edit))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [
        ("E000", f"multiplicity {key} bound is negative or has more than {MAX_DIGITS} digits")
    ]


def test_multiplicity_bound_at_the_digit_limit_imports():
    def edit(uc):
        uc["primary"][0]["multiplicity"].update(lower=0, upper=10**MAX_DIGITS - 1)

    assert import_json(edited_document(edit))[1] == []


@pytest.mark.parametrize(
    ("step", "fields"),
    [
        (0, {"repeatFrom": "1", "repeatTo": "2"}),  # goto and repeat both
        (0, {"goto": None}),  # neither
        (1, {"repeatTo": None}),  # half a repeat
        (1, {"goto": "1", "repeatFrom": None}),  # goto and half a repeat
    ],
    ids=["goto-and-repeat", "neither", "half-repeat", "goto-and-half-repeat"],
)
def test_control_flow_step_must_be_a_goto_or_a_repeat(step, fields):
    model, diags = import_json(edited_document(lambda uc: uc["main"]["steps"][step].update(fields)))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [
        ("E000", "control-flow step must set either goto or both repeatFrom and repeatTo")
    ]


@pytest.mark.parametrize(("key", "label"), [("repeatTo", "2a1"), ("repeatFrom", "1-2"), ("repeatTo", "2a")])
def test_repeat_bound_must_be_a_plain_step_number(key, label):
    model, diags = import_json(edited_document(lambda uc: uc["main"]["steps"][1].update({key: label})))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("E000", f"{key} {label!r} is not a plain step number")]


@pytest.mark.parametrize("label", ["\u0661", "1\n", "\uff15a1"], ids=["arabic-indic", "newline", "fullwidth"])
def test_label_the_parser_would_reject_is_e000(label):
    model, diags = import_json(edited_document(lambda uc: uc["main"]["steps"][0].update(label=label)))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("E000", f"malformed label {label!r} in step")]


@pytest.mark.parametrize(
    ("key", "text", "name"),
    [
        ("scope", "a\x01b", "control character U+0001"),
        ("intention", "a\nb", "control character U+000A"),
        ("multiplicity", "\uffff", "noncharacter U+FFFF"),
        ("name", "A\x00", "control character U+0000"),
    ],
)
def test_string_the_parser_would_reject_is_e000(key, text, name):
    model, diags = import_json(edited_document(lambda uc: uc.update({key: text})))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("E000", f"key '{key}' in usecase: string holds {name}")]


def test_string_holding_a_tab_imports():
    assert import_json(edited_document(lambda uc: uc.update(scope="a\tb")))[1] == []


def first(node, match):
    """The first dict in an export_json document, depth first, that `match` accepts."""
    if isinstance(node, dict) and match(node):
        return node
    for child in node.values() if isinstance(node, dict) else node if isinstance(node, list) else ():
        if (found := first(child, match)) is not None:
            return found
    return None


# Where the smart-store export holds each kind of name: the container of the
# name and its key there.
NAME_SITES = {
    "model": lambda d: (d, "name"),
    "mode": lambda d: (d["modes"][0], "name"),
    "mode-offers": lambda d: (first(d, lambda n: n.get("offers"))["offers"], 0),
    "exception": lambda d: (d["exceptions"][0], "name"),
    "service": lambda d: (d["services"][0], "name"),
    "service-provides": lambda d: (d["services"][0]["provides"], 0),
    "actor-category": lambda d: (first(d, lambda n: n.get("category") == "Human"), "category"),
    "actor": lambda d: (first(d, lambda n: n.get("category") == "Human"), "name"),
    "interaction-source": lambda d: (first(d, lambda n: n.get("kind") == "interaction"), "source"),
    "interaction-target": lambda d: (first(d, lambda n: n.get("kind") == "interaction"), "target"),
    "invoke-target": lambda d: (first(d, lambda n: n.get("kind") == "invocation"), "target"),
    "context-usecase": lambda d: (first(d, lambda n: "relation" in n), "usecase"),
    "context-exception": lambda d: (first(d, lambda n: "relation" in n)["exception"], "name"),
    "raise-exception": lambda d: (first(d, lambda n: n.get("kind") == "exception-raise")["exception"], "name"),
    "entry-switch": lambda d: (first(d, lambda n: n.get("entryModeSwitch")), "entryModeSwitch"),
    "exit-switch": lambda d: (first(d, lambda n: n.get("exitModeSwitch")), "exitModeSwitch"),
}


@functools.cache
def smartstore_export() -> str:
    # Not a fixture: hypothesis writes the repr of every argument of a failing
    # test, and the resolved store's would be about 1 MB.
    model, diags = parse_file(CORPUS / "smartstore.ucm")
    assert diags == []
    return export_json(model)


def smartstore_document(edit) -> str:
    doc = json.loads(smartstore_export())
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("name", ["Fire Hazard", "a -> b", "Hu man", ""])
@pytest.mark.parametrize("site", sorted(NAME_SITES))
def test_name_that_is_not_an_identifier_is_e000(site, name):
    def edit(doc):
        container, key = NAME_SITES[site](doc)
        container[key] = name

    model, diags = import_json(smartstore_document(edit))
    assert model is None
    assert [d.code for d in diags] == ["E000"]
    assert repr(name) in diags[0].message


@pytest.mark.parametrize(
    ("key", "names"), [("offers", [None, 7]), ("offers", ["\x01"]), ("provides", [{"a": 1}]), ("provides", [])]
)
def test_name_list_of_other_values_is_e000(key, names):
    def edit(doc):
        first(doc, lambda n: n.get(key))[key] = names

    model, diags = import_json(smartstore_document(edit))
    assert model is None
    assert [d.code for d in diags] == ["E000"]


def test_continue_target_on_another_outcome_is_e000():
    def edit(doc):
        first(doc, lambda n: n.get("kind") == "success" and "continueTarget" in n)["continueTarget"] = "9"

    model, diags = import_json(smartstore_document(edit))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("E000", "success outcome has a continueTarget")]


@pytest.mark.parametrize("amount", ["1e300", "1e-300", "1.0000000000000002e100", "1.2345678901234567e-99"])
def test_timeout_amount_no_decimal_of_the_digit_bound_writes_is_e000(amount):
    model, diags = import_json(timeout_document(amount))
    assert model is None
    assert [(d.code, d.message) for d in diags] == [
        ("E000", f"timeout amount {float(amount)!r} needs more than {MAX_DIGITS} digits a side")
    ]


@pytest.mark.parametrize(
    ("text", "amount"),
    [("9" * MAX_DIGITS, "1e100"), ("0." + "0" * (MAX_DIGITS - 1) + "1", "1e-100"), ("0.5", "0.5"), ("7", "7")],
)
def test_timeout_amount_at_the_digit_bound_parses_and_imports(text, amount):
    model, diags = parse(TIMEOUT_MODEL.replace("timeout 5 s", f"timeout {text} s"))
    assert diags == []
    assert model.use_cases[0].main.steps[0].payload.timeout.amount == float(amount)
    assert import_json(export_json(model))[1] == []
    assert import_json(timeout_document(amount))[1] == []


@pytest.mark.parametrize("where", ["main", "block"])
def test_exit_switch_alone_on_an_empty_body_is_e000(where):
    # Text reads a lone switch before the outcome of an empty body as the entry.
    source = MINIMAL + " usecase A { main { outcome success } extensions { block 1a alternative { outcome failure } } }"
    doc = json.loads(export_json(resolved_of(source)))
    node = doc["usecases"][0]["main"] if where == "main" else doc["usecases"][0]["extensions"][0]
    node["exitModeSwitch"] = "Normal"
    model, diags = import_json(json.dumps(doc))
    assert model is None
    assert [d.code for d in diags] == ["E000"]
    node["entryModeSwitch"] = "Normal"
    assert import_json(json.dumps(doc))[1] == []


# -- XMI -------------------------------------------------------------------------


def test_minimal_model_has_exactly_one_mode_element():
    resolved = resolved_of(MINIMAL)
    root = ET.fromstring(export_xmi(resolved))
    modes = root.findall(".//{http://ucm4iot/1.0}Mode")
    assert len(modes) == 1
    assert modes[0].get("name") == "Normal"
    assert root.tag == "{http://www.omg.org/XMI}XMI"
    assert root.get("{http://www.omg.org/XMI}version") == "2.0"


def test_handler_element_carries_idrefs(smartstore_resolved):
    text = export_xmi(smartstore_resolved)
    root = ET.fromstring(text)
    ns = {"ucm": "http://ucm4iot/1.0", "xmi": "http://www.omg.org/XMI"}
    handlers = root.findall(".//ucm:Handler", ns)
    assert len(handlers) == 8
    by_id = {el.get("{http://www.omg.org/XMI}id"): el for el in root.iter() if el.get("{http://www.omg.org/XMI}id")}
    sensor = next(h for h in handlers if h.get("name") == "ServiceSensor")
    contexts = sensor.findall("ucm:Context", ns)
    assert len(contexts) == 3
    for ctx in contexts:
        assert by_id[ctx.get("contextUseCase")].get("name") == "IdentifyItem"
        assert by_id[ctx.get("exception")].get("name") in (
            "TagUnavailable",
            "PressureUndetected",
            "WeightUnavailable",
        )


def test_xmi_is_well_formed_and_deterministic(smartstore_resolved, firealarm_resolved):
    for resolved in (smartstore_resolved, firealarm_resolved):
        first = export_xmi(resolved)
        second = export_xmi(resolved)
        assert first == second
        ET.fromstring(first)  # well-formedness


DUPLICATES = MINIMAL.replace("default normal Normal }", "default normal Normal offers S degraded Low normal Normal }")
DUPLICATES = DUPLICATES.replace(
    "exceptions { }",
    """exceptions {
  exception HardwareException::X exception SoftwareException::X exception HardwareException::X
}
services { service S provides B service S provides A }
usecase A { main { mode switch: Normal 1. invoke B 2. raise HardwareException::X mode switch: Normal outcome success } }
usecase B { main { 1. condition "first" outcome success } }
usecase B { main { 1. condition "second" outcome success } }
handler H { contexts: B on HardwareException::X interrupt-fail main { outcome success } }""",
)


def test_xmi_numbers_duplicate_definitions_apart_and_refers_to_the_first():
    resolved = resolved_of(DUPLICATES)
    text = export_xmi(resolved)
    assert text == elementtree_xmi(resolved)
    root = ET.fromstring(text)
    xmi_id = "{http://www.omg.org/XMI}id"
    ids = [el.get(xmi_id) for el in root.iter() if el.get(xmi_id)]
    assert len(ids) == len(set(ids))
    assert {"service_2", "usecase_2", "usecase_3", "mode_3", "exception_3"} <= set(ids)
    refs = [
        (name, value)
        for el in root.iter()
        for name, value in el.attrib.items()
        if name in ("offers", "provides", "invokes", "raises", "entryMode", "exitMode", "contextUseCase", "exception")
    ]
    assert refs == [
        ("offers", "service_1"),
        ("provides", "usecase_2"),
        ("provides", "usecase_1"),
        ("entryMode", "mode_1"),
        ("exitMode", "mode_1"),
        ("invokes", "usecase_2"),
        ("raises", "exception_1"),
        ("contextUseCase", "usecase_2"),
        ("exception", "exception_1"),
    ]


def test_xmi_steps_reference_invoked_usecases(smartstore_resolved):
    root = ET.fromstring(export_xmi(smartstore_resolved))
    ns = {"ucm": "http://ucm4iot/1.0"}
    invokes = [s for s in root.findall(".//ucm:Step", ns) if s.get("kind") == "invocation"]
    assert invokes
    assert all(s.get("invokes") for s in invokes)


# -- DOT -------------------------------------------------------------------------


def test_dot_marks_handlers_dashed(smartstore_resolved):
    text = export_dot(smartstore_resolved)
    assert '"HandleFireHazard" [shape=ellipse, style=dashed];' in text
    assert '"UseSmartStore" [shape=ellipse];' in text


def test_dot_labels_interrupt_relations():
    src = """model M
modes { default normal Normal }
exceptions { exception HardwareException::X }
usecase A {
  scope: "s" level: user-goal intention: "i" multiplicity: "m"
  primary: Human::P
  main { 1. raise HardwareException::X outcome success }
}
handler H {
  scope: "s" level: user-goal intention: "i" multiplicity: "m"
  primary: Human::P
  contexts: A on HardwareException::X interrupt-fail
  main { 1. P -> System : "fix" outcome success }
}
"""
    text = export_dot(resolved_of(src))
    assert '"H" -> "A" [label="<<interrupt & fail>>", style=dashed];' in text


def test_dot_edgeless_model_is_valid_graph():
    text = export_dot(resolved_of(MINIMAL))
    assert text.startswith('digraph "M" {')
    assert text.rstrip().endswith("}")


def test_dot_connects_actors_and_invocations(smartstore_resolved):
    text = export_dot(smartstore_resolved)
    assert '"Human::Customer" [shape=box];' in text
    assert '"Human::Customer" -> "Shopping" [arrowhead=none];' in text
    assert '"Shopping" -> "EnterStore" [label="<<include>>"];' in text
    assert export_dot(smartstore_resolved) == text


def test_wide_use_case_validates_and_exports_in_linear_time():
    resolved = {n: resolved_of(wide_use_case_source(n)) for n in (500, 4000)}
    assert validate(resolved[4000]) == []
    # 8x the actors and interactions: about 8x the time; a list scan gives 64x.
    assert growth(lambda n: validate(resolved[n]), 500, 4000) < 20
    assert growth(lambda n: export_dot(resolved[n]), 500, 4000) < 20


def test_many_actors_export_in_linear_time():
    resolved = {n: resolved_of(many_actors_source(n)) for n in (500, 4000)}
    assert export_dot(resolved[4000]).count("[shape=box];") == 4000
    assert growth(lambda n: export_dot(resolved[n]), 500, 4000) < 20


# -- generated-model properties ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(source=model_source())
def test_generated_models_parse_deterministically(source):
    first, d1 = parse(source, "gen.ucm")
    second, d2 = parse(source, "gen.ucm")
    assert d1 == [] and d2 == [], (d1, source)
    assert first == second


@settings(max_examples=40, deadline=None)
@given(source=model_source())
def test_generated_models_round_trip_through_json(source):
    model, diags = parse(source, "gen.ucm")
    assert diags == [], source
    once = export_json(model)
    back, import_diags = import_json(once)
    assert import_diags == []
    assert export_json(back) == once


@settings(max_examples=100, deadline=None)
@given(source=model_source())
def test_generated_models_export_xmi_and_dot(source):
    model, diags = parse(source, "gen.ucm")
    assert diags == [], source
    resolved, _ = resolve(model)
    text = export_xmi(resolved)
    assert text == elementtree_xmi(resolved)
    ET.fromstring(text)
    assert export_dot(resolved).startswith("digraph")


@settings(max_examples=100, deadline=None)
@given(source=model_source())
def test_printed_model_parses_back_to_the_same_export(source):
    model, diags = parse(source, "gen.ucm")
    assert diags == [], source
    printed = print_model(model)
    back, back_diags = parse(printed, "printed.ucm")
    assert back_diags == [], printed
    assert export_json(back) == export_json(model)


# Values a mutation writes over one leaf of an export_json document: names,
# strings, labels, numbers and enum values at and past each rule's edge.
LEAF_VALUES = [
    None, True, 0, -1, 7, 2.5, 1e300, 1e-300, 1e100, 1e-100, 10**MAX_DIGITS, float("nan"), {}, {"a": 1},
    [], [None, 7], [{"a": 1}], ["A"], ["A B"],
    "Fire Hazard", "a -> b", "Hu man", "", "X", "Hu-man", "model", "_a1", "A::B", "a-", "\u00e9",
    'say "hi"', "back\\slash", "a\tb", "a\nb", "\x01", "\uffff", " ",
    "1", "2a", "2a1", "1-3", "007", "1" * (MAX_DIGITS + 1), "2aa", "2a1b", "1-2a", "\u0661",
    "normal", "degraded", "hardware", "user-goal", "interaction", "invocation", "condition", "internal",
    "control-flow", "exception-raise", "exceptional", "success", "continue", "interrupt-fail", "ms", "min",
    "step", "block",
]


def leaf_paths(node, path: tuple = ()):
    """The path to every value in an export_json document but objects."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if not isinstance(value, dict):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, path + (key,))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_import_accepts_only_what_text_can_write(data):
    doc = json.loads(smartstore_export())
    *path, last = data.draw(st.sampled_from(list(leaf_paths(doc))))
    node = doc
    for key in path:
        node = node[key]
    node[last] = data.draw(st.sampled_from(LEAF_VALUES) | st.text(max_size=4) | st.integers() | st.floats())
    model, diags = import_json(json.dumps(doc))
    if diags:
        assert model is None and [d.code for d in diags] == ["E000"]
        return
    printed = print_model(model)
    back, back_diags = parse(printed, "printed.ucm")
    assert back_diags == [], (diags, printed)
    assert export_json(back) == export_json(model)


# Keys whose values import_json takes as free text.
FREE_TEXT_KEYS = {
    "scope", "intention", "multiplicity", "precondition", "postcondition", "guard", "message", "text", "description"
}
XML_SPECIAL_TEXT = st.text(alphabet=["&", "<", ">", '"', "\t", "'", "a", " ", "\u00e9"], min_size=1, max_size=8)


@st.composite
def xml_special_documents(draw) -> str:
    """The export_json document of a generated model with every free-text
    string replaced by one holding characters XML attributes escape."""
    model, diags = parse(draw(model_source()), "gen.ucm")
    assert diags == []
    doc = json.loads(export_json(model))

    def rewrite(node) -> None:
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            if key in FREE_TEXT_KEYS and isinstance(value, str):
                node[key] = draw(XML_SPECIAL_TEXT)
            else:
                rewrite(value)

    rewrite(doc)
    return json.dumps(doc)


@settings(max_examples=50, deadline=None)
@given(document=xml_special_documents())
def test_xmi_escapes_attributes_as_elementtree_does(document):
    model, diags = import_json(document)
    assert diags == []
    resolved, _ = resolve(model)
    text = export_xmi(resolved)
    assert text == elementtree_xmi(resolved)
    ET.fromstring(text)
