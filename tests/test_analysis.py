from __future__ import annotations

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    callers_above_view_source,
    chain_source,
    diamond_chain_source,
    fan_source,
    growth,
    mode_fan_source,
    pipeline,
    raising_in_mode_source,
    wide_block_source,
    wide_handler_source,
)
from oracles import (
    brute_force_paths,
    declared_order_cycle,
    reference_exception_details,
    reference_mode_switch_table,
)
from strategies import invocation_model_source, model_source
from ucm import analysis
from ucm.analysis import (
    Edge,
    GLOBAL_SOURCE,
    InvocationCycleError,
    InvocationGraph,
    PathRecord,
    build_invocation_graph,
    ensure_acyclic,
    enumerate_paths,
    exception_summary,
    exception_table,
    handler_summary,
    handler_table,
    mode_service_table,
    mode_switch_table,
    path_counts,
)
from ucm.cli import main
from ucm.parser import parse
from ucm.resolver import reachable_use_cases, resolve
from ucm.spans import SourceSpan

THREE_SENSOR_PATHS = [
    ("UseSmartStore", "Shopping", "AddToCart", "IdentifyItem"),
    ("UseSmartStore", "Shopping", "AddToCart", "RemoveItem", "IdentifyItem"),
    (
        "UseSmartStore",
        "Shopping",
        "ExitStore",
        "ScanMobileDeviceOnExit",
        "PayBill",
        "RemoveItem",
        "IdentifyItem",
    ),
]

UC_BODY = '    1. internal "x"\n    outcome success'


def model_with(*usecases: str, header_exceptions: str = "") -> tuple:
    src = (
        "model M\nmodes { default normal Normal }\n"
        f"exceptions {{ {header_exceptions} }}\n" + "".join(usecases)
    )
    resolved, diags = pipeline(src)
    assert resolved is not None, diags
    return resolved


def plain_uc(name: str, body: str = UC_BODY) -> str:
    return f"""usecase {name} {{
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::P
  main {{
{body}
  }}
}}
"""


# -- invocation graph ---------------------------------------------------------


def test_graph_has_edge_per_invocation(smartstore_resolved):
    graph = build_invocation_graph(smartstore_resolved)
    pairs = {(e.caller, e.callee) for e in graph.edges}
    assert ("Shopping", "EnterStore") in pairs
    assert ("UseSmartStore", "Shopping") in pairs
    assert "HandleFireHazard" not in graph.nodes
    assert all(e.caller in graph.nodes and e.callee in graph.nodes for e in graph.edges)


def test_graph_roots_are_uninvoked_nodes(smartstore_resolved):
    graph = build_invocation_graph(smartstore_resolved)
    assert graph.roots == ["UseSmartStore", "WorkAtSmartStore"]


def test_edgeless_model_has_all_roots():
    resolved = model_with(plain_uc("A"), plain_uc("B"))
    graph = build_invocation_graph(resolved)
    assert graph.edges == []
    assert graph.roots == ["A", "B"]


def test_parallel_invocations_are_distinct_edges():
    body = "    1. invoke B\n    2. internal \"pause\"\n    3. invoke B\n    outcome success"
    resolved = model_with(plain_uc("A", body), plain_uc("B"))
    graph = build_invocation_graph(resolved)
    labels = sorted(e.at_step for e in graph.edges)
    assert labels == ["1", "3"]
    # each parallel edge contributes one path
    assert len(enumerate_paths(graph, "B")) == 2
    assert path_counts(graph) == {"A": 1, "B": 2}


# -- path enumeration ---------------------------------------------------------


def test_smartstore_identifyitem_has_the_three_paths(smartstore_resolved):
    graph = build_invocation_graph(smartstore_resolved)
    paths = [p.use_cases for p in enumerate_paths(graph, "IdentifyItem")]
    assert paths == THREE_SENSOR_PATHS


def test_root_target_is_single_trivial_path(smartstore_resolved):
    graph = build_invocation_graph(smartstore_resolved)
    assert [p.use_cases for p in enumerate_paths(graph, "UseSmartStore")] == [("UseSmartStore",)]


def test_unknown_target_raises_value_error(smartstore_resolved):
    graph = build_invocation_graph(smartstore_resolved)
    with pytest.raises(ValueError):
        enumerate_paths(graph, "Nope")


def test_cycle_detection_reports_witness():
    resolved = model_with(
        plain_uc("A", "    1. invoke B\n    outcome success"),
        plain_uc("B", "    1. invoke A\n    outcome success"),
    )
    graph = build_invocation_graph(resolved)
    with pytest.raises(InvocationCycleError) as excinfo:
        enumerate_paths(graph, "A")
    diag = excinfo.value.diagnostic
    assert diag.code == "E015"
    assert "->" in diag.message


def random_dag(rng: random.Random) -> InvocationGraph:
    n = rng.randint(1, 12)
    nodes = [f"N{i:02d}" for i in range(n)]
    possible = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    rng.shuffle(possible)
    count = rng.randint(0, min(20, len(possible)))
    edges = [Edge(a, b, str(k)) for k, (a, b) in enumerate(possible[:count])]
    return InvocationGraph(nodes, edges)


def test_enumeration_matches_brute_force_oracle_on_random_dags():
    rng = random.Random(20240817)
    for _ in range(60):
        graph = random_dag(rng)
        target = rng.choice(graph.nodes)
        got = [p.use_cases for p in enumerate_paths(graph, target)]
        expected = brute_force_paths(graph.nodes, [(e.caller, e.callee) for e in graph.edges], target)
        assert got == expected
        assert path_counts(graph)[target] == len(expected)
        assert analysis._path_totals(graph, graph.roots)[1][target] == sum(map(len, expected))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_enumeration_oracle_property(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    nodes = [f"N{i}" for i in range(n)]
    possible = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    chosen = data.draw(st.lists(st.sampled_from(possible), max_size=18, unique=True)) if possible else []
    graph = InvocationGraph(nodes, [Edge(a, b, str(i)) for i, (a, b) in enumerate(chosen)])
    target = data.draw(st.sampled_from(nodes))
    got = [p.use_cases for p in enumerate_paths(graph, target)]
    expected = brute_force_paths(nodes, chosen, target)
    assert got == expected
    assert got == sorted(got)
    assert path_counts(graph)[target] == len(expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parallel_edges_and_shuffled_names_match_oracle(data):
    # Node order is not name order, and edges may repeat, so enumeration must
    # list every copy of a path next to the others, as the sorted oracle does.
    n = data.draw(st.integers(min_value=1, max_value=8))
    nodes = data.draw(st.permutations([f"N{i}" for i in range(n)]))
    possible = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    chosen = data.draw(st.lists(st.sampled_from(possible), max_size=14)) if possible else []
    graph = InvocationGraph(nodes, [Edge(a, b, str(i)) for i, (a, b) in enumerate(chosen)])
    counts = path_counts(graph)
    _, sizes = analysis._path_totals(graph, graph.roots)
    for target in nodes:
        expected = brute_force_paths(nodes, chosen, target)
        assert [p.use_cases for p in enumerate_paths(graph, target)] == expected
        assert counts[target] == len(expected)
        assert sizes[target] == sum(map(len, expected))


def assert_cycle_matches_oracle(graph: InvocationGraph) -> None:
    """E015 names the witness of a coloured depth-first search over every
    edge in declared order, at the first edge from its first node to its
    second; without a cycle, `order` lists each node once, callers first."""
    cycle = declared_order_cycle(graph.nodes, [(e.caller, e.callee) for e in graph.edges])
    if cycle is None:
        ensure_acyclic(graph)
        position = {node: i for i, node in enumerate(graph.order)}
        assert len(graph.order) == len(position) and position.keys() == set(graph.nodes)
        assert all(position[e.caller] < position[e.callee] for e in graph.edges)
        return
    with pytest.raises(InvocationCycleError) as raised:
        ensure_acyclic(graph)
    diag = raised.value.diagnostic
    assert diag.message == "invocation cycle detected: " + " -> ".join(cycle)
    assert diag.span == next(e.span for e in graph.edges if (e.caller, e.callee) == tuple(cycle[:2]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cycle_witness_and_order_match_oracle_on_random_graphs(data):
    # Any edge may appear, repeated, backwards or as a self-loop, and a node
    # may be listed twice, as a repeated use-case name is.
    n = data.draw(st.integers(min_value=1, max_value=8))
    names = data.draw(st.permutations([f"N{i}" for i in range(n)]))
    nodes = names + data.draw(st.lists(st.sampled_from(names), max_size=2))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=16))
    edges = [Edge(a, b, str(i), SourceSpan("g.ucm", i, i + 1)) for i, (a, b) in enumerate(pairs)]
    assert_cycle_matches_oracle(InvocationGraph(nodes, edges))


@settings(max_examples=100, deadline=None)
@given(source=model_source())
def test_cycle_witness_matches_oracle_on_generated_models(source):
    resolved, _ = pipeline(source)
    assert_cycle_matches_oracle(build_invocation_graph(resolved))


def diamond_chain(d: int) -> InvocationGraph:
    """Joins J0..Jd; J(i-1) invokes A(i) and B(i), which both invoke J(i)."""
    nodes = ["J0"]
    edges = []
    for i in range(1, d + 1):
        nodes += [f"A{i}", f"B{i}", f"J{i}"]
        for x in (f"A{i}", f"B{i}"):
            edges += [Edge(f"J{i - 1}", x, "1"), Edge(x, f"J{i}", "1")]
    return InvocationGraph(nodes, edges)


def test_counts_paths_of_a_60_deep_diamond_chain_exactly():
    counts = path_counts(diamond_chain(60))
    assert counts["J60"] == 2**60
    assert counts["A60"] == counts["B60"] == 2**59


def test_listing_paths_skips_branches_that_miss_the_target():
    # J0 also reaches 2**40 paths through the chain; none of them ends at L.
    chain = diamond_chain(40)
    graph = InvocationGraph(chain.nodes + ["L"], chain.edges + [Edge("J0", "L", "3")])
    assert [p.use_cases for p in enumerate_paths(graph, "L")] == [("J0", "L")]


def test_path_counts_rejects_cycles_with_the_enumeration_witness():
    graph = InvocationGraph(["R", "A", "B"], [Edge("R", "A", "1"), Edge("A", "B", "1"), Edge("B", "A", "1")])
    with pytest.raises(InvocationCycleError) as counted:
        path_counts(graph)
    with pytest.raises(InvocationCycleError) as listed:
        enumerate_paths(graph, "B")
    assert counted.value.diagnostic == listed.value.diagnostic


# -- exception summary --------------------------------------------------------


def test_global_view_sensor_rows_have_three_paths_each(smartstore_resolved):
    rows = exception_summary(smartstore_resolved)
    for name in ("TagUnavailable", "PressureUndetected", "WeightUnavailable"):
        (row,) = [r for r in rows if r.exception == f"HardwareException::{name}"]
        assert row.source_use_case == "IdentifyItem"
        assert row.handlers == ["ServiceSensor"]
        assert [p.use_cases for p in row.paths] == THREE_SENSOR_PATHS


def test_paths_are_listed_once_per_source_use_case(smartstore_resolved, monkeypatch):
    """14 non-global raise sites on the smart store raise in 9 distinct use
    cases; each use case's paths are listed once and shared by its rows."""
    calls = []
    listing = analysis._paths_between

    def counted(*args):
        calls.append(args[-1])
        return listing(*args)

    monkeypatch.setattr(analysis, "_paths_between", counted)
    rows = exception_summary(smartstore_resolved)
    assert len(calls) == len(set(calls)) == 9
    assert len([r for r in rows if not r.is_global]) == 14
    by_source = {}
    for row in rows:
        if not row.is_global:
            assert by_source.setdefault(row.source_use_case, row.paths_text) is row.paths_text


def assert_behaves_like(paths: list[PathRecord], expected: list[PathRecord]) -> None:
    """`paths` reads, compares and prints as the list `expected` does."""
    n = len(expected)
    assert len(paths) == n and bool(paths) is bool(expected)
    assert list(paths) == expected and all(type(p) is PathRecord for p in paths)
    assert [paths[i] for i in range(-n, n)] == [expected[i] for i in range(-n, n)]
    for outside in (n, -n - 1):
        with pytest.raises(IndexError):
            paths[outside]
    for part in (slice(None), slice(1, None), slice(None, -1), slice(1, -1, 2), slice(None, None, -1)):
        assert paths[part] == expected[part] and all(type(p) is PathRecord for p in paths[part])
    assert all(p in paths for p in expected) and "Nowhere" not in paths
    assert paths == expected and not paths != expected
    assert paths != expected + ["Nowhere"]
    if n:
        assert paths != expected[:-1] and paths != expected[:-1] + ["Nowhere"]
    assert repr(paths) == repr(expected)


@settings(max_examples=100, deadline=None)
@given(source=invocation_model_source())
def test_row_paths_behave_like_the_enumerated_list_on_generated_models(source):
    resolved, _ = pipeline(source)
    graph = build_invocation_graph(resolved)
    for row in exception_summary(resolved):
        if row.is_global:
            assert_behaves_like(row.paths, [])
        else:
            assert_behaves_like(row.paths, enumerate_paths(graph, row.source_use_case))


@settings(max_examples=100, deadline=None)
@given(source=invocation_model_source())
def test_view_paths_match_the_oracle_on_generated_models(source):
    """In the view of a use case, a row lists the oracle's paths in the
    graph of the use cases the view reaches, whose only root is the view."""
    resolved, _ = pipeline(source)
    graph = build_invocation_graph(resolved)
    for view in graph.nodes:
        reach, stack = {view}, [view]
        while stack:
            caller = stack.pop()
            for edge in graph.edges:
                if edge.caller == caller and edge.callee not in reach:
                    reach.add(edge.callee)
                    stack.append(edge.callee)
        nodes = [n for n in graph.nodes if n in reach]
        edges = [(e.caller, e.callee) for e in graph.edges if e.caller in reach]
        for row in exception_summary(resolved, view):
            expected = [] if row.is_global else brute_force_paths(nodes, edges, row.source_use_case)
            assert_behaves_like(row.paths, [PathRecord(" -> ".join(p)) for p in expected])


def test_the_exception_table_builds_no_path_record(monkeypatch, tmp_path, capsys):
    """The table prints the listed path text as it is, so neither the
    library nor the CLI makes a record per path."""
    made = []

    class Counted(PathRecord):
        __slots__ = ()

        def __new__(cls, text):
            made.append(text)
            return super().__new__(cls, text)

    monkeypatch.setattr(analysis, "PathRecord", Counted)
    source = diamond_chain_source(10)
    resolved, _ = pipeline(source)
    table = exception_table(exception_summary(resolved))
    assert table.rows[0][-1].count("J0 -> ") == 2**10
    path = tmp_path / "diamonds.ucm"
    path.write_text(source, encoding="utf-8")
    assert main(["table", "exceptions", str(path)]) == 0
    assert capsys.readouterr().out.count("J0 -> ") == 2**10
    assert made == []


def test_global_exceptions_collapse_to_one_pathless_row(smartstore_resolved):
    rows = exception_summary(smartstore_resolved)
    fire = [r for r in rows if r.exception == "EnvironmentException::FireHazard"]
    assert len(fire) == 1
    assert fire[0].source_use_case == GLOBAL_SOURCE
    assert fire[0].paths == []
    assert fire[0].handlers == ["HandleFireHazard"]


def test_every_occurrence_appears_in_exactly_one_global_row(smartstore_resolved):
    rows = exception_summary(smartstore_resolved)
    sites = smartstore_resolved.raise_sites()
    globals_ = {r.exception for r in rows if r.is_global}
    non_global_rows = [r for r in rows if not r.is_global]
    non_global_sites = [s for s in sites if s.step.payload.qualified_name not in globals_]
    assert len(non_global_rows) == len(non_global_sites)
    for site in sites:
        assert any(r.exception == site.step.payload.qualified_name for r in rows)


def test_usecase_view_restricts_and_reroots(smartstore_resolved):
    rows = exception_summary(smartstore_resolved, view="IdentifyItem")
    (tag,) = [r for r in rows if r.exception == "HardwareException::TagUnavailable"]
    assert [p.use_cases for p in tag.paths] == [("IdentifyItem",)]
    named = {r.exception for r in rows if not r.is_global}
    assert named == {
        "HardwareException::TagUnavailable",
        "HardwareException::PressureUndetected",
        "HardwareException::WeightUnavailable",
    }


def test_usecase_view_rows_subset_of_global_occurrences(smartstore_resolved):
    global_rows = exception_summary(smartstore_resolved)
    global_keys = {(r.exception, r.source_use_case) for r in global_rows if not r.is_global}
    for view in ("Shopping", "AddToCart", "ExitStore", "CheckIn"):
        for row in exception_summary(smartstore_resolved, view=view):
            if not row.is_global:
                assert (row.exception, row.source_use_case) in global_keys


HANDLER_BETWEEN = """model Mediated
modes { default normal Normal }
exceptions { exception SoftwareException::X }
usecase V {
  main {
    1. invoke H
    outcome success
  }
}
handler H {
  contexts: V on SoftwareException::X interrupt-fail
  main {
    1. invoke U
    outcome success
  }
}
usecase U {
  main {
    1. raise SoftwareException::X
    outcome success
  }
}
"""


def test_view_row_reached_only_through_a_handler_lists_no_paths():
    """A view's rows are the use cases it reaches, handlers included; the
    invocation graph leaves handlers out, so a row reached only through a
    handler lists no path in the view, while the global view roots it at U."""
    resolved, _ = pipeline(HANDLER_BETWEEN)
    (row,) = exception_summary(resolved, "V")
    assert (row.exception, row.source_use_case, row.handlers) == ("SoftwareException::X", "U", ["H"])
    assert row.paths == [] and row.paths_text == ""
    (row,) = exception_summary(resolved)
    assert row.source_use_case == "U" and row.paths == ["U"]


RANGED_ANCHOR = """model Ranged
modes { default normal Normal }
exceptions { exception SoftwareException::X }
usecase U {
  main {
    1. P -> System : "a"
    2. System -> Q : "b"
    3. Dev -> System : "c"
    outcome success
  }
  extensions {
    block 1-3a exceptional when "late" {
      1-3a1. raise SoftwareException::X
      outcome failure
    }
    block 2-3b alternative {
      2-3b1. P -> System : "d"
      block 2-3b1a alternative {
        2-3b1a1. raise SoftwareException::X
        outcome failure
      }
      outcome success
    }
  }
}
"""


@settings(max_examples=100, deadline=None)
@given(source=model_source())
@example(source=RANGED_ANCHOR)
def test_situations_and_actors_match_the_block_scan_oracle_on_generated_models(source):
    """Single and ranged block anchors alike, nested blocks included."""
    resolved, _ = pipeline(source)
    try:
        rows = exception_summary(resolved)
    except InvocationCycleError:  # E015: there is no table
        return
    details = [(r.exception, r.source_use_case, r.situations, r.participating_actors) for r in rows]
    assert details == reference_exception_details(resolved)


def test_view_on_unknown_or_handler_name_rejected(smartstore_resolved):
    with pytest.raises(ValueError):
        exception_summary(smartstore_resolved, view="Nope")
    with pytest.raises(ValueError):
        exception_summary(smartstore_resolved, view="ServiceSensor")


def test_situations_and_participants_come_from_raising_block(smartstore_resolved):
    rows = exception_summary(smartstore_resolved)
    (down,) = [r for r in rows if r.exception == "SoftwareException::PaymentServiceDown"]
    assert down.situations == ["the payment service is down"]
    (tag,) = [r for r in rows if r.exception == "HardwareException::TagUnavailable"]
    assert tag.participating_actors == []  # timeout step anchors the block; no interactions
    entry = [r for r in rows if r.exception == "HardwareException::EntryFailure"]
    assert [r.participating_actors for r in entry] == [["EntryGate"], ["EntryGate"]]  # anchored step


NESTED_UNDER_REPEATED_LABEL = """usecase A {
  scope: "s"
  level: user-goal
  intention: "i"
  multiplicity: "m"
  primary: Human::P
  secondary: Human::Q
  main {
    1. P -> System : "starts"
    outcome success
  }
  extensions {
    block 1a alternative when "first" {
      1a1. P -> System : "first"
      outcome success
    }
    block 1a alternative when "second" {
      1a1. Q -> System : "second"
      block 1a1a exceptional when "broken" {
        1a1a1. raise HardwareException::X
        outcome failure
      }
      outcome success
    }
  }
}
"""


def test_nested_block_participants_come_from_its_parent_sequence():
    """Two sibling blocks share the label 1a; the nested block 1a1a hangs off
    step 1a1 of the block that contains it, not off the first 1a1 in the use
    case."""
    resolved = model_with(NESTED_UNDER_REPEATED_LABEL, header_exceptions="exception HardwareException::X")
    (row,) = exception_summary(resolved)
    assert row.participating_actors == ["Q"]
    (site,) = resolved.raise_sites()
    second = resolved.model.use_cases[0].extensions[1]
    assert resolved.binding_for(site.block) is second.steps()[0]


def test_model_without_exceptions_has_empty_summary():
    resolved = model_with(plain_uc("A"))
    assert exception_summary(resolved) == []


# -- handler summary ----------------------------------------------------------


def test_service_sensor_handles_nine_paths(smartstore_resolved):
    rows = handler_summary(smartstore_resolved)
    (row,) = [r for r in rows if r.handler == "ServiceSensor"]
    assert row.total_invocation_paths == 9
    assert row.dependent_use_cases == ["IdentifyItem"]
    assert row.handled_exceptions == [
        "HardwareException::TagUnavailable",
        "HardwareException::PressureUndetected",
        "HardwareException::WeightUnavailable",
    ]


def test_exceptional_actors_are_starred(smartstore_resolved):
    rows = handler_summary(smartstore_resolved)
    (row,) = [r for r in rows if r.handler == "ServiceSensor"]
    assert "ServicePerson*" in row.actors
    assert "Staff" in row.actors  # staff also appear outside handlers: no star
    (fire,) = [r for r in rows if r.handler == "HandleFireHazard"]
    assert "EmergencyExit*" in fire.actors


def test_global_only_handler_has_zero_paths(smartstore_resolved):
    rows = handler_summary(smartstore_resolved)
    (fire,) = [r for r in rows if r.handler == "HandleFireHazard"]
    assert fire.total_invocation_paths == 0
    assert fire.dependent_use_cases == ["Shopping", "ExitStore", "MaintainStore", "CheckOut"]


def assert_handler_totals_match_global_view(resolved) -> None:
    """Handler totals equal the paths the global exception view lists for
    the handled exceptions, and both summaries fail alike on a cycle."""
    try:
        global_rows = exception_summary(resolved)
    except InvocationCycleError as listed:
        with pytest.raises(InvocationCycleError) as counted:
            handler_summary(resolved)
        assert counted.value.diagnostic == listed.diagnostic
        return
    counts: dict[str, int] = {}
    for row in global_rows:
        counts[row.exception] = counts.get(row.exception, 0) + len(row.paths)
    for handler_row in handler_summary(resolved):
        expected = sum(counts.get(name, 0) for name in handler_row.handled_exceptions)
        assert handler_row.total_invocation_paths == expected


def test_handler_totals_match_global_view(smartstore_resolved, firealarm_resolved):
    for resolved in (smartstore_resolved, firealarm_resolved):
        assert_handler_totals_match_global_view(resolved)


@settings(max_examples=40, deadline=None)
@given(st.one_of(model_source(), invocation_model_source()))
def test_handler_totals_match_global_view_on_generated_models(source):
    resolved, _ = pipeline(source)
    assert_handler_totals_match_global_view(resolved)


def test_handler_summary_reports_a_cycle_without_raise_sites():
    resolved = model_with(
        plain_uc("A", "    1. invoke B\n    outcome success"),
        plain_uc("B", "    1. invoke A\n    outcome success"),
    )
    assert resolved.raise_sites() == []
    with pytest.raises(InvocationCycleError) as counted:
        handler_summary(resolved)
    with pytest.raises(InvocationCycleError) as listed:
        exception_summary(resolved)
    assert counted.value.diagnostic.code == "E015"
    assert counted.value.diagnostic == listed.value.diagnostic


def test_edges_raise_sites_and_rows_are_tuples_that_reject_assignment(smartstore_resolved):
    """Each is built once, complete, and then only read."""
    records = [
        build_invocation_graph(smartstore_resolved).edges[0],
        smartstore_resolved.raise_sites()[0],
        exception_summary(smartstore_resolved)[0],
        handler_summary(smartstore_resolved)[0],
        mode_switch_table(smartstore_resolved)[0],
        mode_service_table(smartstore_resolved.model)[0],
    ]
    for record in records:
        assert isinstance(record, tuple), type(record)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


# -- a name declared twice ----------------------------------------------------
# A second declaration is E014, so `ucm` prints no table; the library's tables
# read the first declaration of a name, as references bind to it.


def test_exception_declared_twice_has_one_row_per_raise_site_and_counts_each_path_once():
    source = (
        "model M\nmodes { default normal Normal }\n"
        "exceptions {\n  exception SoftwareException::X\n  exception SoftwareException::X\n}\n"
        'usecase U {\n  main {\n    1. internal "go"\n    outcome success\n  }\n'
        "  extensions {\n    block 1a exceptional {\n"
        "      1a1. raise SoftwareException::X\n      outcome failure\n    }\n  }\n}\n"
        "handler H {\n  contexts: U on SoftwareException::X interrupt-fail\n"
        '  main {\n    1. internal "recover"\n    outcome success\n  }\n}\n'
    )
    resolved, diags = pipeline(source)
    assert "E014" in [d.code for d in diags]
    assert [(row.exception, row.paths_text) for row in exception_summary(resolved)] == [("SoftwareException::X", "U")]
    (row,) = handler_summary(resolved)
    assert row.total_invocation_paths == 1


def test_use_case_declared_twice_is_its_first_declaration_in_the_graph_and_the_paths():
    """R invokes U; the first U invokes A, the second B, which raises X. The
    graph holds U once, with the first U's edge only, so B is a root: the
    global row's one path is B, and the view of R, which does not reach B,
    has no row."""
    resolved = model_with(
        plain_uc("R", "    1. invoke U\n    outcome success"),
        plain_uc("U", "    1. invoke A\n    outcome success"),
        plain_uc("A"),
        plain_uc("U", "    1. invoke B\n    outcome success"),
        plain_uc("B", "    1. raise SoftwareException::X\n    outcome success"),
        header_exceptions="exception SoftwareException::X",
    )
    graph = build_invocation_graph(resolved)
    assert graph.nodes == ["R", "U", "A", "B"]
    assert [(edge.caller, edge.callee) for edge in graph.edges] == [("R", "U"), ("U", "A")]
    (row,) = exception_summary(resolved)
    assert row.paths_text == "B"
    assert reachable_use_cases(resolved, "R") == {"R", "U", "A"}
    assert exception_summary(resolved, view="R") == []


def test_use_case_declared_twice_has_its_first_declaration_s_rows_in_the_handler_and_mode_tables():
    second = '  main {\n    1. internal "again"\n    mode switch: Safe\n    outcome success\n  }\n}\n'
    source = (
        "model M\nmodes {\n  default normal Normal\n  restricted Safe\n}\n"
        "exceptions { exception SoftwareException::X }\n"
        "usecase U {\n  main {\n    1. raise SoftwareException::X\n    outcome success\n  }\n}\n"
        "usecase U {\n" + second +
        "handler H {\n  contexts: U on SoftwareException::X interrupt-fail\n"
        '  main {\n    1. internal "recover"\n    outcome success\n  }\n}\n'
        "handler H {\n  contexts: U on SoftwareException::X interrupt-fail\n" + second
    )
    resolved, diags = pipeline(source)
    assert [d.code for d in diags].count("E014") == 2
    assert [(row.handler, row.total_invocation_paths) for row in handler_summary(resolved)] == [("H", 1)]
    assert mode_switch_table(resolved) == []


@pytest.fixture(scope="module")
def parsed_diamond_chain():
    """A parsed chain of 60 width-2 diamonds, with 2**60 paths from J0 to J60,
    where SoftwareException::Deep is raised; handler Fix handles it."""
    resolved, diags = pipeline(diamond_chain_source(60))
    assert resolved is not None, diags
    return resolved


def test_handler_counts_paths_it_could_never_list(parsed_diamond_chain):
    (row,) = handler_summary(parsed_diamond_chain)
    assert row.total_invocation_paths == 2**60


def test_exception_table_stops_before_listing_past_the_bound(parsed_diamond_chain):
    # 2**60 paths of 121 nodes each: E016 at the raise step, from counts alone.
    start = time.perf_counter()
    with pytest.raises(analysis.AnalysisError) as excinfo:
        exception_summary(parsed_diamond_chain)
    assert time.perf_counter() - start < 0.5
    diag = excinfo.value.diagnostic
    assert diag.code == "E016"
    assert f"{121 * 2**60} path nodes" in diag.message and str(analysis.MAX_PATH_NODES) in diag.message
    (site,) = parsed_diamond_chain.raise_sites()
    assert diag.span == site.step.span


def test_path_node_bound_counts_every_printed_row(smartstore_resolved, monkeypatch):
    """Rows that share a source use case each count its paths; the table is
    refused only when it would print more than the bound."""
    printed = sum(len(p.use_cases) for row in exception_summary(smartstore_resolved) for p in row.paths)
    monkeypatch.setattr(analysis, "MAX_PATH_NODES", printed)
    exception_summary(smartstore_resolved)
    monkeypatch.setattr(analysis, "MAX_PATH_NODES", printed - 1)
    with pytest.raises(analysis.AnalysisError) as excinfo:
        exception_summary(smartstore_resolved)
    assert excinfo.value.diagnostic.code == "E016"
    assert f"{printed} path nodes" in excinfo.value.diagnostic.message


def test_view_lists_paths_without_paying_for_the_nodes_above_it(parsed_diamond_chain):
    # Every node above J58 also reaches the raise site, over 2**58 paths from
    # J0; only J58 and what it reaches may take part in the view's listing.
    start = time.perf_counter()
    (row,) = exception_summary(parsed_diamond_chain, view="J58")
    assert time.perf_counter() - start < 0.5
    assert [str(p) for p in row.paths] == [
        f"J58 -> {x} -> J59 -> {y} -> J60" for x in ("A59", "B59") for y in ("A60", "B60")
    ]


# -- deep invocation chains ---------------------------------------------------


@pytest.fixture(scope="module")
def deep_chain():
    model, diags = parse(chain_source(5000), "chain.ucm")
    assert model is not None, diags
    resolved, diags = resolve(model)
    assert diags == []
    return resolved


def test_deep_chain_handler_total_is_one(deep_chain):
    (row,) = handler_summary(deep_chain)
    assert row.handler == "H"
    assert row.total_invocation_paths == 1


def test_deep_chain_exception_summary_lists_its_one_path(deep_chain):
    expected = tuple(f"U{i}" for i in range(5000))
    for view in (None, "U0"):
        (row,) = exception_summary(deep_chain, view=view)
        assert row.source_use_case == "U4999"
        assert [p.use_cases for p in row.paths] == [expected]


def test_one_row_per_handler(smartstore_resolved):
    rows = handler_summary(smartstore_resolved)
    names = [r.handler for r in rows]
    assert names == [
        "HandleFireHazard",
        "AlertOnAttack",
        "ServiceGate",
        "HoldPayment",
        "RequestUser",
        "RequestCamera",
        "GetResponse",
        "ServiceSensor",
    ]


# -- mode tables --------------------------------------------------------------


def test_mode_switch_table_contains_fire_row(smartstore_resolved):
    rows = mode_switch_table(smartstore_resolved)
    fire = [r for r in rows if r.use_case == "Shopping" and r.to_mode == "FireEmergency"]
    assert len(fire) == 1
    assert fire[0].from_mode == "Normal"
    assert fire[0].location == "block 2-4a-begin"


def test_handlers_restore_normal_mode(smartstore_resolved):
    rows = mode_switch_table(smartstore_resolved)
    (row,) = [r for r in rows if r.use_case == "HandleFireHazard"]
    assert (row.from_mode, row.to_mode, row.location) == ("FireEmergency", "Normal", "main-end")
    (attack,) = [r for r in rows if r.use_case == "AlertOnAttack"]
    assert (attack.from_mode, attack.to_mode) == ("ExternalAttackEmergency", "Normal")


def test_from_and_to_modes_always_differ(smartstore_resolved, firealarm_resolved):
    for resolved in (smartstore_resolved, firealarm_resolved):
        for row in mode_switch_table(resolved):
            assert row.from_mode != row.to_mode


def test_model_without_switches_has_empty_table():
    resolved = model_with(plain_uc("A"))
    assert mode_switch_table(resolved) == []


def switch_rows(resolved) -> list[tuple[str, str, str, str]]:
    return [(r.use_case, r.location, r.from_mode, r.to_mode) for r in mode_switch_table(resolved)]


def test_mode_switch_table_matches_the_recursive_oracle_on_the_corpora(smartstore_resolved, firealarm_resolved):
    for resolved in (smartstore_resolved, firealarm_resolved):
        assert switch_rows(resolved) == reference_mode_switch_table(resolved)


@settings(max_examples=100, deadline=None)
@given(source=model_source())
def test_mode_switch_table_matches_the_recursive_oracle_on_generated_models(source):
    resolved, _ = pipeline(source)
    assert switch_rows(resolved) == reference_mode_switch_table(resolved)


def entry_mode_source(modes: list[str]) -> str:
    """Use cases U0, U1, ..., each raising SoftwareException::X in a block
    that switches to its entry of `modes`, and handler H of `U0 on
    SoftwareException::X` that switches to Safe at its end."""
    declared = "".join(f"  degraded {mode}\n" for mode in sorted(set(modes)))
    parts = [f"model Entry\nmodes {{\n  default normal Normal\n  restricted Safe\n{declared}}}\n"
             "exceptions { exception SoftwareException::X }\n"]
    parts += [raising_in_mode_source(f"U{i}", mode) for i, mode in enumerate(modes)]
    parts.append(
        "handler H {\n  contexts: U0 on SoftwareException::X interrupt-fail\n"
        '  main {\n    1. internal "recover"\n    mode switch: Safe\n    outcome success\n  }\n}\n'
    )
    return "".join(parts)


@pytest.mark.parametrize(
    "modes, start",
    [(["M1", "M2"], "Normal"), (["M1", "M2", "M3"], "Normal"), (["M1", "M1"], "M1")],
)
def test_handler_starts_in_the_one_mode_its_exception_enters(modes, start):
    """Two or more distinct modes entered by the exception's raising blocks
    leave the handler in the default mode; one mode, however many blocks
    enter it, is the handler's start."""
    resolved, _ = pipeline(entry_mode_source(modes))
    assert switch_rows(resolved)[-1] == ("H", "main-end", start, "Safe")
    assert switch_rows(resolved) == reference_mode_switch_table(resolved)


def test_mode_fan_table_in_linear_time():
    resolved = {n: pipeline(mode_fan_source(n))[0] for n in (250, 2000)}
    assert switch_rows(resolved[250]) == reference_mode_switch_table(resolved[250])
    # 8x the handlers of one exception entering 8x the modes: about 8x the
    # time; collecting every entered mode per handler context gives 64x.
    assert growth(lambda n: mode_switch_table(resolved[n]), 250, 2000) < 20


def test_firealarm_reconnect_rows(firealarm_resolved):
    rows = mode_switch_table(firealarm_resolved)
    (net,) = [r for r in rows if r.use_case == "ReconnectToNetwork"]
    assert (net.from_mode, net.to_mode) == ("NoInternet", "Normal")
    (fd,) = [r for r in rows if r.use_case == "ReconnectFDToNetwork"]
    assert (fd.from_mode, fd.to_mode) == ("NoAlert", "Normal")


def test_mode_service_rows_in_declaration_order(smartstore, firealarm):
    rows = mode_service_table(smartstore)
    assert [(r.mode, r.kind) for r in rows] == [
        ("Normal", "normal"),
        ("RestrictedEntry", "restricted"),
        ("FireEmergency", "emergency"),
        ("ExternalAttackEmergency", "emergency"),
    ]
    assert rows[2].services == ["EntryRestrictionManager", "FireHazardManager"]
    fire_rows = mode_service_table(firealarm)
    assert [(r.mode, r.kind) for r in fire_rows] == [
        ("Normal", "normal"),
        ("NoAlert", "degraded"),
        ("NoInternet", "degraded"),
    ]


def test_modes_without_offers_have_empty_service_list():
    resolved = model_with(plain_uc("A"))
    (row,) = mode_service_table(resolved.model)
    assert row.services == []


# -- determinism and adapters --------------------------------------------------


def test_tables_are_deterministic(smartstore_resolved):
    first = exception_summary(smartstore_resolved)
    second = exception_summary(smartstore_resolved)
    assert first == second
    assert handler_summary(smartstore_resolved) == handler_summary(smartstore_resolved)
    assert mode_switch_table(smartstore_resolved) == mode_switch_table(smartstore_resolved)


def test_summary_table_adapters_have_consistent_shape(smartstore_resolved):
    table = exception_table(exception_summary(smartstore_resolved))
    assert table.columns[0] == "Exception"
    assert all(len(row) == len(table.columns) for row in table.rows)
    handler = handler_table(handler_summary(smartstore_resolved))
    sensor_row = [r for r in handler.rows if r[0] == "ServiceSensor"]
    assert sensor_row and sensor_row[0][-1] == "9"


# -- linear time on wide shapes ------------------------------------------------


def test_wide_handler_exception_summary_in_linear_time():
    resolved = {n: pipeline(wide_handler_source(n))[0] for n in (500, 4000)}
    assert len(exception_summary(resolved[4000])) == 4000
    # 8x the raise sites: about 8x the time; scanning every root per site gives 64x.
    assert growth(lambda n: exception_summary(resolved[n]), 500, 4000) < 20


@pytest.mark.parametrize("view", [None, "Hub"])
def test_fan_exception_summary_in_linear_time(view):
    resolved = {n: pipeline(fan_source(n))[0] for n in (500, 4000)}
    rows = exception_summary(resolved[4000], view)
    assert len(rows) == 4000 and rows[-1].paths == ["Hub -> L3999"]
    # 8x the raising callees: about 8x the time; scanning every callee of Hub per row gives 64x.
    assert growth(lambda n: exception_summary(resolved[n], view), 500, 4000) < 20


def test_view_below_many_callers_in_linear_time():
    resolved = {n: pipeline(callers_above_view_source(n))[0] for n in (250, 2000)}
    rows = exception_summary(resolved[2000], "V")
    assert len(rows) == 2000 and rows[-1].paths == ["V -> L1999"]
    # 8x the callers above V and its raising callees: about 8x the time;
    # walking back over every caller of V per row gives 64x.
    assert growth(lambda n: exception_summary(resolved[n], "V"), 250, 2000) < 20


def test_wide_block_exception_summary_in_linear_time():
    resolved = {n: pipeline(wide_block_source(n))[0] for n in (500, 4000)}
    rows = exception_summary(resolved[4000])
    assert len(rows) == 4000 and rows[-1].participating_actors == ["P"]
    # 8x the raise steps in one block: about 8x the time; reading the block once per site gives 64x.
    assert growth(lambda n: exception_summary(resolved[n]), 500, 4000) < 20
