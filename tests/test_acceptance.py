"""Acceptance suite: one test per shipping criterion, each at its stated
tolerance (exact unless noted). A pass/fail line per criterion is echoed in
the terminal summary.
"""

from __future__ import annotations

import random
import time

from conftest import CORPUS
from oracles import brute_force_paths
from test_validation import MUTATION_CATALOG, run_mutation_case
from ucm.analysis import (
    Edge,
    InvocationGraph,
    build_invocation_graph,
    enumerate_paths,
    exception_summary,
    handler_summary,
    mode_service_table,
    mode_switch_table,
    path_counts,
)
from ucm.export import export_dot, export_json, export_xmi, import_json
from ucm.parser import parse_file
from ucm.resolver import reachable_use_cases, resolve
from ucm.validation import validate

THREE_SENSOR_SEQUENCES = [
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

SMARTSTORE_HANDLERS = [
    "HandleFireHazard",
    "AlertOnAttack",
    "ServiceGate",
    "HoldPayment",
    "RequestUser",
    "RequestCamera",
    "GetResponse",
    "ServiceSensor",
]


def test_criterion_1_sensor_exceptions_have_three_exact_paths(acceptance_report):
    started = time.perf_counter()
    model, diags = parse_file(CORPUS / "smartstore.ucm")
    assert model is not None and diags == []
    resolved, rdiags = resolve(model)
    assert rdiags == []
    rows = exception_summary(resolved)
    for name in ("TagUnavailable", "PressureUndetected", "WeightUnavailable"):
        (row,) = [r for r in rows if r.exception == f"HardwareException::{name}"]
        assert [p.use_cases for p in row.paths] == THREE_SENSOR_SEQUENCES
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    acceptance_report(1, f"3 sensor exceptions x 3 exact paths in {elapsed * 1000:.0f} ms")


def test_criterion_2_service_sensor_nine_paths(smartstore_resolved, acceptance_report):
    (row,) = [r for r in handler_summary(smartstore_resolved) if r.handler == "ServiceSensor"]
    assert row.total_invocation_paths == 9
    acceptance_report(2, "ServiceSensor aggregates 9 invocation paths")


def test_criterion_3_smartstore_declares_11_exceptions_8_handlers(smartstore, acceptance_report):
    assert len(smartstore.exceptions) == 11
    handlers = [uc.name for uc in smartstore.use_cases if uc.is_handler]
    assert handlers == SMARTSTORE_HANDLERS
    acceptance_report(3, "smart store corpus: 11 exceptions, 8 handlers")


def test_criterion_4_smartstore_mode_summary(smartstore, acceptance_report):
    rows = mode_service_table(smartstore)
    assert [(r.mode, r.kind) for r in rows] == [
        ("Normal", "normal"),
        ("RestrictedEntry", "restricted"),
        ("FireEmergency", "emergency"),
        ("ExternalAttackEmergency", "emergency"),
    ]
    acceptance_report(4, "smart store mode summary lists the 4 expected modes")


def test_criterion_5_firealarm_exceptions_and_modes(firealarm, acceptance_report):
    assert len(firealarm.exceptions) == 18
    rows = mode_service_table(firealarm)
    assert [(r.mode, r.kind) for r in rows] == [
        ("Normal", "normal"),
        ("NoAlert", "degraded"),
        ("NoInternet", "degraded"),
    ]
    acceptance_report(5, "fire alarm corpus: 18 exceptions, modes Normal/NoAlert/NoInternet")


def test_criterion_6_mutation_catalog_covers_every_code(acceptance_report):
    covered = {case.code for case in MUTATION_CATALOG}
    required = {f"E{n:03d}" for n in range(16)} | {"W001", "W002", "W003"}
    assert covered == required
    for case in MUTATION_CATALOG:
        run_mutation_case(case)
    acceptance_report(6, f"mutation pairs pass for all {len(covered)} diagnostic codes")


def test_criterion_7_path_enumeration_matches_oracle_on_200_dags(acceptance_report):
    rng = random.Random(73)
    started = time.perf_counter()
    for _ in range(200):
        n = rng.randint(1, 12)
        nodes = [f"N{i:02d}" for i in range(n)]
        possible = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        rng.shuffle(possible)
        edges = possible[: rng.randint(0, min(20, len(possible)))]
        graph = InvocationGraph(nodes, [Edge(a, b, str(k)) for k, (a, b) in enumerate(edges)])
        target = rng.choice(nodes)
        expected = brute_force_paths(nodes, edges, target)
        assert [p.use_cases for p in enumerate_paths(graph, target)] == expected
        assert path_counts(graph)[target] == len(expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    acceptance_report(7, f"200 random DAGs match the brute-force oracle in {elapsed:.2f} s")


def test_criterion_8_round_trip_and_deterministic_exports(
    smartstore_resolved, firealarm_resolved, acceptance_report
):
    for resolved in (smartstore_resolved, firealarm_resolved):
        canonical = export_json(resolved)
        back, diags = import_json(canonical)
        assert diags == []
        assert export_json(back) == canonical  # structural equality modulo spans
        assert export_xmi(resolved) == export_xmi(resolved)
        assert export_dot(resolved) == export_dot(resolved)
    acceptance_report(8, "JSON round-trips; XMI and DOT exports byte-stable for both corpora")


def test_criterion_9_smartstore_has_51_interactions_outside_handlers(smartstore, acceptance_report):
    count = sum(
        1
        for uc in smartstore.use_cases
        if not uc.is_handler
        for step in uc.all_steps()
        if step.kind == "interaction"
    )
    assert count == 51
    acceptance_report(9, "smart store corpus contains 51 interaction steps outside handlers")


def test_corpus_reconstruction_extras(smartstore, firealarm, smartstore_resolved, acceptance_report):
    """Secondary counts the corpora were authored to: fire-alarm interaction
    steps and the invocation-graph roots."""
    count = sum(
        1
        for uc in firealarm.use_cases
        if not uc.is_handler
        for step in uc.all_steps()
        if step.kind == "interaction"
    )
    assert count == 26
    assert sum(1 for uc in firealarm.use_cases if uc.is_handler) == 13
    graph = build_invocation_graph(smartstore_resolved)
    assert graph.roots == ["UseSmartStore", "WorkAtSmartStore"]


def _answers(resolved) -> dict:
    """What the public entry points report about one resolved model."""
    use_cases = resolved.model.use_cases
    return {
        "bindings": len(resolved.bindings),
        "edges": [str(edge) for edge in build_invocation_graph(resolved).edges],
        "exceptions": exception_summary(resolved),
        "views": {uc.name: exception_summary(resolved, uc.name) for uc in use_cases if not uc.is_handler},
        "handlers": handler_summary(resolved),
        "modes": mode_switch_table(resolved),
        "services": mode_service_table(resolved.model),
        "reachable": {uc.name: reachable_use_cases(resolved, uc.name) for uc in use_cases},
        "codes": sorted(d.code for d in validate(resolved)),
    }


def test_json_round_trip_answers_like_the_parsed_model(smartstore_resolved, firealarm_resolved):
    """A model rebuilt with import_json has zero-length spans everywhere; every
    table, reachability answer and validation code must still match."""
    for resolved, bindings, edges in ((smartstore_resolved, 149, 22), (firealarm_resolved, 125, 15)):
        back, diags = import_json(export_json(resolved))
        assert diags == []
        again, resolve_diags = resolve(back)
        assert resolve_diags == []
        expected = _answers(resolved)
        assert (expected["bindings"], len(expected["edges"])) == (bindings, edges)
        assert _answers(again) == expected
