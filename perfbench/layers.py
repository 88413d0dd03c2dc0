"""Traced run: each layer's public functions, timed one by one from outside.

A round calls, in pipeline order, what `ucm check`, `ucm table` and
scripts/generate_reports.py call: lexer, parser, resolver, validation,
diagnostics rendering, analysis and export. Every call is a span timed from
here; nothing inside ucm is instrumented. Times are medians over rounds;
counters come from the first round and must repeat exactly run to run.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc
from collections import defaultdict

import calibrate
import checks
from pipeline import setup

ROUND_REFERENCES = 3  # reference samples after each round

# name -> unit, in report order.
LAYER_METRICS = {
    "lexer.tokenize_s": "s",
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "parser.parse_self_s": "s",
    "parser.use_cases": "count",
    "parser.steps": "count",
    "parser.blocks": "count",
    "resolver.resolve_s": "s",
    "resolver.bindings": "count",
    "resolver.invocation_edges": "count",
    "resolver.raise_sites": "count",
    "resolver.raise_sites_calls": "count",
    "validation.validate_s": "s",
    "validation.errors": "count",
    "validation.warnings": "count",
    "diagnostics.render_s": "s",
    "diagnostics.rendered": "count",
    "analysis.graph_s": "s",
    "analysis.exception_summary_s": "s",
    "analysis.handler_summary_s": "s",
    "analysis.mode_switch_table_s": "s",
    "analysis.paths": "count",
    "analysis.path_nodes": "count",
    "analysis.alloc_peak_mib": "MiB",
    "export.render_table_s": "s",
    "export.json_s": "s",
    "export.xmi_s": "s",
    "export.dot_s": "s",
    "export.import_json_s": "s",
    "export.bytes_out": "count",
    "cli.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def _timed(spans: dict, name: str, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    spans[name] = time.perf_counter() - start
    return result


def traced(args, sizes: dict, work, tally) -> tuple[dict, dict, dict]:
    """Returns the per-layer metrics, the samples behind them and the counters."""
    pipe, _, problems = setup(args.workload, args.seed, work / "main", sizes)
    tally.add(problems)
    from ucm import analysis, diagnostics, export, lexer, parser, resolver, validation
    wl, file = pipe.workload, str(pipe.model)
    spans_by_name: dict[str, list[float]] = defaultdict(list)
    counters: dict[str, int] = {}
    references: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while not counters or time.perf_counter() < deadline:
        gc.collect()
        t: dict[str, float] = {}
        source = pipe.model.read_text(encoding="utf-8")
        tokens = _timed(t, "lexer.tokenize_s", lexer.tokenize, lexer.normalize(source), file)
        check_start = time.perf_counter()
        model, parse_diags = _timed(t, "parse", parser.parse, source, file)
        resolved, resolve_diags = _timed(t, "resolver.resolve_s", resolver.resolve, model)
        validate_diags = _timed(t, "validation.validate_s", validation.validate, resolved)
        diags = diagnostics.sort_diagnostics(parse_diags + resolve_diags + validate_diags)
        rendered = _timed(t, "diagnostics.render_s",
                          lambda: [diagnostics.render_diagnostic(d, source) for d in diags])
        traced_check = time.perf_counter() - check_start
        _timed(t, "analysis.graph_s", analysis.build_invocation_graph, resolved)
        rows = _timed(t, "analysis.exception_summary_s", analysis.exception_summary, resolved)
        handler_rows = _timed(t, "analysis.handler_summary_s", analysis.handler_summary, resolved)
        mode_rows = _timed(t, "analysis.mode_switch_table_s", analysis.mode_switch_table, resolved)
        md = _timed(t, "export.render_table_s", export.render_table, analysis.exception_table(rows), "md")
        js = _timed(t, "export.json_s", export.export_json, resolved)
        xmi = _timed(t, "export.xmi_s", export.export_xmi, resolved)
        dot = _timed(t, "export.dot_s", export.export_dot, resolved)
        imported, import_diags = _timed(t, "export.import_json_s", export.import_json, js)
        cli_s, outputs = pipe.run("check_s")
        tally.add(pipe.check("check_s", outputs))

        library_s = t["parse"] + t["resolver.resolve_s"] + t["validation.validate_s"] + t["diagnostics.render_s"]
        t["cli.overhead_s"] = cli_s - library_s
        t["parser.parse_self_s"] = t.pop("parse") - t["lexer.tokenize_s"]
        spans_by_name["traced_check_s"].append(traced_check)
        spans_by_name["cli_check_s"].append(cli_s)
        for name, seconds in t.items():
            spans_by_name[name].append(seconds)
        references += [calibrate.sample() for _ in range(ROUND_REFERENCES)]

        if counters:
            continue
        counters = {
            "lexer.tokens": len(tokens),
            "parser.use_cases": len(model.use_cases),
            "parser.steps": sum(len(uc.all_steps()) for uc in model.use_cases),
            "parser.blocks": sum(len(uc.all_blocks()) for uc in model.use_cases),
            "resolver.bindings": len(resolved.bindings),
            "resolver.invocation_edges": sum(len(resolved.invocations_of(uc)) for uc in model.use_cases),
            "resolver.raise_sites": len(resolved.raise_sites()),
            "validation.errors": sum(d.severity is diagnostics.Severity.ERROR for d in validate_diags),
            "validation.warnings": sum(d.severity is diagnostics.Severity.WARNING for d in validate_diags),
            "diagnostics.rendered": len(rendered),
            "analysis.paths": sum(len(row.paths) for row in rows),
            "analysis.path_nodes": sum(len(p.use_cases) for row in rows for p in row.paths),
            "export.bytes_out": sum(len(text.encode()) for text in (js, xmi, dot)),
        }
        problems = checks.trace_diagnostics(
            wl, [d.code for d in resolve_diags], [d.code for d in parse_diags + resolve_diags + validate_diags]
        )
        if wl.clean:
            problems += checks.exceptions_table(wl, md)
            problems += checks.handlers_table(wl, export.render_table(analysis.handler_table(handler_rows)))
            problems += checks.modes_table(wl, export.render_table(analysis.mode_switch_summary_table(mode_rows)))
        for target, text in (("json", js), ("xmi", xmi), ("dot", dot)):
            problems += checks.EXPORTS[target](wl, text)
        if imported is None or import_diags:
            problems.append("import_json rejected the JSON export")
        tally.add(problems)

    counters["resolver.raise_sites_calls"] = _count_raise_sites_calls(pipe, resolver.ResolvedModel, tally)
    tracemalloc.start()
    try:
        analysis.exception_summary(resolved)
        analysis.handler_summary(resolved)
        alloc_peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    # Layer times are normalized by the run's median reference time (see
    # calibrate.py), like the end-to-end metrics.
    scale = calibrate.normalized(1.0, statistics.median(references))
    medians = {name: statistics.median(values) * scale for name, values in spans_by_name.items()}
    values = {
        **{name: medians[name] for name in LAYER_METRICS if name in medians},
        **counters,
        "lexer.tokens_per_s": counters["lexer.tokens"] / medians["lexer.tokenize_s"],
        "analysis.alloc_peak_mib": alloc_peak,
        "trace.overhead_share": medians["traced_check_s"] / medians["cli_check_s"] - 1,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    spans_by_name["reference_s"] = references
    return metrics, spans_by_name, {"rounds": len(spans_by_name["cli_check_s"]), **counters, "params": wl.params}


def _count_raise_sites_calls(pipe, resolved_model_cls, tally) -> int:
    """How often one `ucm table modes` asks the resolver for raise sites,
    counted by wrapping the public method for the length of the command."""
    original = resolved_model_cls.raise_sites
    calls = 0

    def counting(self):
        nonlocal calls
        calls += 1
        return original(self)

    resolved_model_cls.raise_sites = counting
    try:
        _, outputs = pipe.run("table_modes_s")
    finally:
        resolved_model_cls.raise_sites = original
    tally.add(pipe.check("table_modes_s", outputs))
    return calls
