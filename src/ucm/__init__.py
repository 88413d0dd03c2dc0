"""ucm: compiler and static analyzer for textual IoT use-case models."""

from .analysis import (
    AnalysisError,
    InvocationCycleError,
    InvocationGraph,
    PathRecord,
    build_invocation_graph,
    enumerate_paths,
    exception_summary,
    handler_summary,
    mode_service_table,
    mode_switch_table,
)
from .diagnostics import CODES, Diagnostic, Severity, render_diagnostic
from .export import SummaryTable, export_dot, export_json, export_xmi, import_json, render_table
from .model import Model
from .parser import parse, parse_file
from .resolver import ResolvedModel, reachable_use_cases, resolve
from .spans import LineIndex, SourceSpan
from .validation import validate

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "CODES",
    "Diagnostic",
    "InvocationCycleError",
    "InvocationGraph",
    "LineIndex",
    "Model",
    "PathRecord",
    "ResolvedModel",
    "Severity",
    "SourceSpan",
    "SummaryTable",
    "build_invocation_graph",
    "enumerate_paths",
    "exception_summary",
    "export_dot",
    "export_json",
    "export_xmi",
    "handler_summary",
    "import_json",
    "mode_service_table",
    "mode_switch_table",
    "parse",
    "parse_file",
    "reachable_use_cases",
    "render_diagnostic",
    "render_table",
    "resolve",
    "validate",
]
