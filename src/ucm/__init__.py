"""ucm: compiler and static analyzer for textual IoT use-case models.

`import ucm` loads no submodule: each public name is imported from its
submodule when it is first read (PEP 562). A submodule is an attribute of the
package only once it has been imported; `from ucm import analysis` imports it.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name and the submodule that defines it, in `__all__` order.
_SUBMODULES = {
    "AnalysisError": "analysis", "CODES": "diagnostics", "Diagnostic": "diagnostics",
    "InvocationCycleError": "analysis", "InvocationGraph": "analysis", "LineIndex": "spans", "Model": "model",
    "PathRecord": "analysis", "ResolvedModel": "resolver", "Severity": "diagnostics", "SourceSpan": "spans",
    "SummaryTable": "export", "build_invocation_graph": "analysis", "enumerate_paths": "analysis",
    "exception_summary": "analysis", "export_dot": "export", "export_json": "export", "export_xmi": "export",
    "handler_summary": "analysis", "import_json": "export", "mode_service_table": "analysis",
    "mode_switch_table": "analysis", "parse": "parser", "parse_file": "parser", "reachable_use_cases": "resolver",
    "render_diagnostic": "diagnostics", "render_table": "export", "resolve": "resolver", "validate": "validation",
}

__all__ = list(_SUBMODULES)


def __getattr__(name: str):
    """Import the public `name` from its submodule and keep it in the module's
    globals, where the next read finds it without calling this."""
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SUBMODULES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
