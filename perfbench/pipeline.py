"""The commands the benchmark times, run in-process on the real code paths.

`ucm.cli.main(argv)` runs with stdout and stderr captured to memory, and
the report step calls `generate` from scripts/generate_reports.py, so every
sample is one whole user-visible command without interpreter start-up.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import importlib.util
import io
import shutil
import sys
import time
import traceback
from pathlib import Path

import checks
from workloads import GENERATORS, ROOT, Workload

SRC = ROOT / "src"
REPORT_SCRIPT = ROOT / "scripts" / "generate_reports.py"

# Metric name -> the `ucm` commands one sample runs (the model path is
# appended); report_s runs the batch report instead.
COMMANDS = {
    "check_s": [["check"]],
    "table_exceptions_s": [["table", "exceptions"]],
    "table_handlers_s": [["table", "handlers"]],
    "table_modes_s": [["table", "modes"]],
    "export_s": [["export", "json"], ["export", "xmi"], ["export", "dot"]],
}
OPS = (*COMMANDS, "report_s")


def missing_inputs() -> list[Path]:
    """Repository files the benchmark needs but cannot find."""
    needed = (SRC / "ucm" / "cli.py", REPORT_SCRIPT, ROOT / "corpus" / "smartstore.ucm")
    return [p for p in needed if not p.is_file()]


class Pipeline:
    """One generated model on disk plus the loaded ucm entry points."""

    def __init__(self, workload: Workload, model: Path, work: Path):
        self.workload = workload
        self.model = model
        self.report_root = work / "reports"
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("ucm.cli")
        spec = importlib.util.spec_from_file_location("generate_reports", REPORT_SCRIPT)
        self.reports = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.reports)

    @property
    def report_dir(self) -> Path:
        return self.report_root / self.model.stem

    def _call(self, fn, *args) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = fn(*args)
        except Exception:  # a crash is a failed op, not the end of the run
            rc = None
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    def run(self, op: str) -> tuple[float, list]:
        """Time one sample of `op`; returns the seconds and the raw outputs
        for `check`."""
        if op == "report_s":
            shutil.rmtree(self.report_root, ignore_errors=True)
            gc.collect()
            start = time.perf_counter()
            outputs = [self._call(self.reports.generate, self.model, self.report_root)]
            return time.perf_counter() - start, outputs
        argvs = [[*prefix, str(self.model)] for prefix in COMMANDS[op]]
        gc.collect()
        start = time.perf_counter()
        outputs = [self._call(self.cli.main, argv) for argv in argvs]
        return time.perf_counter() - start, outputs

    def check(self, op: str, outputs: list) -> list[str]:
        """Problems in the outputs of one sample of `op`."""
        if op == "report_s":
            ((rc, _, err),) = outputs
            return checks.report_output(self.workload, rc, err, self.report_dir)
        problems = []
        for prefix, (rc, out, err) in zip(COMMANDS[op], outputs):
            problems += checks.cli_output(self.workload, prefix, rc, out, err)
        return problems


def setup(name: str, seed: int, work: Path, sizes: dict) -> tuple[Pipeline, float, list[str]]:
    """Generate the inputs, import ucm and make one untimed warm-up call per
    command. Returns the pipeline, the set-up seconds and the problems the
    warm-up outputs show (checked after the clock stops)."""
    start = time.perf_counter()
    workload = GENERATORS[name](seed, **sizes)
    work.mkdir(parents=True, exist_ok=True)
    model = work / f"{name}.ucm"
    model.write_text(workload.source, encoding="utf-8")
    pipe = Pipeline(workload, model, work)
    warm = [(op, pipe.run(op)[1]) for op in OPS]
    elapsed = time.perf_counter() - start
    return pipe, elapsed, [p for op, outputs in warm for p in pipe.check(op, outputs)]

