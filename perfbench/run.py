#!/usr/bin/env python3
"""Pipeline benchmark for the ucm compiler.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. With --trace 0 it times whole `ucm` commands
in-process (see pipeline.py), round-robin until S seconds have passed, and
reports the median of each; set-up time and peak RSS come from fresh child
processes that run alone. With --trace 1 it times each layer's public
functions instead (see layers.py). Every output is checked by construction
(see checks.py). The last stdout line is one JSON object: correct,
attempted, failed and metrics. A fuller record, with sample statistics and
provenance, goes to perfbench/results/. --smoke uses the smallest sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
from pipeline import OPS, SRC, missing_inputs, setup
from workloads import GENERATORS, ROOT, SMOKE_SIZES

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_CHILDREN = 2  # plus the measuring process's own set-up: median of 3
CHILD_TIMEOUT_S = 150


def summarize(values: list[float]) -> dict:
    """Sample count, median, quartiles and the highest percentile that has
    at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(ordered, n=4)
    if n > 10:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def provenance(args: argparse.Namespace, params: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ucm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        revision = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "params": params,
    }


def child(args: list[str], env: dict | None = None) -> dict:
    """Run child.py alone and return the JSON it prints last."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        env={**os.environ, **(env or {})},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Attempted and failed operations; the first few problems are logged."""

    def __init__(self):
        self.attempted = self.failed = 0

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print("FAILED: " + "; ".join(problems)[:2000], file=sys.stderr)


def measure(args: argparse.Namespace, sizes: dict, work: Path, tally: Tally) -> tuple[dict, dict, dict]:
    """Untraced run: returns the end-to-end metrics, the samples behind them
    and the counters."""
    pipe, setup_s, problems = setup(args.workload, args.seed, work / "main", sizes)
    tally.add(problems)
    raw: dict[str, list[float]] = {op: [] for op in OPS}
    samples: dict[str, list[float]] = {op: [] for op in OPS}
    reference = [calibrate.sample()]
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        for op in OPS:
            elapsed, outputs = pipe.run(op)
            reference.append(calibrate.sample())
            raw[op].append(elapsed)
            # Each sample is bracketed by reference samples taken just
            # before and after it.
            samples[op].append(calibrate.normalized(elapsed, (reference[-2] + reference[-1]) / 2))
            tally.add(pipe.check(op, outputs))

    raw["setup_s"] = [setup_s]
    spec = json.dumps({"workload": args.workload, "seed": args.seed, "sizes": sizes})
    for i in range(SETUP_CHILDREN):
        try:
            result = child(["setup", spec, str(work / f"setup{i}")])
            raw["setup_s"].append(result["setup_s"])
            tally.add(result["problems"])
        except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as err:
            tally.add([str(err)])
    # One set-up is a single long sample, so it is normalized by the run's
    # median reference time rather than by its neighbours.
    reference_s = statistics.median(reference)
    samples["setup_s"] = [calibrate.normalized(s, reference_s) for s in raw["setup_s"]]
    try:
        rss = child(["rss", str(pipe.model), str(work / "rss")], {"PYTHONHASHSEED": "0"})
        samples["peak_rss_mib"] = [rss["peak_rss_mib"]]
        tally.add(checks.report_output(pipe.workload, rss["rc"], rss["stderr"], work / "rss" / pipe.model.stem))
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as err:
        tally.add([str(err)])

    metrics = {name: {"value": statistics.median(values), "unit": "MiB" if name.endswith("_mib") else "s"}
               for name, values in samples.items() if values}
    samples.update({f"raw.{name}": values for name, values in raw.items()})
    samples["reference_s"] = reference
    counters = {"rounds": len(raw["check_s"]), "model_bytes": len(pipe.workload.source.encode()),
                "use_cases": pipe.workload.use_cases}
    return metrics, samples, {**counters, "params": pipe.workload.params}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes (self-test)")
    args = parser.parse_args(argv)

    missing = missing_inputs()
    if missing:
        print("perfbench: run from a ucm checkout; missing " + ", ".join(map(str, missing)), file=sys.stderr)
        return 2

    sizes = SMOKE_SIZES[args.workload] if args.smoke else {}
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = HERE / ".work" / f"{label}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            from layers import traced

            metrics, samples, counters = traced(args, sizes, work, tally)
        else:
            metrics, samples, counters = measure(args, sizes, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "provenance": provenance(args, counters.pop("params")),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed / max(tally.attempted, 1),
        "counters": counters,
        "stats": {name: summarize(values) for name, values in samples.items()},
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
