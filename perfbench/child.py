"""Fresh-process parts of the benchmark; run.py starts each one alone.

    python3 perfbench/child.py setup SPEC_JSON WORKDIR
        time one full set-up (see pipeline.setup) in a new interpreter
    python3 perfbench/child.py rss MODEL OUTDIR
        run the report step of scripts/generate_reports.py once and print
        the process's peak RSS; imports nothing but ucm and the script

Each prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    mode, arg, out_dir = argv
    if mode == "setup":
        from pipeline import setup

        spec = json.loads(arg)
        _, seconds, problems = setup(spec["workload"], spec["seed"], Path(out_dir), spec["sizes"])
        print(json.dumps({"setup_s": seconds, "problems": problems}))
        return 0
    spec = importlib.util.spec_from_file_location("generate_reports", ROOT / "scripts" / "generate_reports.py")
    reports = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reports)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = reports.generate(Path(arg), Path(out_dir))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"rc": rc, "stderr": err.getvalue(), "peak_rss_mib": peak_mib}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
