#!/usr/bin/env python3
"""Compare what `ucm` prints when run from two source trees.

Runs fifteen commands (`check`, `check --strict`, `check --format json`,
`table exceptions`, `table handlers`, `table modes` and `table services`,
each in md and csv, `export json`, `export xmi`, `export dot`, and
`table exceptions --usecase NAME` for the first use case declared in the
model's text) on twelve models: both corpora, the four test fixtures, and
the three benchmark workloads at seeds 3 and 11, 180 command lines in all.
Each runs as `python -m ucm.cli` under this interpreter, once with each tree
first on PYTHONPATH, from one temporary directory that holds the models, so
file names print alike.

Prints one line per command: `same` or `DIFF`, then the exit code and the
SHA-256 and byte length of stdout and of stderr (both trees' when they
differ). Exits 1 if any command differs. Stdlib only, so any interpreter
can run it:

    python3.12 scripts/compare_outputs.py OLD/src NEW/src
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

from workloads import GENERATORS  # noqa: E402

COMMANDS = [
    ["check"],
    ["check", "--strict"],
    ["check", "--format", "json"],
    ["table", "exceptions"],
    ["table", "exceptions", "--format", "csv"],
    ["table", "handlers"],
    ["table", "handlers", "--format", "csv"],
    ["table", "modes"],
    ["table", "modes", "--format", "csv"],
    ["table", "services"],
    ["table", "services", "--format", "csv"],
    ["export", "json"],
    ["export", "xmi"],
    ["export", "dot"],
]
# The first `usecase` declaration of a model text, as the first use case of the parsed model.
FIRST_USE_CASE = re.compile(r"^[ \t]*usecase[ \t]+([A-Za-z_][A-Za-z0-9_-]*)", re.MULTILINE)
FIXTURES = ("all-productions", "invocation-paths", "resolver-faults", "validation-faults")
SEEDS = (3, 11)


def write_models(directory: Path) -> list[str]:
    """Copy or generate every model into `directory`; return their file names."""
    sources = [REPO / "corpus" / f"{name}.ucm" for name in ("smartstore", "firealarm")]
    sources += [REPO / "tests" / "fixtures" / f"{name}.ucm" for name in FIXTURES]
    for path in sources:
        shutil.copyfile(path, directory / path.name)
    names = [path.name for path in sources]
    for workload in sorted(GENERATORS):
        for seed in SEEDS:
            name = f"{workload}-{seed}.ucm"
            (directory / name).write_text(GENERATORS[workload](seed).source, encoding="utf-8")
            names.append(name)
    return names


def model_commands(model: str, text: str) -> list[list[str]]:
    """Every command line to run on the model file `model` whose text is `text`."""
    found = FIRST_USE_CASE.search(text)
    view = ["table", "exceptions", model, "--usecase", found[1] if found else "Missing"]
    return [*([*command, model] for command in COMMANDS), view]


def record(src: Path, argv: list[str], cwd: Path) -> str:
    """Exit code, then the digest and length of stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, "-m", "ucm.cli", *argv], cwd=cwd, env=env, capture_output=True, timeout=300
    )
    streams = " ".join(f"{hashlib.sha256(out).hexdigest()} {len(out)}" for out in (done.stdout, done.stderr))
    return f"exit {done.returncode} {streams}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, help="the first tree's src/ directory")
    parser.add_argument("new", type=Path, help="the second tree's src/ directory")
    args = parser.parse_args()
    trees = [args.old.resolve(), args.new.resolve()]
    for tree in trees:
        if not (tree / "ucm" / "cli.py").is_file():
            parser.error(f"{tree} holds no ucm/cli.py")
    differ = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        for model in write_models(cwd):
            for argv in model_commands(model, (cwd / model).read_text(encoding="utf-8")):
                old, new = (record(tree, argv, cwd) for tree in trees)
                label = " ".join(argv)
                total += 1
                if old == new:
                    print(f"same {old} {label}")
                else:
                    differ += 1
                    print(f"DIFF {old} {label}\n  != {new}")
    print(f"{differ} of {total} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
