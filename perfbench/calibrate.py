"""Machine-speed reference: a fixed pure-Python workload that uses no ucm
code, so no change to the program can move it.

It does the kind of work the compiler does on a constant input: regex
scanning, small objects, dict lookups, sorting and string building, plus
the line recounting from offset 0 that dominates the lexer today. On the shared
machines this benchmark runs on, the speed of the whole machine drifts by
up to 1.7x between runs minutes apart, so raw seconds do not repeat. Each
command sample is therefore divided by the reference time measured right
around it (set-up time by the run's median reference time), and reported
as seconds on a machine where the reference takes exactly NOMINAL_S.
"""

from __future__ import annotations

import gc
import re
import time

NOMINAL_S = 0.01

_TOKEN = re.compile(r"\s+|//[^\n]*|[A-Za-z_][A-Za-z0-9_]*|\d+|\"[^\"]*\"|->|::|[:,.{}]")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|\"[^\"]*\"")
_TEXT = "\n".join(
    f'usecase U{i % 97} {{ {i}. A{i % 13} -> System : "step {i} of {i % 7}" // note {i}'
    for i in range(300)
)
_SCAN_CHARS = 8000


def reference_work() -> int:
    lines = sum(_TEXT.count("\n", 0, m.start()) for m in _WORD.finditer(_TEXT, 0, _SCAN_CHARS))
    tokens = [(m.lastindex, m.group(), m.start()) for m in _TOKEN.finditer(_TEXT)]
    words = [text for _, text, _ in tokens if text.strip()]
    index: dict[str, list[int]] = {}
    for position, word in enumerate(words):
        index.setdefault(word, []).append(position)
    ranked = sorted(index.items(), key=lambda item: (-len(item[1]), item[0]))
    rendered = "\n".join(f"{word}: {', '.join(map(str, spots[:5]))}" for word, spots in ranked)
    return len(rendered) + len(tokens) + lines


def sample() -> float:
    """Seconds for one reference run, timed like a benchmark sample."""
    gc.collect()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def normalized(seconds: float, reference_s: float) -> float:
    """`seconds` as it would read on the nominal machine."""
    return seconds * NOMINAL_S / reference_s

