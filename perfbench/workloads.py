"""Deterministic workload generators for the ucm pipeline benchmark.

Every generator takes a seed and size parameters and returns a `Workload`:
the model text plus everything a correct compiler must print for it, derived
from how the model was built (never from an earlier run of the compiler).
The seed only renames things and picks defect sites; sizes, and so the
amount of work, are fixed by the parameters.
"""

from __future__ import annotations

import random
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMARTSTORE = ROOT / "corpus" / "smartstore.ucm"

# Full-size parameters, used by the measured runs. One store copy keeps the
# samples short enough for 40 to 50 per metric in a 30 s run; its commands
# still take about 15 ms once lexing is linear.
STORE_K = 1
DIAMOND_D = 13
DIAMOND_SITES = (13, 11, 9, 7)
# Smallest sizes, used by the smoke self-test.
SMOKE_SIZES = {
    "store_scaled": {"k": 1},
    "diamond_paths": {"d": 4, "sites": (4, 2)},
    "faulty_models": {"k": 1},
}

# Acceptance criteria 1-2 of the smart-store corpus: each sensor exception
# raised in IdentifyItem is reached by exactly these invocation sequences.
SENSOR_EXCEPTIONS = ("TagUnavailable", "PressureUndetected", "WeightUnavailable")
SENSOR_SEQUENCES = (
    ("UseSmartStore", "Shopping", "AddToCart", "IdentifyItem"),
    ("UseSmartStore", "Shopping", "AddToCart", "RemoveItem", "IdentifyItem"),
    ("UseSmartStore", "Shopping", "ExitStore", "ScanMobileDeviceOnExit", "PayBill", "RemoveItem", "IdentifyItem"),
)
SERVICE_SENSOR_PATHS = 9

# Every mode switch of one smart-store copy, in document order, as
# (use case, location, mode in effect, target mode).
STORE_MODE_SWITCHES = (
    ("Shopping", "block 2-4a-begin", "Normal", "FireEmergency"),
    ("Shopping", "block 2-4b-begin", "Normal", "ExternalAttackEmergency"),
    ("EnterStore", "block 4b-begin", "Normal", "RestrictedEntry"),
    ("EnterStore", "block 4b-end", "RestrictedEntry", "Normal"),
    ("ExitStore", "block 1-4a-begin", "Normal", "FireEmergency"),
    ("ExitStore", "block 1-4b-begin", "Normal", "ExternalAttackEmergency"),
    ("MaintainStore", "block 2a-begin", "Normal", "FireEmergency"),
    ("MaintainStore", "block 2b-begin", "Normal", "ExternalAttackEmergency"),
    ("CheckOut", "block 1-3a-begin", "Normal", "FireEmergency"),
    ("CheckOut", "block 1-3b-begin", "Normal", "ExternalAttackEmergency"),
    ("HandleFireHazard", "main-end", "FireEmergency", "Normal"),
    ("AlertOnAttack", "main-end", "ExternalAttackEmergency", "Normal"),
)

# Codes the resolver reports; any of them blocks `ucm table`.
RESOLUTION_CODES = frozenset({"E003", "E004", "E012", "E013", "E014"})


@dataclass
class Workload:
    """One generated model and what a correct compiler prints for it."""

    name: str
    source: str
    params: dict
    use_cases: int  # use cases plus handlers
    # Clean models: (exception, source use case) -> the exact expected paths
    # (store) or the diamond stage the source sits on (diamond chains).
    exact_paths: dict = field(default_factory=dict)
    diamond_stages: dict = field(default_factory=dict)
    exception_rows: int = 0
    handler_totals: dict = field(default_factory=dict)
    handler_rows: int = 0
    mode_rows: list = field(default_factory=list)
    # Faulty models: expected multiset of diagnostic codes.
    codes: Counter = field(default_factory=Counter)

    @property
    def clean(self) -> bool:
        return not self.codes

    @property
    def resolution_codes(self) -> Counter:
        return Counter({c: n for c, n in self.codes.items() if c in RESOLUTION_CODES})


def _suffixes(rng: random.Random, k: int) -> list[str]:
    """k distinct, equally long name suffixes."""
    out: list[str] = []
    while len(out) < k:
        sfx = "_" + "".join(rng.choice(string.ascii_letters) for _ in range(4))
        if sfx not in out:
            out.append(sfx)
    return out


# Strings and comments are matched first so that names inside them are left
# alone; only bare identifiers are renamed.
_WORD = re.compile(r'"(?:[^"\\\n]|\\.)*"|//[^\n]*|[A-Za-z_][A-Za-z0-9_]*')


def _rename(text: str, names: dict[str, str]) -> str:
    return _WORD.sub(lambda m: names.get(m.group(), m.group()), text)


@dataclass
class _Template:
    model_line: str
    modes: str
    exceptions: list[str]  # one declaration line each
    global_exceptions: set[str]
    services: list[tuple[str, list[str]]]
    chunks: list[str]  # one use case or handler each, in document order
    use_case_names: list[str]


def _load_template() -> _Template:
    text = SMARTSTORE.read_text(encoding="utf-8")
    model_line = re.search(r"^model \w+$", text, re.M).group()
    modes = re.search(r"^modes \{\n.*?^\}\n", text, re.M | re.S).group()
    exc_block = re.search(r"^exceptions \{\n(.*?)^\}\n", text, re.M | re.S).group(1)
    exceptions = [line.strip() for line in exc_block.splitlines() if line.strip()]
    global_exceptions = {
        re.search(r"::(\w+)", line).group(1) for line in exceptions if line.endswith(" global")
    }
    svc_block = re.search(r"^services \{\n(.*?)^\}\n", text, re.M | re.S).group(1)
    services = []
    for line in svc_block.splitlines():
        m = re.match(r"\s*service (\w+) provides (.*)$", line)
        if m:
            services.append((m.group(1), [g.strip() for g in m.group(2).split(",")]))
    body = text[re.search(r"^(usecase|handler) ", text, re.M).start():]
    chunks = [c.rstrip("\n") + "\n" for c in re.split(r"\n(?=(?:usecase|handler) )", body)]
    names = [re.match(r"(?:usecase|handler) (\w+)", c).group(1) for c in chunks]
    return _Template(model_line, modes, exceptions, global_exceptions, services, chunks, names)


def _exception_names(tpl: _Template) -> list[str]:
    return [re.search(r"::(\w+)", line).group(1) for line in tpl.exceptions]


def _store_text(tpl: _Template, suffixes: list[str], copies: list[list[str]]) -> str:
    """Assemble the header and the already renamed per-copy chunks."""
    exc_names = _exception_names(tpl)
    out = [tpl.model_line, "", tpl.modes, "exceptions {"]
    for sfx in suffixes:
        names = {n: n + sfx for n in exc_names}
        out.extend(f"  {_rename(line, names)}" for line in tpl.exceptions)
    out += ["}", "", "services {"]
    for svc, goals in tpl.services:
        out.append(f"  service {svc} provides " + ", ".join(g + s for s in suffixes for g in goals))
    out += ["}", ""]
    for chunks in copies:
        out.extend(chunks)
    return "\n".join(out)


def _copy_names(tpl: _Template, sfx: str) -> dict[str, str]:
    return {n: n + sfx for n in tpl.use_case_names + _exception_names(tpl)}


def _store_expectations(wl: Workload, tpl: _Template, suffixes: list[str]) -> None:
    raises = [re.findall(r"\. raise \w+::(\w+)", c) for c in tpl.chunks]
    local_sites = sum(1 for r in raises for e in r if e not in tpl.global_exceptions)
    raised_globals = {e for r in raises for e in r if e in tpl.global_exceptions}
    handlers = [c for c in tpl.chunks if c.startswith("handler ")]
    wl.exception_rows = len(suffixes) * (local_sites + len(raised_globals))
    wl.handler_rows = len(suffixes) * len(handlers)
    for sfx in suffixes:
        for exc in SENSOR_EXCEPTIONS:
            key = (f"HardwareException::{exc}{sfx}", f"IdentifyItem{sfx}")
            wl.exact_paths[key] = [tuple(n + sfx for n in seq) for seq in SENSOR_SEQUENCES]
        wl.handler_totals[f"ServiceSensor{sfx}"] = SERVICE_SENSOR_PATHS
        wl.mode_rows += [(uc + sfx, loc, a, b) for uc, loc, a, b in STORE_MODE_SWITCHES]


def store_scaled(seed: int, k: int = STORE_K) -> Workload:
    """The smart-store corpus replicated k times; use cases, handlers and
    exceptions carry a per-copy suffix, so copies never share a name."""
    tpl = _load_template()
    suffixes = _suffixes(random.Random(seed), k)
    copies = [[_rename(c, _copy_names(tpl, sfx)) for c in tpl.chunks] for sfx in suffixes]
    wl = Workload("store_scaled", _store_text(tpl, suffixes, copies), {"k": k}, k * len(tpl.chunks))
    _store_expectations(wl, tpl, suffixes)
    return wl


# -- faulty models ---------------------------------------------------------------
#
# Each defect kind rewrites one span of one use case so that the checker
# reports exactly one diagnostic with a known code and nothing else changes:
# the base model is clean, every handler context raises its exception
# directly (so a broken invocation cannot cause E007), and E013 only ever
# replaces a switch to the default mode (so no W003 can follow).


def _spans(pattern: str, group: int = 0, only: str | None = None):
    """Site finder: the spans of `group` in every match of `pattern`,
    restricted to use cases that match `only`."""
    regex = re.compile(pattern, re.M)

    def sites(chunk: str) -> list[tuple[int, int]]:
        if only is not None and not re.search(only, chunk, re.M):
            return []
        return [m.span(group) for m in regex.finditer(chunk)]

    return sites


def _actor_categories(chunk: str) -> list[tuple[int, int]]:
    """The `Category::` prefix of every actor reference in an actor clause."""
    out = []
    for line in re.finditer(r"^  (?:primary|secondary|facilitator): .*", chunk, re.M):
        for m in re.finditer(r"(?:: |, )(\w+::)\w+", line.group()):
            out.append((line.start() + m.start(1), line.start() + m.end(1)))
    return out


# (code, defects per copy, site finder, replacement). Fixed per-copy counts
# keep the amount of work independent of the seed.
DEFECTS = (
    ("E001", 12, _spans(r"^  scope: .*\n"), ""),
    ("E001", 12, _spans(r"^  intention: .*\n"), ""),
    ("E005", 36, _actor_categories, ""),
    ("E006", 10, _spans(r"\[\d+\.\.(?:\d+|\*)\]"), "[3..2]"),
    ("E010", 20, _spans(r"^ +[0-9][0-9a-z-]*\. (\w+) -> System :", 1, r"^  level: (summary|user-goal)$"), "Intruder"),
    ("E011", 12, _spans(r"^    outcome (success)$", 1), "failure"),
    ("E003", 3, _spans(r"\. invoke (\w+)", 1), "MissingUseCase"),
    ("E012", 4, _spans(r"outcome continue (\d+)", 1), "9"),
    ("E013", 1, _spans(r"mode switch: (Normal)", 1), "UnknownMode"),
)


def _with_defects(chunks: list[str], rng: random.Random) -> list[str]:
    """Apply every defect kind at distinct, seeded sites. Sites of different
    kinds never overlap, so edits are planned on the clean chunks and applied
    back to front to keep offsets valid."""
    edits: dict[int, list[tuple[int, int, str]]] = {}
    for _, count, sites, replacement in DEFECTS:
        candidates = [(i, s, e) for i, c in enumerate(chunks) for s, e in sites(c)]
        for i, s, e in rng.sample(candidates, count):
            edits.setdefault(i, []).append((s, e, replacement))
    out = list(chunks)
    for i, spans in edits.items():
        for s, e, replacement in sorted(spans, reverse=True):
            out[i] = out[i][:s] + replacement + out[i][e:]
    return out


def faulty_models(seed: int, k: int = STORE_K) -> Workload:
    """store_scaled with seeded semantic and resolution defects; the
    generator records the code each defect must produce."""
    tpl = _load_template()
    rng = random.Random(seed)
    suffixes = _suffixes(rng, k)
    copies = [[_rename(c, _copy_names(tpl, sfx)) for c in _with_defects(tpl.chunks, rng)] for sfx in suffixes]
    wl = Workload("faulty_models", _store_text(tpl, suffixes, copies), {"k": k}, k * len(tpl.chunks))
    for code, count, _, _ in DEFECTS:
        wl.codes[code] += k * count
    wl.params["defects"] = dict(sorted(wl.codes.items()))
    return wl


# -- diamond chains -------------------------------------------------------------


def diamond_paths(seed: int, d: int = DIAMOND_D, sites: tuple[int, ...] = DIAMOND_SITES) -> Workload:
    """A chain of d width-2 diamonds: join J(i-1) invokes A(i) and B(i), and
    both invoke J(i), so 2**s invocation paths lead from the root J0 to J(s).
    Each join in `sites` raises its own exception in a block that switches
    to Degraded, and one handler per exception switches back to Normal."""
    rng = random.Random(seed)
    prefix = "".join(rng.choice(string.ascii_uppercase) for _ in range(3))

    def name(kind: str, i: int) -> str:
        return f"{prefix}{kind}{i:02d}"

    def use_case(uc: str, steps: list[str], block: str = "") -> str:
        lines = [
            f"usecase {uc} {{",
            '  scope: "Diamond chain"',
            "  level: sub-function",
            f'  intention: "Stage work of {uc}"',
            '  multiplicity: "one run at a time"',
            "  primary: Device::Controller",
            "  main {",
            *(f"    {n}. {step}" for n, step in enumerate(steps, 1)),
            "    outcome success",
            "  }",
        ]
        if block:
            lines += ["  extensions {", block, "  }"]
        return "\n".join(lines + ["}", ""])

    chunks = []
    for i in range(d + 1):
        steps = [f"invoke {name('A', i + 1)}", f"invoke {name('B', i + 1)}"] if i < d else ['internal "starts the sink"'] * 2
        steps.append(f'internal "joins stage {i}"')
        block = ""
        if i in sites:
            block = "\n".join([
                f'    block 3a exceptional when "stage {i} faults" {{',
                "      mode switch: Degraded",
                f"      3a1. raise HardwareException::Fault{i:02d}",
                "      outcome continue 3",
                "    }",
            ])
        chunks.append(use_case(name("J", i), steps, block))
        if i > 0:
            for kind in ("A", "B"):
                chunks.append(use_case(name(kind, i), [f"invoke {name('J', i)}", f'internal "works on stage {i}"']))
    for s in sites:
        chunks.append("\n".join([
            f"handler {name('H', s)} {{",
            '  scope: "Diamond chain"',
            "  level: sub-function",
            f'  intention: "Recover stage {s}"',
            '  multiplicity: "one recovery at a time"',
            "  primary: Device::Controller",
            f"  contexts: {name('J', s)} on HardwareException::Fault{s:02d} interrupt-continue",
            "  main {",
            f'    1. internal "recovers stage {s}"',
            "    mode switch: Normal",
            "    outcome success",
            "  }",
            "}",
            "",
        ]))
    rng.shuffle(chunks)
    header = [
        "model DiamondChain",
        "",
        "modes {",
        "  default normal Normal",
        "  degraded Degraded",
        "}",
        "",
        "exceptions {",
        *(f"  exception HardwareException::Fault{s:02d}" for s in sorted(sites)),
        "}",
        "",
    ]
    wl = Workload(
        "diamond_paths", "\n".join(header + chunks), {"d": d, "sites": list(sites), "prefix": prefix},
        3 * d + 1 + len(sites),
    )
    wl.exception_rows = wl.handler_rows = len(sites)
    for s in sites:
        wl.diamond_stages[(f"HardwareException::Fault{s:02d}", name("J", s))] = s
        wl.handler_totals[name("H", s)] = 2**s
    # Mode switches in document order: the shuffled chunk order decides it.
    for chunk in chunks:
        m = re.match(r"(usecase|handler) (\w+)", chunk)
        if "mode switch: Degraded" in chunk:
            wl.mode_rows.append((m.group(2), "block 3a-begin", "Normal", "Degraded"))
        elif m.group(1) == "handler":
            wl.mode_rows.append((m.group(2), "main-end", "Degraded", "Normal"))
    return wl


def diamond_path_pattern(prefix: str, stage: int) -> re.Pattern:
    """Matches exactly the 2**stage printed paths J00 -> X01 -> J01 -> ... ->
    X(s) -> J(s) from the root to join J(s), each X being A or B."""
    parts = [f"{prefix}J00"]
    for i in range(1, stage + 1):
        parts += [f"{prefix}[AB]{i:02d}", f"{prefix}J{i:02d}"]
    return re.compile(" -> ".join(parts))


GENERATORS = {"store_scaled": store_scaled, "diamond_paths": diamond_paths, "faulty_models": faulty_models}
