from __future__ import annotations

import gc
import importlib.util
import time
from pathlib import Path

import pytest

from ucm.parser import parse, parse_file
from ucm.resolver import resolve
from ucm.validation import validate

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "corpus"

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance_report():
    """Record a one-line pass notice for an acceptance criterion; lines are
    echoed in the terminal summary."""

    def report(criterion: int, text: str) -> None:
        _acceptance_lines.append(f"ACCEPTANCE {criterion}: PASS - {text}")

    return report


def pytest_runtest_logreport(report):
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        _acceptance_lines.append(f"ACCEPTANCE ({report.nodeid.split('::')[-1]}): FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def pipeline(source: str, file: str = "fixture.ucm"):
    """parse + resolve + validate; returns every diagnostic in one list."""
    model, parse_diags = parse(source, file)
    if model is None:
        return None, parse_diags
    resolved, resolve_diags = resolve(model)
    return resolved, resolve_diags + validate(resolved)


@pytest.fixture(scope="session")
def smartstore():
    model, diags = parse_file(CORPUS / "smartstore.ucm")
    assert model is not None, [d.message for d in diags]
    return model


@pytest.fixture(scope="session")
def smartstore_resolved(smartstore):
    resolved, diags = resolve(smartstore)
    assert diags == []
    return resolved


@pytest.fixture(scope="session")
def firealarm():
    model, diags = parse_file(CORPUS / "firealarm.ucm")
    assert model is not None, [d.message for d in diags]
    return model


@pytest.fixture(scope="session")
def firealarm_resolved(firealarm):
    resolved, diags = resolve(firealarm)
    assert diags == []
    return resolved


def chain_source(depth: int) -> str:
    """A linear invocation chain U0 -> U1 -> ... -> U(depth-1) whose last use
    case raises SoftwareException::Boom, which handler H handles. Use cases
    carry no descriptive fields, so the model checks with E001 errors only,
    which block no table."""
    parts = ["model Chain\nmodes { default normal Normal }\nexceptions { exception SoftwareException::Boom }\n"]
    for i in range(depth - 1):
        parts.append(f"usecase U{i} {{\n  main {{\n    1. invoke U{i + 1}\n    outcome success\n  }}\n}}\n")
    parts.append(
        f"usecase U{depth - 1} {{\n  main {{\n    1. raise SoftwareException::Boom\n    outcome success\n  }}\n}}\n"
        f"handler H {{\n  contexts: U{depth - 1} on SoftwareException::Boom interrupt-fail\n"
        "  main {\n    1. internal \"recover\"\n    outcome success\n  }\n}\n"
    )
    return "".join(parts)


def diamond_chain_source(depth: int) -> str:
    """A chain of `depth` width-2 diamonds: J(i-1) invokes A(i) and B(i),
    which both invoke J(i), so 2**depth invocation paths lead from the root
    J0 to J(depth), which raises SoftwareException::Deep; handler Fix handles
    it. Like `chain_source`, use cases carry no descriptive fields."""

    def usecase(name: str, *steps: str) -> str:
        body = "".join(f"    {n}. {step}\n" for n, step in enumerate(steps, 1))
        return f"usecase {name} {{\n  main {{\n{body}    outcome success\n  }}\n}}\n"

    parts = ["model Diamonds\nmodes { default normal Normal }\nexceptions { exception SoftwareException::Deep }\n"]
    for i in range(depth):
        parts.append(usecase(f"J{i}", f"invoke A{i + 1}", f"invoke B{i + 1}"))
        parts += [usecase(f"{x}{i + 1}", f"invoke J{i + 1}") for x in "AB"]
    parts.append(usecase(f"J{depth}", "raise SoftwareException::Deep"))
    parts.append(
        f"handler Fix {{\n  contexts: J{depth} on SoftwareException::Deep interrupt-fail\n"
        '  main {\n    1. internal "recover"\n    outcome success\n  }\n}\n'
    )
    return "".join(parts)


def report_script():
    """scripts/generate_reports.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("generate_reports", REPO_ROOT / "scripts" / "generate_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nested_blocks_source(depth: int) -> str:
    """A use case whose extensions nest `depth` blocks, each one hanging off
    the first step of the block around it; the innermost block raises
    HardwareException::X. Labels grow by two characters per level."""
    head = (
        "model Deep\nmodes { default normal Normal }\nexceptions { exception HardwareException::X }\n"
        'usecase A {\n  scope: "s"\n  level: user-goal\n  intention: "i"\n  multiplicity: "m"\n'
        '  primary: Human::P\n  main {\n    1. P -> System : "go"\n    outcome success\n  }\n  extensions {\n'
    )
    opening, closing, anchor = [], [], "1"
    for level in range(1, depth + 1):
        label, pad = f"{anchor}a", "  " * (level + 1)
        if level < depth:
            opening.append(f'{pad}block {label} alternative {{\n{pad}  {label}1. P -> System : "step"\n')
            closing.append(f"{pad}  outcome success\n{pad}}}\n")
        else:
            opening.append(
                f"{pad}block {label} exceptional {{\n{pad}  {label}1. raise HardwareException::X\n"
                f"{pad}  outcome failure\n{pad}}}\n"
            )
        anchor = f"{label}1"
    return head + "".join(opening) + "".join(reversed(closing)) + "  }\n}\n"


def wide_use_case_source(n: int) -> str:
    """One user-goal use case with `n` primary actors A0..A(n-1) and `n`
    interactions, one with each actor. It checks clean."""
    actors = ", ".join(f"Human::A{i}" for i in range(n))
    steps = "".join(f'    {i + 1}. A{i} -> System : "asks"\n' for i in range(n))
    return (
        "model Wide\nmodes { default normal Normal }\nexceptions { }\n"
        f'usecase U {{\n  scope: "s"\n  level: user-goal\n  intention: "i"\n  multiplicity: "m"\n'
        f"  primary: {actors}\n  main {{\n{steps}    outcome success\n  }}\n}}\n"
    )


def many_actors_source(n: int) -> str:
    """`n` use cases U0..U(n-1), each with an actor of its own."""
    parts = ["model Many\nmodes { default normal Normal }\nexceptions { }\n"]
    for i in range(n):
        parts.append(
            f'usecase U{i} {{\n  primary: Human::A{i}\n  main {{\n    1. A{i} -> System : "asks"\n'
            "    outcome success\n  }\n}\n"
        )
    return "".join(parts)


_RECOVER = '  main {\n    1. internal "recover"\n    outcome success\n  }\n}\n'
_HEAD_X = "modes { default normal Normal }\nexceptions { exception SoftwareException::X }\n"


def hub_source(n: int) -> str:
    """Use case Hub invokes `n` leaves L0..L(n-1), the last leaf raises
    SoftwareException::X, and `n` handlers H0..H(n-1) each have the context
    `Hub on SoftwareException::X`."""
    invokes = "".join(f"    {i + 1}. invoke L{i}\n" for i in range(n))
    parts = [f"model Hub\n{_HEAD_X}usecase Hub {{\n  main {{\n{invokes}    outcome success\n  }}\n}}\n"]
    for i in range(n):
        step = "raise SoftwareException::X" if i == n - 1 else 'internal "leaf"'
        parts.append(f"usecase L{i} {{\n  main {{\n    1. {step}\n    outcome success\n  }}\n}}\n")
    for i in range(n):
        parts.append(f"handler H{i} {{\n  contexts: Hub on SoftwareException::X interrupt-fail\n{_RECOVER}")
    return "".join(parts)


def fan_source(n: int) -> str:
    """Use case Hub invokes `n` leaves L0..L(n-1), each of which raises
    SoftwareException::X, and handler H has the context `Hub on
    SoftwareException::X`."""
    invokes = "".join(f"    {i + 1}. invoke L{i}\n" for i in range(n))
    parts = [f"model Fan\n{_HEAD_X}usecase Hub {{\n  main {{\n{invokes}    outcome success\n  }}\n}}\n"]
    for i in range(n):
        parts.append(f"usecase L{i} {{\n  main {{\n    1. raise SoftwareException::X\n    outcome success\n  }}\n}}\n")
    parts.append(f"handler H {{\n  contexts: Hub on SoftwareException::X interrupt-fail\n{_RECOVER}")
    return "".join(parts)


def wide_handler_source(n: int) -> str:
    """`n` use cases U0..U(n-1), each raising SoftwareException::X, and one
    handler H with a context on each of them."""
    parts = [f"model WideHandler\n{_HEAD_X}"]
    for i in range(n):
        parts.append(f"usecase U{i} {{\n  main {{\n    1. raise SoftwareException::X\n    outcome success\n  }}\n}}\n")
    contexts = ", ".join(f"U{i} on SoftwareException::X interrupt-fail" for i in range(n))
    parts.append(f"handler H {{\n  contexts: {contexts}\n{_RECOVER}")
    return "".join(parts)


def wide_block_source(n: int) -> str:
    """One use case U whose alternative block 1a raises SoftwareException::X
    `n` times; handler H handles it."""
    raises = "".join(f"        1a{i + 1}. raise SoftwareException::X\n" for i in range(n))
    return (
        f"model WideBlock\n{_HEAD_X}"
        'usecase U {\n  main {\n    1. P -> System : "go"\n    outcome success\n  }\n'
        f"  extensions {{\n    block 1a alternative {{\n{raises}        outcome failure\n    }}\n  }}\n}}\n"
        f"handler H {{\n  contexts: U on SoftwareException::X interrupt-fail\n{_RECOVER}"
    )


def growth(run, small, large) -> float:
    """How many times longer `run(large)` takes than `run(small)`, each the
    best of 3 runs, so that one slow run on a busy machine does not count.
    Like `timeit`, each run is timed with the garbage collector off: a full
    collection walks every object of the test process, so how many of them
    a large run meets depends on the tests before it, not on the code."""

    def best(arg) -> float:
        times = []
        for _ in range(3):
            gc.disable()
            try:
                started = time.perf_counter()
                run(arg)
                times.append(time.perf_counter() - started)
            finally:
                gc.enable()
        return min(times)

    return best(large) / best(small)
