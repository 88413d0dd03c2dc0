"""Invocation-graph analysis and generated summaries.

Builds the directed graph of `invoke` steps between non-handler use cases
and derives the exception, handler, mode-switch and mode-service summaries
from a resolved model. One depth-first search at construction gives the
graph's topological order and, on a cyclic graph, the witness cycle that
aborts path-based summaries with E015. Path totals are counted in one pass
over that order, without listing paths. Only the paths the exception table
prints are listed: a walk back from the raise site, over the callers those
counts show a start reaches and never above a start, finds the nodes on
them, and each gets its paths to the site once, as a head and a list of texts
shared by all its callers. A node with one callee on those paths shares that
callee's list under a longer head, and the starts lay their callees' lists
out as one list of parts, heads and texts, joined once into the printed cell,
so the work is bounded by the printed text. A row keeps that one text, which
the table prints as it is; only reading a row's `paths` splits it into
`PathRecord`s. More than `MAX_PATH_NODES` path nodes in an exception table
abort it with E016 before any is listed. `TABLES` maps each `ucm table` kind to its builder, for the
CLI and the report script alike.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import NamedTuple

from .diagnostics import Diagnostic
from .export import SummaryTable
from .model import (
    ExceptionDef,
    ExtensionBlock,
    Interaction,
    Model,
    Scenario,
    UseCase,
)
from .resolver import RaiseSite, ResolvedModel, reachable_use_cases
from .spans import SourceSpan, ZERO_SPAN

GLOBAL_SOURCE = "(global)"
#: Most path nodes the exception table lists; more is E016.
MAX_PATH_NODES = 2**24


class Edge(NamedTuple):
    caller: str
    callee: str
    at_step: str
    span: SourceSpan = ZERO_SPAN

    def __str__(self) -> str:
        return f"{self.caller} -> {self.callee} (step {self.at_step})"


class InvocationGraph:
    """Non-handler use cases and one edge per invocation step; parallel
    invocations of the same target are distinct edges.

    Construction derives what the analyses read: each node's distinct callees
    in name order and its distinct callers in node order, each with its number
    of parallel edges, and the roots. One depth-first search, from the nodes
    in order and over each node's distinct callees in the order of their first
    edge, gives `order`, its reverse post-order, and `cycle`, the nodes around
    its first back edge with the first node repeated at the end, or None. On
    an acyclic graph `order` is topological."""

    def __init__(self, nodes: list[str], edges: list[Edge]) -> None:
        self.nodes = nodes
        self.edges = edges
        out: dict[str, dict[str, int]] = {n: {} for n in nodes}  # callees in first-edge order
        for edge in edges:
            callees = out[edge.caller]
            callees[edge.callee] = callees.get(edge.callee, 0) + 1
        self.callees = {n: sorted(callees.items()) for n, callees in out.items()}
        self.callers: dict[str, list[tuple[str, int]]] = {n: [] for n in nodes}
        for node, callees in out.items():
            for callee, k in callees.items():
                self.callers[callee].append((node, k))
        self.roots = [n for n, callers in self.callers.items() if not callers]
        self.cycle: list[str] | None = None
        depth: dict[str, int] = {}  # a node's place on the stack while on it, then -1
        self.order: list[str] = []
        for start in out:
            if start in depth:
                continue
            depth[start] = 0
            stack = [(start, iter(out[start]))]
            while stack:
                node, callees = stack[-1]
                for callee in callees:
                    at = depth.get(callee)
                    if at is None:
                        depth[callee] = len(stack)
                        stack.append((callee, iter(out[callee])))
                        break
                    if at >= 0 and self.cycle is None:
                        self.cycle = [n for n, _ in stack[at:]] + [callee]
                else:
                    stack.pop()
                    depth[node] = -1
                    self.order.append(node)
        self.order.reverse()


class PathRecord(str):
    """A simple path through the invocation graph as its printed text, use-case
    names joined by `` -> ``, made when a row's `paths` is read. Names are
    identifiers, so the text and `use_cases` determine each other."""

    __slots__ = ()

    @property
    def use_cases(self) -> tuple[str, ...]:
        return tuple(self.split(" -> "))


def _records(text: str) -> list[PathRecord]:
    """The paths of a printed Paths cell, whose path texts are joined by
    ``; ``. Names are identifiers, so no path holds ``; ``."""
    return [PathRecord(path) for path in text.split("; ")] if text else []


class AnalysisError(Exception):
    """Raised when a path-based summary cannot be given; carries the
    diagnostic: E015 for an invocation cycle, E016 for more path nodes than
    `MAX_PATH_NODES`."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class InvocationCycleError(AnalysisError):
    """Raised when path analysis meets a cycle; the E015 diagnostic names one
    witness cycle."""


def build_invocation_graph(resolved: ResolvedModel) -> InvocationGraph:
    """The use cases that names resolve to (`use_case_by_name`, the first
    declaration of each name), less the handlers, and their invocations of
    one another, in declaration order."""
    callers = [uc for uc in resolved.use_case_by_name.values() if not uc.is_handler]
    edges = [
        Edge(uc.name, target.name, step.label.text, step.span)
        for uc in callers
        for step, target in resolved.invocations_of(uc)
        if not target.is_handler
    ]
    return InvocationGraph([uc.name for uc in callers], edges)


def ensure_acyclic(graph: InvocationGraph) -> None:
    """Raise InvocationCycleError (E015) naming the graph's witness cycle, at
    the first edge from its first node to its second. The cycle is cut from
    the search stack, so those two nodes are always joined by an edge."""
    cycle = graph.cycle
    if cycle is not None:
        witness = " -> ".join(cycle)
        span = next(edge.span for edge in graph.edges if edge.caller == cycle[0] and edge.callee == cycle[1])
        raise InvocationCycleError(Diagnostic("E015", f"invocation cycle detected: {witness}", span))


def _path_totals(graph: InvocationGraph, starts: Iterable[str]) -> tuple[dict[str, int], dict[str, int]]:
    """For every node, the number of paths from the `starts` to it and the
    number of nodes on those paths, as `_paths_between` lists them: a start
    is one path of one node, and each of k parallel edges u -> v adds u's
    paths to v's, and u's path nodes plus one per path to v's. One pass over
    the topological order of an acyclic graph, O(V+E)."""
    counts = dict.fromkeys(graph.callees, 0)
    sizes = dict.fromkeys(graph.callees, 0)
    for start in starts:
        counts[start] = sizes[start] = 1
    for node in graph.order:
        for callee, k in graph.callees[node]:
            counts[callee] += k * counts[node]
            sizes[callee] += k * (sizes[node] + counts[node])
    return counts, sizes


def path_counts(graph: InvocationGraph) -> dict[str, int]:
    """Exact number of root-to-node paths for every node, as counted by
    `enumerate_paths`: a root counts 1 for itself and each parallel edge
    contributes its own paths. Raises InvocationCycleError (E015) on cyclic
    graphs."""
    ensure_acyclic(graph)
    return _path_totals(graph, graph.roots)[0]


def _paths_between(graph: InvocationGraph, starts: set[str], counts: dict[str, int], target: str) -> str:
    """The printed text of all paths from the `starts` to `target` in an
    acyclic graph: each path's node names joined by `` -> ``, the paths
    joined by ``; `` in lexicographic order; a path over k parallel edges is
    listed k times, the copies next to each other. `counts` are the starts'
    `_path_totals` counts.

    One depth-first walk back from `target` finds the live nodes, those on a
    path from a start to it: it follows only callers with a non-zero count,
    and never a start's callers, as no start reaches another. It notes each
    live node's live callees and number of live callers; its post-order,
    reversed, puts callees first. In that order each live node gets its paths
    to `target` as a pair: a head and a list of texts, each path being the
    head followed by one text, built from its callees' pairs taken in name
    order, so the texts come out sorted with no sort of texts and no
    recursion. A node with one live callee (over k parallel edges, each text
    k times) shares that callee's texts and only puts itself in front of the
    head; a node with more builds a new list. A start builds no per-path
    string: it keeps its callees' pairs, and the cell is one join of one list
    of parts, the starts in name order and, for each pair, the separator and
    head before each text; a slice assignment puts the texts between the
    heads. A callee's pair is dropped once its last live caller has read it."""
    if target in starts:  # no start reaches another, so no other path leads here
        return target
    reaches: dict[str, list[tuple[str, int]]] = {target: []}  # each live node: its live callees
    readers: dict[str, int] = {}  # live callers of each live node
    order: list[str] = []  # live nodes, callers before callees
    stack = [(target, iter(graph.callers[target]))]
    while stack:
        node, callers = stack[-1]
        for caller, k in callers:
            if counts[caller]:
                readers[node] = readers.get(node, 0) + 1
                if caller not in reaches:
                    reaches[caller] = [(node, k)]
                    stack.append((caller, iter(() if caller in starts else graph.callers[caller])))
                    break
                reaches[caller].append((node, k))
        else:
            stack.pop()
            order.append(node)

    pairs: dict[str, tuple[str, list[str]]] = {target: (target, [""])}
    pieces: dict[str, list[tuple[str, list[str]]]] = {}  # each start's pairs, one per live callee
    order.pop()  # the target, which the walk leaves last
    for node in reversed(order):
        edges = []  # the node's paths through each live callee, as (head, texts)
        for callee, k in sorted(reaches[node]):
            head, texts = pairs[callee]
            edges.append((f"{node} -> {head}", texts if k == 1 else [t for t in texts for _ in range(k)]))
            readers[callee] -= 1
            if not readers[callee]:
                del pairs[callee]
        if node in starts:
            pieces[node] = edges
        elif len(edges) == 1:
            pairs[node] = edges[0]
        else:
            pairs[node] = ("", [head + text for head, texts in edges for text in texts])
    parts: list[str] = []  # each path as its separator and head, then its text
    for start in sorted(pieces):
        for head, texts in pieces[start]:
            at = len(parts)
            parts += ["; " + head] * (2 * len(texts))
            parts[at + 1 :: 2] = texts
    if parts:  # none when only a handler leads to the target
        parts[0] = parts[0][2:]  # the first path has no separator
    return "".join(parts)


def enumerate_paths(graph: InvocationGraph, target: str) -> list[PathRecord]:
    """All simple root-to-target paths, ordered lexicographically by node
    sequence. Raises ValueError for an unknown target and
    InvocationCycleError (E015) on cyclic graphs."""
    if target not in graph.nodes:
        raise ValueError(f"unknown use case '{target}'")
    return _records(_paths_between(graph, set(graph.roots), path_counts(graph), target))


# -- exception summary ------------------------------------------------------


class ExceptionSummaryRow(NamedTuple):
    exception: str
    is_global: bool
    source_use_case: str
    handlers: list[str]
    situations: list[str]
    participating_actors: list[str]
    paths_text: str  # the Paths cell as printed

    @property
    def paths(self) -> list[PathRecord]:
        """A new list of the row's paths, split from `paths_text`."""
        return _records(self.paths_text)


def _exception_row(
    resolved: ResolvedModel,
    exc: ExceptionDef,
    sites: list[RaiseSite],
    paths_text: str,
    block_actors: dict[int, dict[str, None]],
) -> ExceptionSummaryRow:
    """The row of a global exception's raise sites, or of one site of
    another exception: the distinct guards of their raising blocks as the
    situations, and as the participating actors the distinct non-System
    endpoints of the interactions inside those blocks and in the steps the
    blocks are anchored to, each in order of first appearance. A block's
    actors are collected once into `block_actors`, keyed by its id."""
    situations: dict[str, None] = {}
    actors: dict[str, None] = {}
    for site in sites:
        block = site.block
        if block is None:
            continue
        if block.guard:
            situations[block.guard] = None
        if id(block) not in block_actors:
            found: dict[str, None] = {}
            for step in block.steps() + site.anchored_steps:  # the sites of one block share these
                if isinstance(step.payload, Interaction):
                    found.update(dict.fromkeys((step.payload.source, step.payload.target)))
            found.pop("System", None)
            block_actors[id(block)] = found
        actors.update(block_actors[id(block)])
    return ExceptionSummaryRow(
        exc.qualified_name,
        exc.is_global,
        GLOBAL_SOURCE if exc.is_global else sites[0].use_case.name,
        list(resolved.handlers_by_exception.get(exc.qualified_name, ())),
        list(situations),
        list(actors),
        paths_text,
    )


def exception_summary(resolved: ResolvedModel, view: str | None = None) -> list[ExceptionSummaryRow]:
    """Global view (view=None): one row per occurrence of a non-global
    exception, with all root paths to the occurrence's use case; each raised
    global exception collapses to a single ``(global)`` row without paths.

    Use-case view (view=name): occurrences within the named use case or
    anything it reaches, paths re-rooted at the viewed use case; global
    exceptions keep their single pathless row.
    """
    graph = build_invocation_graph(resolved)
    ensure_acyclic(graph)

    reach: set[str] | None = None
    if view is not None:
        uc = resolved.use_case_by_name.get(view)
        if uc is None or uc.is_handler:
            raise ValueError(f"unknown use case '{view}'")
        reach = reachable_use_cases(resolved, view)

    starts = set(graph.roots) if view is None else {view}
    counts, sizes = _path_totals(graph, starts)
    printed = 0  # path nodes of the rows so far
    listed: dict[str, str] = {}  # paths text per source use case, shared by its rows
    block_actors: dict[int, dict[str, None]] = {}
    rows = []
    for name, exc in resolved.exception_by_qualified_name.items():
        exc_sites = resolved.sites_by_exception.get(name, [])
        if exc.is_global:
            if exc_sites:
                rows.append(_exception_row(resolved, exc, exc_sites, "", block_actors))
            continue
        for site in exc_sites:
            source = site.use_case.name
            if reach is not None and source not in reach:
                continue
            paths = ""
            if source in counts:  # a use case, not a handler, as its name resolves
                printed += sizes[source]
                if printed > MAX_PATH_NODES:
                    raise AnalysisError(Diagnostic(
                        "E016",
                        f"invocation paths too many to list: {printed} path nodes up to this raise site,"
                        f" over the limit of {MAX_PATH_NODES}",
                        site.step.span,
                    ))
                if source not in listed:
                    listed[source] = _paths_between(graph, starts, counts, source)
                paths = listed[source]
            rows.append(_exception_row(resolved, exc, [site], paths, block_actors))
    return rows


# -- handler summary ---------------------------------------------------------


class HandlerSummaryRow(NamedTuple):
    handler: str
    dependent_use_cases: list[str]
    handled_exceptions: list[str]
    actors: list[str]
    total_invocation_paths: int


def handler_summary(resolved: ResolvedModel) -> list[HandlerSummaryRow]:
    """One row per handler. The path total sums the global-view path counts
    of every occurrence of every handled exception, counted without listing
    the paths; actors that appear in no non-handler use case are marked
    exceptional with ``*``."""
    counts = path_counts(build_invocation_graph(resolved))
    sites = resolved.sites_by_exception
    paths_by_exception = {  # a global exception's single row lists no paths
        name: sum(counts.get(site.use_case.name, 0) for site in sites.get(name, []))
        for name, exc in resolved.exception_by_qualified_name.items()
        if not exc.is_global
    }
    use_cases = resolved.use_case_by_name.values()
    base_actor_names = {ref.name for uc in use_cases if not uc.is_handler for ref in uc.all_actors()}

    rows = []
    for uc in use_cases:
        if not uc.is_handler:
            continue
        dependents = list(dict.fromkeys(ctx.use_case for ctx in uc.contexts))
        handled = list(dict.fromkeys(ctx.exception.qualified_name for ctx in uc.contexts))
        actors = list(
            dict.fromkeys(ref.name if ref.name in base_actor_names else f"{ref.name}*" for ref in uc.all_actors())
        )
        total = sum(paths_by_exception.get(name, 0) for name in handled)
        rows.append(HandlerSummaryRow(uc.name, dependents, handled, actors, total))
    return rows


# -- mode tables -------------------------------------------------------------


class ModeSwitchRow(NamedTuple):
    use_case: str
    location: str
    from_mode: str
    to_mode: str


def _handler_entry_mode(handler: UseCase, entered: dict[str, set[str]], default: str) -> str:
    """Handlers start in the mode their triggering exception's block switched
    into, when that is unambiguous; otherwise in the default mode."""
    candidates: set[str] = set()
    for ctx in handler.contexts:
        candidates |= entered.get(ctx.exception.qualified_name, set())
    return candidates.pop() if len(candidates) == 1 else default


def mode_switch_table(resolved: ResolvedModel) -> list[ModeSwitchRow]:
    """One row per mode-switch statement with the mode in effect at that
    point. Non-handler use cases start in the default mode; switches onto the
    current mode are no-ops and yield no row."""
    default_mode = resolved.model.default_mode()
    default = default_mode.name if default_mode else ""
    rows: list[ModeSwitchRow] = []
    entered: dict[str, set[str]] = {}  # exception -> up to two modes its raising blocks switch into
    for name, sites in resolved.sites_by_exception.items():
        modes = entered[name] = set()
        for site in sites:
            switch = site.block and (site.block.entry_switch or site.block.exit_switch)
            if switch is not None and len(modes) < 2:  # a second mode already means the default
                modes.add(switch.mode)

    for uc in resolved.use_case_by_name.values():
        if uc.main is not None:
            mode = _handler_entry_mode(uc, entered, default) if uc.is_handler else default
            _switch_rows(rows, uc, "main", uc.main, uc.extensions, mode)
    return rows


def _switch_rows(
    rows: list[ModeSwitchRow], uc: UseCase, name: str, owner: Scenario | ExtensionBlock, blocks: list, mode: str
) -> None:
    """Append the rows of `owner`, entered in `mode` and called `name` in
    its locations: its begin row, the rows of its `blocks`, then its end row."""
    if owner.entry_switch is not None and owner.entry_switch.mode != mode:
        rows.append(ModeSwitchRow(uc.name, f"{name}-begin", mode, owner.entry_switch.mode))
        mode = owner.entry_switch.mode
    for block in blocks:
        _switch_rows(rows, uc, f"block {block.label.text}", block, block.nested_blocks(), mode)
    if owner.exit_switch is not None and owner.exit_switch.mode != mode:
        rows.append(ModeSwitchRow(uc.name, f"{name}-end", mode, owner.exit_switch.mode))


class ModeServiceRow(NamedTuple):
    mode: str
    kind: str
    services: list[str]


def mode_service_table(model: Model) -> list[ModeServiceRow]:
    """One row per declared mode, in declaration order."""
    return [ModeServiceRow(m.name, m.kind, list(m.offered_services)) for m in model.modes]


# -- presentation adapters ---------------------------------------------------


def exception_table(rows: list[ExceptionSummaryRow]) -> SummaryTable:
    columns = ["Exception", "Source Use Case", "Handlers", "Situations", "Participating Actors", "Paths"]
    cells = []
    for row in rows:
        name = f"{row.exception}::global" if row.is_global else row.exception
        cells.append(
            [
                name,
                row.source_use_case,
                ", ".join(row.handlers),
                "; ".join(row.situations),
                ", ".join(row.participating_actors),
                row.paths_text,
            ]
        )
    return SummaryTable(columns, cells)


def handler_table(rows: list[HandlerSummaryRow]) -> SummaryTable:
    columns = ["Handler", "Dependent Use Cases", "Handled Exceptions", "Actors", "Invocation Paths"]
    cells = [
        [
            row.handler,
            ", ".join(row.dependent_use_cases),
            ", ".join(row.handled_exceptions),
            ", ".join(row.actors),
            str(row.total_invocation_paths),
        ]
        for row in rows
    ]
    return SummaryTable(columns, cells)


def mode_switch_summary_table(rows: list[ModeSwitchRow]) -> SummaryTable:
    columns = ["Use Case", "Location", "From Mode", "To Mode"]
    cells = [[r.use_case, r.location, r.from_mode, r.to_mode] for r in rows]
    return SummaryTable(columns, cells)


def mode_service_summary_table(rows: list[ModeServiceRow]) -> SummaryTable:
    columns = ["Mode", "Type", "Available Services"]
    cells = [[r.mode, r.kind, ", ".join(r.services)] for r in rows]
    return SummaryTable(columns, cells)


#: Each `ucm table` kind and its builder from a resolved model and a view, a
#: use-case name or None; only the exception table reads the view.
TABLES: dict[str, Callable[[ResolvedModel, str | None], SummaryTable]] = {
    "exceptions": lambda resolved, view: exception_table(exception_summary(resolved, view)),
    "handlers": lambda resolved, view: handler_table(handler_summary(resolved)),
    "modes": lambda resolved, view: mode_switch_summary_table(mode_switch_table(resolved)),
    "services": lambda resolved, view: mode_service_summary_table(mode_service_table(resolved.model)),
}
