"""Invocation-graph analysis and generated summaries.

Builds the directed graph of `invoke` steps between non-handler use cases
and derives the exception, handler, mode-switch and mode-service summaries
from a resolved model. One depth-first search at construction gives the
graph's topological order and, on a cyclic graph, the witness cycle that
aborts path-based summaries with E015. Path totals are counted in one pass
over that order, without listing paths. Only the paths the exception table
prints are listed: a walk back from the raise site finds the nodes on them,
and each gets its paths to the site once, as a head and a list of texts
shared by all its callers. A node with one callee on those paths shares that
callee's list under a longer head, and a start joins its callees' lists
straight into the printed cell, so the work is bounded by the printed text.
A row keeps that one text, which the table prints as it is; it is split into
paths, and a `PathRecord` made, only when a row's path is read. More than
`MAX_PATH_NODES` path nodes in an exception table abort it with E016 before
any is listed. `TABLES` maps each `ucm table` kind to its builder, for the
CLI and the report script alike.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

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


@dataclass(frozen=True)
class Edge:
    caller: str
    callee: str
    at_step: str
    span: SourceSpan = ZERO_SPAN

    def __str__(self) -> str:
        return f"{self.caller} -> {self.callee} (step {self.at_step})"


@dataclass
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

    nodes: list[str]
    edges: list[Edge]
    callees: dict[str, list[tuple[str, int]]] = field(init=False, repr=False)
    callers: dict[str, list[tuple[str, int]]] = field(init=False, repr=False)
    roots: list[str] = field(init=False, repr=False)
    order: list[str] = field(init=False, repr=False)
    cycle: list[str] | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        out: dict[str, dict[str, int]] = {n: {} for n in self.nodes}  # callees in first-edge order
        for edge in self.edges:
            callees = out[edge.caller]
            callees[edge.callee] = callees.get(edge.callee, 0) + 1
        self.callees = {n: sorted(callees.items()) for n, callees in out.items()}
        self.callers = {n: [] for n in self.nodes}
        for node, callees in out.items():
            for callee, k in callees.items():
                self.callers[callee].append((node, k))
        self.roots = [n for n, callers in self.callers.items() if not callers]
        self.cycle = None
        depth: dict[str, int] = {}  # a node's place on the stack while on it, then -1
        self.order = []
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
    names joined by `` -> ``, made when a `PathList` item is read. Names are
    identifiers, so the text and `use_cases` determine each other."""

    __slots__ = ()

    @property
    def use_cases(self) -> tuple[str, ...]:
        return tuple(self.split(" -> "))


class PathList(Sequence):
    """The paths of an exception row as one `text`, the path texts joined by
    ``; ``, which is the table's Paths cell as printed. A read-only sequence
    that yields a `PathRecord` for each item read, and compares and prints
    like the list of those records. Names are identifiers, so no path holds
    ``; ``: the length counts separators, and `texts` splits the text once,
    when an item is first read."""

    def __init__(self, text: str):
        self.text = text

    @cached_property
    def texts(self) -> list[str]:
        return self.text.split("; ") if self.text else []

    def __len__(self) -> int:
        return self.text.count("; ") + 1 if self.text else 0

    def __getitem__(self, index: int | slice) -> PathRecord | list[PathRecord]:
        if isinstance(index, slice):
            return [PathRecord(text) for text in self.texts[index]]
        return PathRecord(self.texts[index])

    def __iter__(self) -> Iterator[PathRecord]:
        return map(PathRecord, self.texts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and not isinstance(other, str) and self.texts == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


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
    nodes = [uc.name for uc in resolved.model.use_cases if not uc.is_handler]
    node_set = set(nodes)
    edges = []
    for uc in resolved.model.use_cases:
        if uc.is_handler:
            continue
        for step, target in resolved.invocations_of(uc):
            if target.name in node_set:
                edges.append(Edge(uc.name, target.name, step.label.text, step.span))
    return InvocationGraph(nodes, edges)


def ensure_acyclic(graph: InvocationGraph) -> None:
    """Raise InvocationCycleError (E015) naming the graph's witness cycle, at
    the first edge from its first node to its second."""
    cycle = graph.cycle
    if cycle is not None:
        witness = " -> ".join(cycle)
        span = ZERO_SPAN
        for edge in graph.edges:
            if edge.caller == cycle[0] and edge.callee == cycle[1]:
                span = edge.span
                break
        raise InvocationCycleError(
            Diagnostic("E015", f"invocation cycle detected: {witness}", span)
        )


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


def _paths_between(graph: InvocationGraph, starts: set[str], target: str) -> str:
    """The printed text of all paths from the `starts` to `target` in an
    acyclic graph: each path's node names joined by `` -> ``, the paths
    joined by ``; `` in lexicographic order; a path over k parallel edges is
    listed k times, the copies next to each other.

    A walk back from `target` over the callers finds the nodes that reach it,
    each with its callees that do, in name order; no other callee is read.
    Only live nodes take part: those that also are reachable from a start.
    Each gets its paths to `target` as a pair: a head and a list of texts,
    each path being the head followed by one text. The pairs are built in
    post-order from the callees' pairs taken in name order, so the texts come
    out sorted with no sort of texts and no recursion. A node with one live
    callee (over k parallel edges, each text k times) shares that callee's
    texts and only puts itself in front of the head; a node with more builds a
    new list. A start builds no per-path string: for each live callee it joins
    the texts with its own head in the separator. A callee's pair is dropped
    once its last live caller has read it."""
    if target in starts:  # no start reaches another, so no other path leads here
        return target
    reaches: dict[str, list[tuple[str, int]]] = {target: []}  # each node that reaches target: its callees that do
    pending = [target]
    while pending:
        node = pending.pop()
        for caller, k in graph.callers[node]:
            if caller not in reaches:
                pending.append(caller)
            reaches.setdefault(caller, []).append((node, k))
    for callees in reaches.values():
        callees.sort()
    roots = sorted(n for n in reaches if n in starts)
    readers: dict[str, int] = {}  # live callers of each live node
    live = set(roots)  # no start reaches another: they are the roots, or one view
    order: list[str] = []  # live nodes, callees before callers
    for root in roots:
        stack = [(root, iter(reaches[root]))]
        while stack:
            node, callees = stack[-1]
            for callee, _ in callees:
                readers[callee] = readers.get(callee, 0) + 1
                if callee not in live:
                    live.add(callee)
                    stack.append((callee, iter(reaches[callee])))
                    break
            else:
                stack.pop()
                order.append(node)

    pairs: dict[str, tuple[str, list[str]]] = {target: (target, [""])}
    pieces: list[str] = []  # one per live callee of a start, in root and name order
    for node in order:
        if node == target:
            continue
        edges = []  # the node's paths through each live callee, as (head, texts)
        for callee, k in reaches[node]:
            head, texts = pairs[callee]
            edges.append((f"{node} -> {head}", texts if k == 1 else [t for t in texts for _ in range(k)]))
            readers[callee] -= 1
            if not readers[callee]:
                del pairs[callee]
        if node in starts:
            pieces += [head + ("; " + head).join(texts) for head, texts in edges]
        elif len(edges) == 1:
            pairs[node] = edges[0]
        else:
            pairs[node] = ("", [head + text for head, texts in edges for text in texts])
    return "; ".join(pieces)


def enumerate_paths(graph: InvocationGraph, target: str) -> list[PathRecord]:
    """All simple root-to-target paths, ordered lexicographically by node
    sequence. Raises ValueError for an unknown target and
    InvocationCycleError (E015) on cyclic graphs."""
    if target not in graph.nodes:
        raise ValueError(f"unknown use case '{target}'")
    ensure_acyclic(graph)
    return list(PathList(_paths_between(graph, set(graph.roots), target)))


# -- exception summary ------------------------------------------------------


@dataclass
class ExceptionSummaryRow:
    exception: str
    is_global: bool
    source_use_case: str
    handlers: list[str]
    situations: list[str]
    participating_actors: list[str]
    paths: PathList


def _exception_row(
    resolved: ResolvedModel,
    exc: ExceptionDef,
    sites: list[RaiseSite],
    paths: PathList,
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
        paths,
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
    _, sizes = _path_totals(graph, starts)
    printed = 0  # path nodes of the rows so far
    listed: dict[str, PathList] = {}  # paths per source use case, shared by its rows
    block_actors: dict[int, dict[str, None]] = {}
    rows = []
    for exc in resolved.model.exceptions:
        exc_sites = resolved.sites_by_exception.get(exc.qualified_name, [])
        if exc.is_global:
            if exc_sites:
                rows.append(_exception_row(resolved, exc, exc_sites, PathList(""), block_actors))
            continue
        for site in exc_sites:
            source = site.use_case.name
            if reach is not None and source not in reach:
                continue
            paths = PathList("")
            if not site.use_case.is_handler and source in graph.callees:
                printed += sizes[source]
                if printed > MAX_PATH_NODES:
                    raise AnalysisError(Diagnostic(
                        "E016",
                        f"invocation paths too many to list: {printed} path nodes up to this raise site,"
                        f" over the limit of {MAX_PATH_NODES}",
                        site.step.span,
                    ))
                if source not in listed:
                    listed[source] = PathList(_paths_between(graph, starts, source))
                paths = listed[source]
            rows.append(_exception_row(resolved, exc, [site], paths, block_actors))
    return rows


# -- handler summary ---------------------------------------------------------


@dataclass
class HandlerSummaryRow:
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
    paths_by_exception: dict[str, int] = {}
    for exc in resolved.model.exceptions:
        if exc.is_global:  # a global exception's single row lists no paths
            continue
        qname = exc.qualified_name
        found = sum(counts.get(s.use_case.name, 0) for s in sites.get(qname, []) if not s.use_case.is_handler)
        paths_by_exception[qname] = paths_by_exception.get(qname, 0) + found

    base_actor_names: set[str] = set()
    for uc in resolved.model.use_cases:
        if not uc.is_handler:
            base_actor_names.update(ref.name for ref in uc.all_actors())

    rows = []
    for uc in resolved.model.use_cases:
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


@dataclass
class ModeSwitchRow:
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
    entered: dict[str, set[str]] = {}  # exception -> modes its raising blocks switch into
    for site in resolved.raise_sites():
        switch = site.block and (site.block.entry_switch or site.block.exit_switch)
        if switch is not None:
            entered.setdefault(site.exception.qualified_name, set()).add(switch.mode)

    for uc in resolved.model.use_cases:
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


@dataclass
class ModeServiceRow:
    mode: str
    kind: str
    services: list[str]


def mode_service_table(model: Model) -> list[ModeServiceRow]:
    """One row per declared mode, in declaration order."""
    return [ModeServiceRow(m.name, m.kind.value, list(m.offered_services)) for m in model.modes]


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
                row.paths.text,
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
