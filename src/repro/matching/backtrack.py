"""Backtracking subgraph matching: a DFS enumerator and a frontier counter.

The common kernel behind every DFS-style system in Table 1 (G-thinker,
Fractal, STMatch, T-DFS, EGSM): extend a partial embedding one pattern
vertex at a time along a *matching order*, computing the candidate set
of each step by intersecting the adjacency lists of already-matched
neighbors (plus label and injectivity filters and the symmetry-breaking
restrictions of :mod:`repro.matching.pattern`).

:func:`extend_step` is that one step, over :func:`step_tables`.  The
systems schedule it differently: :func:`match` (hence G-thinker tasks,
G-thinkerQ queries and FSM existence checks) recurses depth first,
:class:`~repro.tlag.warp.WarpSimulator` deals candidates to warp lanes,
and :func:`~repro.tlag.hybrid.hybrid_match` goes breadth first until its
memory budget forces depth first.

Two interpretations of that one recurrence live here, plus the entry
point production counts go through:

* :func:`match` — the depth-first enumerator, one partial embedding at
  a time, for callers that need a per-embedding callback, an anchor,
  ``allowed`` candidate sets or early exit (TLAG tasks, FSM existence
  checks, :func:`find_matches`).  It is the declared oracle of the
  frontier counter (``matching.count.frontier_vs_backtrack``).
* :func:`frontier_count` — the level-synchronous frontier kernel.  Per
  order step it extends a matrix of partial embeddings (one per row)
  with one :meth:`~repro.graph.store.handle.GraphHandle.expand_frontier`
  gather of the backward neighbor with the fewest slots, keeps the
  candidates adjacent to the other backward neighbors by one batched
  :meth:`~repro.graph.store.handle.GraphHandle.edge_slots` membership
  test each (which also locates edge labels), and filters symmetry, labels
  and injectivity in one vectorized pass each; the last level is
  counted, never materialized.  A level is cut into chunks of at most
  :data:`FRONTIER_SLOT_CAP` gathered slots (a row above the cap goes
  alone) and each chunk is finished before the next starts, so at most
  ``FRONTIER_SLOT_CAP × pattern.n`` partial embeddings are resident:
  breadth-first within a chunk, depth-first across chunks — the EGSM
  policy :mod:`repro.tlag.hybrid` models, with a fixed budget.  It is
  the interpreted reference of the compiled program and bench C3's
  baseline; no production path calls it.
* :func:`count_matches` — the counting engine.  It runs the program
  :mod:`repro.matching.codegen` compiles from the same recurrence (the
  frontier kernel's steps decided once, at generation time), serially
  or fanned out over strided root sets
  (``matching.patterns.backtrack_vs_codegen`` checks it against the
  frontier kernel, ``matching.count.root_sets_sum`` the fan-out).

All are order-parameterized: the cost difference between orders is
what AutoMine/GraphPi/GraphZero exploit, and bench C3 measures it.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from ..graph.csr import Graph
from ..graph.kernels import in_sorted, intersect_multi
from ..graph.store.handle import as_handle, checked_vertex_ids
from ..obs import StatsViewMixin, merge_counters
from . import codegen  # a cycle: codegen's names are read at call time
from .pattern import PatternGraph, default_order, symmetry_breaking_restrictions

__all__ = [
    "FRONTIER_SLOT_CAP",
    "MatchStats",
    "match",
    "count_matches",
    "frontier_count",
    "find_matches",
]

#: Most adjacency slots one frontier step of :func:`count_matches`
#: gathers at a time.
FRONTIER_SLOT_CAP = 8192


class MatchStats(StatsViewMixin):
    """Work counters for one matching run (a :class:`~repro.obs.StatsView`).

    Parallel runs keep one instance per worker and fold them with
    :meth:`merge`; all four counters are additive, so merged stats equal
    what a serial run over the same roots would have recorded.
    """

    __slots__ = ("embeddings", "nodes_visited", "intersections", "candidates_scanned")

    def __init__(self) -> None:
        self.embeddings = 0
        self.nodes_visited = 0
        self.intersections = 0
        self.candidates_scanned = 0

    def merge(self, other: "MatchStats") -> "MatchStats":
        """Fold another worker's counters into this one (in place)."""
        return merge_counters(self, other, sum_fields=self.__slots__)

    def extra_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}


def _validate_order(pattern: PatternGraph, order: Sequence[int]) -> List[int]:
    order = list(order)
    if sorted(order) != list(range(pattern.n)):
        raise ValueError("order must be a permutation of the pattern vertices")
    for i in range(1, len(order)):
        if not any(order[j] in pattern.adj[order[i]] for j in range(i)):
            raise ValueError("order must keep the matched prefix connected")
    return order


class StepTables(NamedTuple):
    """One ``(pattern, order, restrictions)`` laid out per order step.

    ``back[i]`` lists the earlier steps whose pattern vertex neighbors
    ``order[i]``.  A restriction ``(u, v)`` means data(u) < data(v) and
    is checked at the later of its two steps: ``gt[i]`` holds the
    earlier steps step ``i`` must exceed, ``lt[i]`` those it must stay
    below.  ``edge_label[i]`` maps each backward step to its pattern
    edge's label (``None``: the pattern has no edge labels).
    """

    order: List[int]
    back: List[List[int]]
    lt: List[List[int]]
    gt: List[List[int]]
    label: List[int]
    edge_label: Optional[List[Dict[int, int]]]


def step_tables(
    pattern: PatternGraph,
    order: Optional[Sequence[int]] = None,
    restrictions: Optional[Sequence[Tuple[int, int]]] = None,
) -> StepTables:
    """``pattern``'s step tables along ``order`` (default:
    :func:`default_order`); ``restrictions=None`` derives them."""
    order = _validate_order(pattern, default_order(pattern) if order is None else order)
    if restrictions is None:
        restrictions = symmetry_breaking_restrictions(pattern)
    position_of = {pv: i for i, pv in enumerate(order)}
    back = [
        [position_of[q] for q in pattern.adj[pv] if position_of[q] < i]
        for i, pv in enumerate(order)
    ]
    lt: List[List[int]] = [[] for _ in order]
    gt: List[List[int]] = [[] for _ in order]
    for u, v in restrictions:
        iu, iv = position_of[u], position_of[v]
        if iu < iv:
            gt[iv].append(iu)
        else:
            lt[iu].append(iv)
    edge_label = None if pattern.graph.edge_labels is None else [
        {j: pattern.graph.edge_label(pv, order[j]) for j in back[i]}
        for i, pv in enumerate(order)
    ]
    label = [pattern.label(pv) for pv in order]
    return StepTables(order, back, lt, gt, label, edge_label)


def extend_step(
    graph,
    tables: StepTables,
    embedding: Sequence[int],
    step: int,
    stats: MatchStats,
    allowed: Optional[Sequence[np.ndarray]] = None,
) -> List[int]:
    """The data vertices, ascending, that extend ``embedding[:step]`` at
    order step ``step``: the backward neighbors' common neighbors (every
    vertex at a step with none) that pass the symmetry bounds, ``allowed``
    (sorted arrays by pattern vertex), the labels and injectivity.  Adds
    the intersections and the pre-filter candidates to ``stats``."""
    back = tables.back[step]
    if not back:
        base = np.arange(graph.num_vertices, dtype=np.int64)
    else:
        # One batched binary search per extra list, smallest list first.
        lists = [graph.neighbors(embedding[j]) for j in back]
        stats.intersections += len(lists) - 1
        base = intersect_multi(lists)
    stats.candidates_scanned += int(base.size)
    if base.size:
        lo = max((embedding[j] for j in tables.gt[step]), default=-1)
        hi = min(
            (embedding[j] for j in tables.lt[step]), default=graph.num_vertices
        )
        mask = (base > lo) & (base < hi)
        if allowed is not None:
            mask &= in_sorted(allowed[tables.order[step]], base)
        if graph.vertex_labels is not None:
            mask &= graph.vertex_labels[base] == tables.label[step]
        base = base[mask]
    matched = embedding[:step]
    if tables.edge_label is None or graph.edge_labels is None:
        return [x for x in base.tolist() if x not in matched]
    want_edge = tables.edge_label[step].items()
    return [
        x for x in base.tolist()
        if x not in matched
        and all(graph.edge_label(embedding[j], x) == label for j, label in want_edge)
    ]


def match(
    graph: Graph,
    pattern: PatternGraph,
    order: Optional[Sequence[int]] = None,
    restrictions: Optional[Sequence[Tuple[int, int]]] = None,
    on_match: Optional[Callable[[Tuple[int, ...]], None]] = None,
    stats: Optional[MatchStats] = None,
    anchor: Optional[Tuple[int, int]] = None,
    allowed: Optional[Sequence[set]] = None,
) -> int:
    """Enumerate embeddings of ``pattern`` in ``graph``, depth first.

    Parameters
    ----------
    order:
        Matching order (a prefix-connected permutation of pattern
        vertices); defaults to a BFS order from pattern vertex 0.
    restrictions:
        ``(u, v)`` pairs enforcing ``data_id(u) < data_id(v)``.  Pass the
        output of :func:`symmetry_breaking_restrictions` to count each
        subgraph instance exactly once; pass ``[]`` to enumerate every
        automorphic image (the duplicated regime bench C3 contrasts).
        ``None`` means "derive them from the pattern".
    on_match:
        Callback per embedding (mapping pattern vertex -> data vertex, in
        pattern-vertex index order).  When ``None``, embeddings are only
        counted — no materialization, the G-thinker property.
    stats:
        Counters this call adds to; the return value is this call's
        count whatever ``stats`` held before.
    anchor:
        Optional ``(pattern_vertex, data_vertex)`` pin, used by the task
        engine to spawn one task per candidate of the first order vertex.
        A data vertex outside ``[0, n)`` raises ``IndexError``.
    allowed:
        Optional per-pattern-vertex candidate sets (indexed by pattern
        vertex id); a step only considers data vertices in the set.
        Accepts the sorted arrays :mod:`repro.matching.filtering`
        produces or any iterable of vertex ids; membership is tested
        with one batched ``searchsorted`` per step, not per element.

    Returns the embedding count.
    """
    tables = step_tables(pattern, order, restrictions)
    order = tables.order
    stats = stats if stats is not None else MatchStats()
    before = stats.embeddings
    n = pattern.n
    labels = graph.vertex_labels
    # Sorted arrays, so every step runs one batched binary-search
    # membership test instead of a per-element ``x in allowed[pv]`` probe.
    allowed_arrays = None if allowed is None else [
        np.sort(np.asarray(
            entry if isinstance(entry, np.ndarray) else list(entry), dtype=np.int64
        ))
        for entry in allowed
    ]
    embedding = [0] * n  # indexed by step

    pinned: Optional[int] = None
    if anchor is not None:
        pv, dv = anchor
        if order[0] != pv:
            raise ValueError("anchor must pin the first vertex of the order")
        pinned = int(checked_vertex_ids([dv], graph.num_vertices)[0])

    def extend(step: int) -> None:
        if step == n:
            stats.embeddings += 1
            if on_match is not None:
                by_pattern_vertex = [0] * n
                for i, pv in enumerate(order):
                    by_pattern_vertex[pv] = embedding[i]
                on_match(tuple(by_pattern_vertex))
            return
        if step == 0 and pinned is not None:
            ok = labels is None or int(labels[pinned]) == tables.label[0]
            candidates = [pinned] if ok else []
        else:
            candidates = extend_step(
                graph, tables, embedding, step, stats, allowed_arrays
            )
        for x in candidates:
            stats.nodes_visited += 1
            embedding[step] = x
            extend(step + 1)

    extend(0)
    return stats.embeddings - before


def slot_chunks(sizes: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive row ranges ``[start, stop)`` of a frontier level whose
    summed ``sizes`` (slots each row gathers) stay within
    :data:`FRONTIER_SLOT_CAP`; a row above the cap goes alone."""
    bounds = np.cumsum(sizes)
    if bounds.size and bounds[-1] <= FRONTIER_SLOT_CAP:
        yield 0, bounds.size
        return
    start = 0
    while start < bounds.size:
        base = int(bounds[start - 1]) if start else 0
        stop = int(np.searchsorted(bounds, base + FRONTIER_SLOT_CAP, "right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _count_frontier(
    handle,
    tables: StepTables,
    roots: np.ndarray,
    stats: MatchStats,
) -> None:
    """Count the embeddings rooted in ``roots`` into ``stats``.

    The frontier kernel (module docstring).  ``emb`` holds one partial
    embedding per row, one column per order step.  Only the
    :class:`~repro.graph.store.handle.GraphHandle` protocol is used, so
    a stored graph pages one gather per touched partition per chunk.
    """
    num_vertices = handle.num_vertices
    steps = len(tables.order)
    back, lt, gt, want = tables.back, tables.lt, tables.gt, tables.label
    # Injectivity only needs checking against steps no strict symmetry
    # bound already separates from the candidate.
    others = [
        [j for j in range(i) if j not in lt[i] and j not in gt[i]]
        for i in range(steps)
    ]
    labels = handle.vertex_labels
    degrees = np.asarray(handle.degrees(), dtype=np.int64)
    want_edge = tables.edge_label
    edge_labels = None if want_edge is None else handle.edge_labels
    if edge_labels is not None:
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

    roots = checked_vertex_ids(roots, num_vertices)
    stats.candidates_scanned += int(roots.size)
    if labels is not None:
        roots = roots[labels[roots] == want[0]]
    stats.nodes_visited += int(roots.size)
    if steps == 1:
        stats.embeddings += int(roots.size)
        return

    def extend(emb: np.ndarray, step: int) -> None:
        stats.intersections += emb.shape[0] * (len(back[step]) - 1)
        # Gather the backward neighbor with the fewest slots; the others
        # are membership tests (the intersection is the same set).
        sizes = [degrees[emb[:, j]] for j in back[step]]
        pick = min(range(len(sizes)), key=lambda k: int(sizes[k].sum()))
        first = back[step][pick]
        rest = [j for j in back[step] if j != first]
        # Chunk the rows so one gather stays within the slot cap; the
        # chunks are finished depth first (the bounded working set).
        for start, stop in slot_chunks(sizes[pick]):
            extend_chunk(emb[start:stop], step, first, rest)

    def extend_chunk(
        emb: np.ndarray, step: int, first: int, rest: List[int]
    ) -> None:
        heads = emb[:, first]
        owners, cand = handle.expand_frontier(heads)
        if cand.size == 0:
            return
        ok = np.ones(cand.size, dtype=bool)
        if edge_labels is not None:
            # The gather keeps rows in input order, each row whole, so a
            # candidate's slot is its row's start plus its offset in it.
            row_start = np.cumsum(degrees[heads]) - degrees[heads]
            slots = indptr[heads[owners]] + np.arange(cand.size) - row_start[owners]
            ok &= edge_labels[slots] == want_edge[step][first]
        for j in rest:
            # Keep the candidates adjacent to emb[row, j] (one batched
            # membership test; the slot also indexes the edge label).
            slots = handle.edge_slots(emb[owners, j], cand)
            hit = slots >= 0
            if edge_labels is not None:
                ok[hit] &= edge_labels[slots[hit]] == want_edge[step][j]
            owners, cand, ok = owners[hit], cand[hit], ok[hit]
            if cand.size == 0:
                return
        stats.candidates_scanned += int(cand.size)
        for j in gt[step]:
            ok &= cand > emb[owners, j]
        for j in lt[step]:
            ok &= cand < emb[owners, j]
        if labels is not None:
            ok &= labels[cand] == want[step]
        for j in others[step]:
            ok &= cand != emb[owners, j]
        survivors = int(np.count_nonzero(ok))
        stats.nodes_visited += survivors
        if step == steps - 1:
            stats.embeddings += survivors
        elif survivors:
            child = np.empty((survivors, step + 1), dtype=np.int64)
            child[:, :step] = emb[owners[ok]]
            child[:, step] = cand[ok]
            extend(child, step + 1)

    extend(roots[:, None], 1)


def frontier_count(
    graph_or_handle,
    pattern: PatternGraph,
    order: Optional[Sequence[int]] = None,
    distinct: bool = True,
    stats: Optional[MatchStats] = None,
) -> int:
    """Count embeddings with the interpreted frontier kernel.

    The interpreted reference the compiled program of
    :func:`count_matches` is checked against, and bench C3's baseline;
    no production path calls it.  The count and every :class:`MatchStats` field equal
    what :func:`match` records over the same order (the
    ``matching.count.frontier_vs_backtrack`` oracle):
    ``candidates_scanned`` is the intersection size before the symmetry,
    label and injectivity filters, ``intersections`` one per extra
    backward neighbor per partial embedding, ``nodes_visited`` the
    survivors of every step.  At most ``FRONTIER_SLOT_CAP × pattern.n``
    partial embeddings are ever resident.  ``order`` defaults to
    :func:`~repro.matching.pattern.default_order`.
    """
    handle = as_handle(graph_or_handle)
    tables = step_tables(pattern, order, None if distinct else [])
    stats = stats if stats is not None else MatchStats()
    before = stats.embeddings
    _count_frontier(
        handle, tables, np.arange(handle.num_vertices, dtype=np.int64), stats
    )
    return stats.embeddings - before


def _count_roots_task(graph: Graph, payload: Tuple) -> MatchStats:
    """Process-pool task: count the embeddings rooted in stride ``i`` of ``k``.

    The roots are ``arange(i, n, k)``.  Module-level so the process
    backend can pickle it by reference; the graph arrives through the
    executor (shared memory, not the payload), and the pattern — not
    the exec'd program, which does not pickle — travels in the payload,
    so each worker compiles on first use through ``compile_matcher``'s
    cache.
    """
    i, k, pattern, order, restrictions = payload
    program = codegen.compile_matcher(pattern, order, restrictions)
    roots = np.arange(i, graph.num_vertices, k, dtype=np.int64)
    return _run_program(program, graph, roots, MatchStats())


def _run_program(program, graph, roots, stats: MatchStats) -> MatchStats:
    count, tally = program.tallied(graph, roots)
    stats.embeddings += count
    stats.candidates_scanned += tally
    return stats


def count_matches(
    graph_or_handle,
    pattern: PatternGraph,
    order: Optional[Sequence[int]] = None,
    distinct: bool = True,
    executor: Optional["ParallelExecutor"] = None,
    stats: Optional[MatchStats] = None,
) -> int:
    """Count embeddings; ``distinct=True`` counts subgraph instances once.

    Runs the compiled program of :func:`repro.matching.codegen.compile_matcher`
    for ``(pattern, order, restrictions)``; ``order=None`` takes the
    planner's order (the one ``compile_matcher`` plans).  Into ``stats``
    it adds ``embeddings`` and ``candidates_scanned``, the program's
    tally: the roots plus every adjacency slot a block gathered.  The
    other two fields stay as they were; only the interpreters
    (:func:`match`, :func:`frontier_count`) count them.

    With an ``executor`` (:class:`repro.parallel.ParallelExecutor`), the
    vertices are dealt into ``k`` strided root sets
    (:meth:`~repro.parallel.ParallelExecutor.map_strides`; set ``i`` is
    ``arange(i, n, k)``) counted concurrently by the same program.
    Every embedding has exactly one root and the tally is a sum over
    roots, so per-set :class:`MatchStats` folded with
    :meth:`MatchStats.merge` equal a serial run for any backend and any
    ``k``.
    """
    handle = as_handle(graph_or_handle)
    restrictions = tuple(symmetry_breaking_restrictions(pattern) if distinct else ())
    program = codegen.compile_matcher(pattern, order, restrictions)
    merged = stats if stats is not None else MatchStats()
    before = merged.embeddings
    if executor is None:
        # The program consumes the handle directly — a stored graph
        # pages its adjacency through the shard cache.
        _run_program(program, handle, None, merged)
        return merged.embeddings - before
    shared = handle.to_graph()  # executor backends need the CSR in shared memory
    for part in executor.map_strides(
        _count_roots_task, shared, shared.num_vertices,
        pattern, program.order, restrictions,
    ):
        merged.merge(part)
    return merged.embeddings - before


def find_matches(
    graph_or_handle,
    pattern: PatternGraph,
    order: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
) -> List[Tuple[int, ...]]:
    """Materialize embeddings (pattern-vertex order); optionally capped."""
    handle = as_handle(graph_or_handle)
    found: List[Tuple[int, ...]] = []

    class _Stop(Exception):
        pass

    def record(embedding: Tuple[int, ...]) -> None:
        found.append(embedding)
        if limit is not None and len(found) >= limit:
            raise _Stop

    try:
        match(handle, pattern, order=order, on_match=record)
    except _Stop:
        pass
    return found
