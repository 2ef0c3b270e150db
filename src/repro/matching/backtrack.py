"""Backtracking subgraph matching: a DFS enumerator and a frontier counter.

The common kernel behind every DFS-style system in Table 1 (G-thinker,
Fractal, STMatch, T-DFS): extend a partial embedding one pattern vertex
at a time along a *matching order*, computing the candidate set of each
step by intersecting the adjacency lists of already-matched neighbors
(plus label and injectivity filters and the symmetry-breaking
restrictions of :mod:`repro.matching.pattern`).

Two executions of that one recurrence live here:

* :func:`match` — the depth-first enumerator, one partial embedding at
  a time, for callers that need a per-embedding callback, an anchor,
  ``allowed`` candidate sets or early exit (TLAG tasks, FSM existence
  checks, :func:`find_matches`).  It is the declared oracle of the
  counter (``matching.count.frontier_vs_backtrack``).
* :func:`count_matches` — the level-synchronous frontier kernel.  Per
  order step it extends a matrix of partial embeddings (one per row)
  with one :meth:`~repro.graph.store.handle.GraphHandle.expand_frontier`
  gather of the backward neighbor with the fewest slots, keeps the
  candidates adjacent to the other backward neighbors by a search over
  sorted ``(rank, neighbor)`` edge codes, and filters symmetry, labels
  and injectivity in one vectorized pass each; the last level is
  counted, never materialized.  A level is cut into chunks of at most
  :data:`FRONTIER_SLOT_CAP` gathered slots (a row above the cap goes
  alone) and each chunk is finished before the next starts, so at most
  ``FRONTIER_SLOT_CAP × pattern.n`` partial embeddings are resident:
  breadth-first within a chunk, depth-first across chunks — the EGSM
  policy :mod:`repro.tlag.hybrid` models, with a fixed budget.

Both are order-parameterized: the cost difference between orders is
what AutoMine/GraphPi/GraphZero exploit, and bench C3 measures it by
running this same kernel under different plans.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.kernels import in_sorted, intersect_multi
from ..graph.store.handle import as_handle, checked_vertex_ids
from ..obs import StatsViewMixin, merge_counters
from .pattern import PatternGraph, default_order, symmetry_breaking_restrictions

__all__ = [
    "FRONTIER_SLOT_CAP",
    "MatchStats",
    "match",
    "count_matches",
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
        return merge_counters(
            self,
            other,
            sum_fields=(
                "embeddings",
                "nodes_visited",
                "intersections",
                "candidates_scanned",
            ),
        )

    def extra_dict(self) -> Dict[str, Any]:
        return {
            "embeddings": self.embeddings,
            "nodes_visited": self.nodes_visited,
            "intersections": self.intersections,
            "candidates_scanned": self.candidates_scanned,
        }


def _validate_order(pattern: PatternGraph, order: Sequence[int]) -> List[int]:
    order = list(order)
    if sorted(order) != list(range(pattern.n)):
        raise ValueError("order must be a permutation of the pattern vertices")
    for i in range(1, len(order)):
        if not any(order[j] in pattern.adj[order[i]] for j in range(i)):
            raise ValueError("order must keep the matched prefix connected")
    return order


def _step_tables(
    pattern: PatternGraph,
    order: Sequence[int],
    restrictions: Sequence[Tuple[int, int]],
) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Per order step: backward neighbors, lower bounds, upper bounds.

    ``back[i]`` lists the earlier steps whose pattern vertex neighbors
    ``order[i]``.  A restriction ``(u, v)`` means data(u) < data(v) and
    is checked at the later of its two steps: ``gt[i]`` holds the
    earlier steps step ``i`` must exceed, ``lt[i]`` those it must stay
    below.
    """
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
    return back, lt, gt


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
    if order is None:
        order = default_order(pattern)
    order = _validate_order(pattern, order)
    if restrictions is None:
        restrictions = symmetry_breaking_restrictions(pattern)
    stats = stats if stats is not None else MatchStats()

    n = pattern.n
    backward_neighbors, lt_at_step, gt_at_step = _step_tables(
        pattern, order, restrictions
    )

    labels = graph.vertex_labels
    check_edge_labels = (
        pattern.graph.edge_labels is not None and graph.edge_labels is not None
    )
    # Normalize the candidate sets once into sorted arrays so every step
    # can run one batched binary-search membership test instead of a
    # per-element ``x in allowed[pv]`` probe (the filtering module hands
    # these over pre-sorted; sets/lists are converted here).
    allowed_arrays: Optional[List[np.ndarray]] = None
    if allowed is not None:
        allowed_arrays = []
        for entry in allowed:
            arr = np.asarray(
                entry if isinstance(entry, np.ndarray) else list(entry),
                dtype=np.int64,
            )
            if arr.size > 1 and np.any(np.diff(arr) < 0):
                arr = np.sort(arr)
            allowed_arrays.append(arr)
    embedding = [0] * n  # indexed by step
    matched_set: set = set()

    def candidates(step: int) -> Iterator[int]:
        pv = order[step]
        want_label = pattern.label(pv)
        back = backward_neighbors[step]
        if not back:
            # Unconstrained start vertex: scan every data vertex.
            base = np.arange(graph.num_vertices, dtype=np.int64)
        else:
            # Intersect adjacency lists of the already-matched neighbors,
            # smallest list first — one batched binary search per list
            # instead of a per-element probe (the merge-join kernel).
            lists = [graph.neighbors(embedding[j]) for j in back]
            stats.intersections += len(lists) - 1 if len(lists) > 1 else 0
            base = intersect_multi(lists)
        # Cheap filters run batched over the whole candidate array:
        # symmetry bounds, candidate-set membership, and vertex labels
        # are each one vectorized pass.  ``candidates_scanned`` counts
        # the pre-filter batch, matching the former per-element scan.
        stats.candidates_scanned += int(base.size)
        if base.size:
            lo = max((embedding[j] for j in gt_at_step[step]), default=-1)
            hi = min(
                (embedding[j] for j in lt_at_step[step]), default=graph.num_vertices
            )
            mask = (base > lo) & (base < hi)
            if allowed_arrays is not None:
                mask &= in_sorted(allowed_arrays[pv], base)
            if labels is not None:
                mask &= labels[base] == want_label
            base = base[mask]
        for x in base:
            x = int(x)
            if x in matched_set:
                continue
            if check_edge_labels:
                ok = True
                for j in backward_neighbors[step]:
                    want_edge = pattern.graph.edge_label(order[step], order[j])
                    if graph.edge_label(embedding[j], x) != want_edge:
                        ok = False
                        break
                if not ok:
                    continue
            yield x

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
            want = pattern.label(order[0])
            ok = labels is None or int(labels[pinned]) == want
            candidate_source: Iterator[int] = iter([pinned] if ok else [])
        else:
            candidate_source = candidates(step)
        for x in candidate_source:
            stats.nodes_visited += 1
            embedding[step] = x
            matched_set.add(x)
            extend(step + 1)
            matched_set.discard(x)

    extend(0)
    return stats.embeddings


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct ``values`` ascending, by sort plus adjacent difference."""
    values = np.sort(values)
    if values.size > 1:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


def _count_frontier(
    handle,
    pattern: PatternGraph,
    order: Sequence[int],
    restrictions: Sequence[Tuple[int, int]],
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
    steps = len(order)
    back, lt, gt = _step_tables(pattern, order, restrictions)
    # Injectivity only needs checking against steps no strict symmetry
    # bound already separates from the candidate.
    others = [
        [j for j in range(i) if j not in lt[i] and j not in gt[i]]
        for i in range(steps)
    ]
    labels = handle.vertex_labels
    want = [pattern.label(pv) for pv in order]
    degrees = np.asarray(handle.degrees(), dtype=np.int64)
    edge_labels = None
    if pattern.graph.edge_labels is not None:
        edge_labels = handle.edge_labels
    if edge_labels is not None:
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        want_edge = [
            {j: pattern.graph.edge_label(pv, order[j]) for j in back[i]}
            for i, pv in enumerate(order)
        ]

        def edge_label_ok(rows, offsets, step, j):
            """Mask: slot ``offsets`` of each row in ``rows`` carries the
            label pattern edge (step, j) wants."""
            return edge_labels[indptr[rows] + offsets] == want_edge[step][j]

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
        bounds = np.cumsum(sizes[pick])
        start = 0
        while start < emb.shape[0]:
            base = int(bounds[start - 1]) if start else 0
            stop = int(np.searchsorted(bounds, base + FRONTIER_SLOT_CAP, "right"))
            stop = max(stop, start + 1)
            extend_chunk(emb[start:stop], step, first, rest)
            start = stop

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
            # candidate's slot is its position minus its row's start.
            row_start = np.cumsum(degrees[heads]) - degrees[heads]
            offsets = np.arange(cand.size, dtype=np.int64) - row_start[owners]
            ok &= edge_label_ok(heads[owners], offsets, step, first)
        for j in rest:
            # Keep the candidates adjacent to emb[row, j]: gather the
            # distinct column-j vertices of the rows still alive once and
            # search sorted (rank, neighbor) codes for (rank, candidate).
            alive = np.zeros(emb.shape[0], dtype=bool)
            alive[owners] = True
            uniq = _sorted_unique(emb[alive, j])
            uniq_owner, nbrs = handle.expand_frontier(uniq)
            codes = uniq_owner * num_vertices + nbrs
            rank = np.searchsorted(uniq, emb[:, j])[owners]
            needles = rank * num_vertices + cand
            pos = np.searchsorted(codes, needles)
            hit = pos < codes.size
            hit[hit] = codes[pos[hit]] == needles[hit]
            if edge_labels is not None:
                rank, pos = rank[hit], pos[hit]
                row_start = np.cumsum(degrees[uniq]) - degrees[uniq]
                ok[hit] &= edge_label_ok(uniq[rank], pos - row_start[rank], step, j)
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


def _count_roots_task(graph: Graph, payload: Tuple) -> MatchStats:
    """Process-pool task: count embeddings rooted in ``[lo, hi)``.

    Module-level so the process backend can pickle it by reference; the
    graph arrives through the executor (shared memory, not the payload).
    """
    pattern, order, restrictions, lo, hi = payload
    stats = MatchStats()
    _count_frontier(
        as_handle(graph), pattern, order, restrictions,
        np.arange(lo, hi, dtype=np.int64), stats,
    )
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

    Runs the level-synchronous frontier kernel (module docstring), so at
    most ``FRONTIER_SLOT_CAP × pattern.n`` partial embeddings are ever
    resident.  The count and every :class:`MatchStats` field equal what
    :func:`match` records over the same order (the
    ``matching.count.frontier_vs_backtrack`` oracle), so costs charged
    from ``stats`` do not depend on which one ran:
    ``candidates_scanned`` is the intersection size before the symmetry,
    label and injectivity filters, ``intersections`` one per extra
    backward neighbor per partial embedding, ``nodes_visited`` the
    survivors of every step.

    With an ``executor`` (:class:`repro.parallel.ParallelExecutor`), the
    candidates of the first order vertex are split into root spans and
    counted concurrently by the same kernel — every embedding has
    exactly one root, so the span counts sum to the serial answer for
    any backend and chunking.  Per-worker :class:`MatchStats` are folded
    into ``stats`` (when given) via :meth:`MatchStats.merge`, so merged
    counters equal a serial run.
    """
    handle = as_handle(graph_or_handle)
    if order is None:
        order = default_order(pattern)
    order = tuple(_validate_order(pattern, order))
    restrictions = tuple(symmetry_breaking_restrictions(pattern) if distinct else ())
    merged = stats if stats is not None else MatchStats()
    if executor is None:
        # The serial kernel consumes the handle directly — a stored
        # graph pages its adjacency through the shard cache.
        _count_frontier(
            handle, pattern, order, restrictions,
            np.arange(handle.num_vertices, dtype=np.int64), merged,
        )
        return merged.embeddings
    shared = handle.to_graph()  # executor backends need the CSR in shared memory
    payloads = [
        (pattern, order, restrictions, lo, hi)
        for lo, hi in executor.spans(shared.num_vertices)
    ]
    for part in executor.map_graph(_count_roots_task, shared, payloads):
        merged.merge(part)
    return merged.embeddings


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
