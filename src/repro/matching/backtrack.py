"""Generic backtracking subgraph matcher.

The common kernel behind every DFS-style system in Table 1 (G-thinker,
Fractal, STMatch, T-DFS): extend a partial embedding one pattern vertex
at a time along a *matching order*, computing the candidate set of each
step by intersecting the adjacency lists of already-matched neighbors
(plus label and injectivity filters and the symmetry-breaking
restrictions of :mod:`repro.matching.pattern`).

The matcher is deliberately order-parameterized: the cost difference
between orders is what AutoMine/GraphPi/GraphZero exploit, and bench C3
measures it by running this same kernel under different plans.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.kernels import in_sorted, intersect_multi
from ..graph.store.handle import as_handle
from ..obs import StatsViewMixin, merge_counters
from .pattern import PatternGraph, default_order, symmetry_breaking_restrictions

__all__ = ["MatchStats", "match", "count_matches", "find_matches"]


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


def match(
    graph: Graph,
    pattern: PatternGraph,
    order: Optional[Sequence[int]] = None,
    restrictions: Optional[Sequence[Tuple[int, int]]] = None,
    on_match: Optional[Callable[[Tuple[int, ...]], None]] = None,
    stats: Optional[MatchStats] = None,
    anchor: Optional[Tuple[int, int]] = None,
    allowed: Optional[Sequence[set]] = None,
    roots: Optional[Sequence[int]] = None,
) -> int:
    """Enumerate embeddings of ``pattern`` in ``graph``.

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
    allowed:
        Optional per-pattern-vertex candidate sets (indexed by pattern
        vertex id); a step only considers data vertices in the set.
        Accepts the sorted arrays :mod:`repro.matching.filtering`
        produces or any iterable of vertex ids; membership is tested
        with one batched ``searchsorted`` per step, not per element.
    roots:
        Optional data vertices to consider for the *first* order vertex
        (default: all).  Embeddings partition exactly by their root, so
        disjoint root chunks sum to the full count — the task fan-out
        :func:`count_matches` uses for multicore execution.

    Returns the embedding count.
    """
    if order is None:
        order = default_order(pattern)
    order = _validate_order(pattern, order)
    if restrictions is None:
        restrictions = symmetry_breaking_restrictions(pattern)
    stats = stats if stats is not None else MatchStats()

    n = pattern.n
    # position_of[pattern_vertex] = index in order
    position_of = {pv: i for i, pv in enumerate(order)}
    # For each step i, the earlier steps whose pattern vertex neighbors order[i].
    backward_neighbors: List[List[int]] = []
    for i, pv in enumerate(order):
        backward_neighbors.append(
            [position_of[q] for q in pattern.adj[pv] if position_of[q] < i]
        )
    # A restriction (u, v) means data(u) < data(v); check it at the later
    # of the two steps, when both endpoints are known.
    lt_at_step: List[List[int]] = [[] for _ in range(n)]  # upper bounds
    gt_at_step: List[List[int]] = [[] for _ in range(n)]  # lower bounds
    for u, v in restrictions:
        iu, iv = position_of[u], position_of[v]
        if iu < iv:
            # at step iv require data(order[iv]) > data at step iu
            gt_at_step[iv].append(iu)
        else:
            # at step iu require data(order[iu]) < data at step iv
            lt_at_step[iu].append(iv)

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
            # Unconstrained start vertex: scan the root set (all data
            # vertices, unless a parallel fan-out pinned a chunk).
            if roots is None:
                base = np.arange(graph.num_vertices, dtype=np.int64)
            elif isinstance(roots, range):
                base = np.arange(roots.start, roots.stop, dtype=np.int64)
            else:
                base = np.asarray(list(roots), dtype=np.int64)
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

    start_step = 0
    pinned: Optional[int] = None
    if anchor is not None:
        pv, dv = anchor
        if position_of[pv] != 0:
            raise ValueError("anchor must pin the first vertex of the order")
        pinned = int(dv)

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

    extend(start_step)
    return stats.embeddings


def _count_roots_task(graph: Graph, payload: Tuple) -> MatchStats:
    """Process-pool task: count embeddings rooted in ``[lo, hi)``.

    Module-level so the process backend can pickle it by reference; the
    graph arrives through the executor (shared memory, not the payload).
    """
    pattern, order, restrictions, lo, hi = payload
    stats = MatchStats()
    match(
        graph,
        pattern,
        order=order,
        restrictions=restrictions,
        stats=stats,
        roots=range(lo, hi),
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

    With an ``executor`` (:class:`repro.parallel.ParallelExecutor`), the
    candidates of the first order vertex are split into root chunks and
    counted concurrently — every embedding has exactly one root, so the
    chunk counts sum to the serial answer for any backend and chunking.
    Per-worker :class:`MatchStats` are folded into ``stats`` (when given)
    via :meth:`MatchStats.merge`, so merged counters equal a serial run.
    """
    handle = as_handle(graph_or_handle)
    restrictions: Optional[Sequence[Tuple[int, int]]] = None if distinct else []
    if executor is None:
        # The serial matcher consumes the handle directly — a stored
        # graph pages its adjacency through the shard cache.
        return match(
            handle, pattern, order=order, restrictions=restrictions, stats=stats
        )
    if order is None:
        order = default_order(pattern)
    order = tuple(_validate_order(pattern, order))
    if restrictions is None:
        restrictions = symmetry_breaking_restrictions(pattern)
    restrictions = tuple(restrictions)
    shared = handle.to_graph()  # executor backends need the CSR in shared memory
    payloads = [
        (pattern, order, restrictions, lo, hi)
        for lo, hi in executor.spans(shared.num_vertices)
    ]
    merged = stats if stats is not None else MatchStats()
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
