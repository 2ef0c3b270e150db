"""Frontier-at-a-time (dense) TLAV supersteps.

The per-vertex :class:`~repro.tlav.engine.PregelEngine` pays Python
function-call overhead for every vertex in every superstep.  For the
data-parallel programs of the Figure-1 "vertex analytics" path —
PageRank-style fixed-point iterations, BFS/WCC-style label spreading —
a superstep is just a gather/scatter over the CSR arrays, so this module
runs it as whole-frontier numpy kernels (:mod:`repro.graph.kernels`).

Every entry point takes ``graph_or_handle`` — a concrete
:class:`~repro.graph.csr.Graph`, any
:class:`~repro.graph.store.GraphHandle`, or a store-directory path.
Dense supersteps reach the handle two ways.  Whole-graph sweeps
(PageRank, WCC) consume ``iter_csr_runs()``: for an in-memory graph
that is the whole CSR in one run; for a
:class:`~repro.graph.store.StoredGraph` it is one run per maximal span
of consecutive global ids in the same partition, paged through the
shard cache as each superstep touches it.  Frontier supersteps (BFS)
call ``handle.expand_frontier(frontier)``: one kernel gather over the
resident CSR, or one gather per *touched partition* of a stored graph —
each partition's two shards are requested once per level, never once
per frontier vertex.

Equivalence contract
--------------------
``pagerank_dense`` is **bit-identical** to the per-vertex engine's
:func:`repro.tlav.algorithms.pagerank`, not merely close — and to
itself across in-memory and stored handles.  Three facts make that
work:

1. the engine's sender-side combiner folds messages per destination in
   ascending-source order (``compute`` runs vertices in id order);
2. ``np.add.at`` applies increments in element order, and the CSR edge
   array is source-major — runs are yielded ascending and each run is
   source-major, so the per-run scatter-adds perform the *same
   additions in the same order* regardless of how the CSR is sharded.
   A run's edge values are its sources' shares repeated by degree
   (``np.repeat(shares[lo:hi], deg)``), with no per-edge source index;
   ``np.add.at`` stays because one ``bincount`` per run would fold each
   run from zero and break the cross-run addition order;
3. the dangling-mass aggregator is folded in ascending vertex order,
   which the dense path reproduces with an explicit left fold.

``bfs_dense`` / ``wcc_dense`` are integer label spreads, equal to their
engine counterparts by construction.

Parallel partitions
-------------------
Pass an ``executor`` (:class:`repro.parallel.ParallelExecutor`) to
partition each superstep's scatter over contiguous source ranges.
Results are then *chunk-deterministic*: fixed by the chunk layout, not
the backend — serial/thread/process with the same chunking agree
bit-for-bit (floating-point partial sums are folded in chunk order).
The executor path needs the CSR in shared memory, so a stored handle
is materialized with ``to_graph()`` first (documented trade-off: the
parallel dense path is not out-of-core).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.kernels import scatter_add_ordered
from ..graph.store.handle import as_handle
from ..obs import MetricsRegistry

__all__ = ["pagerank_dense", "bfs_dense", "wcc_dense"]


def _scatter_shares_task(graph: Graph, payload: Tuple) -> np.ndarray:
    """Partial incoming-mass vector from the source range ``[lo, hi)``.

    Module-level so the process backend can ship it; the CSR arrays come
    from shared memory, the payload carries only the span and the current
    share vector.
    """
    lo, hi, shares = payload
    indptr, indices = graph.indptr, graph.indices
    degrees = indptr[lo + 1: hi + 1] - indptr[lo: hi]
    partial = np.zeros(graph.num_vertices, dtype=np.float64)
    dst = indices[indptr[lo]: indptr[hi]]
    scatter_add_ordered(partial, dst, np.repeat(shares[lo:hi], degrees))
    return partial


def pagerank_dense(
    graph_or_handle,
    damping: float = 0.85,
    iterations: int = 20,
    obs: Optional[MetricsRegistry] = None,
    executor: Optional["ParallelExecutor"] = None,
) -> np.ndarray:
    """PageRank as dense supersteps; bit-identical to the engine path.

    Without an ``executor`` every superstep scatters run-by-run through
    ``iter_csr_runs()`` — one vectorized gather/scatter for an in-memory
    graph, shard-cache paging for a stored one, same bits either way.
    With an ``executor``, the scatter partitions over source-range
    chunks that run on real cores; partial vectors fold in chunk order,
    so any backend with the same chunking yields the same bits.
    """
    handle = as_handle(graph_or_handle)
    n = handle.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)
    obs = obs if obs is not None else MetricsRegistry()
    c_steps = obs.counter("tlav.dense.supersteps", "dense supersteps executed")
    c_edges = obs.counter(
        "tlav.dense.edges_processed", "CSR edges gathered/scattered"
    )
    degrees = np.asarray(handle.degrees(), dtype=np.int64)
    dangling_vertices = np.flatnonzero(degrees == 0)
    has_out = degrees > 0
    values = np.full(n, 1.0 / n, dtype=np.float64)
    if executor is not None:
        shared = handle.to_graph()  # executor backends need shared CSR
        spans = executor.spans(n)
    num_slots = handle.num_edge_slots
    for _ in range(iterations):
        shares = np.divide(
            values, degrees, out=np.zeros(n, dtype=np.float64), where=has_out
        )
        # Left fold in ascending vertex order — the aggregator's order;
        # accumulate is sequential, so its last entry is that fold.
        dangling = (
            np.add.accumulate(values[dangling_vertices])[-1]
            if dangling_vertices.size else 0.0
        )
        incoming = np.zeros(n, dtype=np.float64)
        if executor is None:
            for lo, hi, run_ptr, run_idx in handle.iter_csr_runs():
                scatter_add_ordered(
                    incoming, run_idx, np.repeat(shares[lo:hi], np.diff(run_ptr))
                )
        else:
            payloads = [(lo, hi, shares) for lo, hi in spans]
            for partial in executor.map_graph(
                _scatter_shares_task, shared, payloads
            ):
                incoming += partial
        values = (1.0 - damping) / n + damping * (incoming + dangling / n)
        c_steps.inc()
        c_edges.inc(int(num_slots))
    return values


def bfs_dense(graph_or_handle, source: int = 0) -> np.ndarray:
    """BFS levels from ``source`` as whole-frontier gathers.

    Equal to :func:`repro.tlav.algorithms.bfs` (and to
    :func:`repro.graph.properties.bfs_levels`): unreachable vertices
    keep ``-1``.  A ``source`` outside ``[0, n)`` raises ``IndexError``.
    """
    handle = as_handle(graph_or_handle)
    n = handle.num_vertices
    level = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return level  # like the engine: no vertex, no source to place
    if not 0 <= source < n:
        raise IndexError(f"BFS source {source} out of range 0..{n - 1}")
    level[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        _, neighbors = handle.expand_frontier(frontier)
        fresh = neighbors[level[neighbors] < 0]
        if fresh.size == 0:
            break
        depth += 1
        level[fresh] = depth
        # The vertices just marked, ascending and once each.  Scanning
        # ``level`` beats hashing ``fresh``, except on a level that is a
        # sliver of the graph, where the O(n) scan per level would make
        # a long path quadratic.
        if 8 * fresh.size >= n:
            frontier = np.flatnonzero(level == depth)
        else:
            frontier = np.unique(fresh)
    return level


def wcc_dense(graph_or_handle, max_rounds: Optional[int] = None) -> np.ndarray:
    """Hash-min connected components as dense scatter-min rounds.

    Equal to :func:`repro.tlav.algorithms.wcc`: every vertex ends with
    the smallest vertex id in its (weakly) connected component.
    """
    handle = as_handle(graph_or_handle)
    n = handle.num_vertices
    labels = np.arange(n, dtype=np.int64)
    rounds = n if max_rounds is None else max_rounds
    for _ in range(rounds):
        spread = labels.copy()
        # Labels travel along out-edges, exactly like the vertex program
        # (for undirected graphs the CSR holds both directions); min is
        # order-independent, so per-run scatters equal the global one.
        for lo, hi, run_ptr, run_idx in handle.iter_csr_runs():
            np.minimum.at(
                spread, run_idx, np.repeat(labels[lo:hi], np.diff(run_ptr))
            )
        if np.array_equal(spread, labels):
            break
        labels = spread
    return labels
