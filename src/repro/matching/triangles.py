"""Triangle counting/listing (the Chu & Cheng [9] argument).

The tutorial's Section 1 cites triangle counting as the canonical case
where a well-engineered serial algorithm embarrasses massive
parallelism: Chu & Cheng's external-memory listing took 0.5 minutes
where the state-of-the-art MapReduce job took 5.33 minutes on 1636
machines.  The in-memory core of that algorithm is degree-ordered
adjacency intersection:

1. orient each edge from the lower-(degree, id) endpoint to the higher;
2. for every directed edge ``u -> v``, intersect the out-neighborhoods
   of ``u`` and ``v``; every common vertex closes one triangle, counted
   exactly once.

Total work is ``sum over edges of min-degree`` = O(m^1.5) worst case and
near-linear on power-law graphs.  Bench C1 compares this against the
TLAV triangle program's message volume.

Two execution paths:

* :func:`triangle_count` — the hot path: one chunked wedge-closure
  kernel (:func:`repro.graph.kernels.closed_wedges`) over the oriented
  edges ``u -> v`` of a source span.  Each chunk of edges gathers the
  out-neighborhoods ``w`` of its heads ``v`` in one frontier expansion
  and closes the wedges ``u -> v -> w`` with one lookup of the codes
  ``u·n + w`` in a presence-filtered index of the span's sorted edge
  codes (:class:`~repro.graph.kernels.PresenceIndex`: a hashed table
  drops most open wedges, a binary search decides the rest); a chunk
  holds at most :data:`~repro.matching.backtrack.FRONTIER_SLOT_CAP`
  wedges (a head above the cap goes alone), so that many wedges are
  resident at once whatever the graph.  Pass an ``executor`` to fan the
  source range out across cores; the graph caches its orientation, so
  repeat counts reuse one oriented CSR and the pool shares it once.
* :func:`triangle_count_with_work` — the *instrumented* merge-join that
  counts every adjacency comparison; bench C1 needs the comparison count
  as its work unit, so this path intentionally stays element-at-a-time.
  It, :func:`triangle_list` and the task engine's
  :class:`~repro.tlag.programs.TriangleProgram` share one oriented
  merge join, :func:`merge_join`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.kernels import closed_wedges
from ..graph.store.handle import as_handle
from . import backtrack

__all__ = ["triangle_count", "triangle_list", "triangle_count_with_work"]


def _count_span_task(oriented: Graph, span: Tuple[int, int]) -> int:
    """Triangles whose lowest-(degree, id) corner lies in ``[lo, hi)``."""
    lo, hi = span
    return sum(
        int(u.size)
        for u, _, _ in closed_wedges(
            oriented.indptr, oriented.indices, lo, hi, backtrack.FRONTIER_SLOT_CAP
        )
    )


def triangle_count(
    graph_or_handle,
    executor: Optional["ParallelExecutor"] = None,
) -> int:
    """Number of distinct triangles.

    With an ``executor`` the oriented source range is chunked and counted
    on real cores; every triangle is counted at exactly one source, so
    chunk sums equal the serial count under any backend.  Orientation
    reorders the whole CSR, so a stored handle is materialized first.
    """
    handle = as_handle(graph_or_handle)
    oriented = handle.to_graph().orient_by_degree()
    n = oriented.num_vertices
    if executor is None:
        return _count_span_task(oriented, (0, n))
    return sum(executor.map_spans(_count_span_task, oriented, n))


def merge_join(out_u: np.ndarray, out_v: np.ndarray) -> Tuple[List[int], int]:
    """The common entries of two sorted out-neighborhoods (each closes one
    oriented triangle) and the comparisons a merge join makes to find them."""
    a, b = out_u.tolist(), out_v.tolist()
    common: List[int] = []
    i = j = comparisons = 0
    while i < len(a) and j < len(b):
        comparisons += 1
        if a[i] == b[j]:
            common.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return common, comparisons


def triangle_count_with_work(graph: Graph) -> Tuple[int, int]:
    """Count triangles; also return the intersection work performed.

    The second component counts adjacency-entry comparisons — the unit
    bench C1 uses to compare against TLAV message counts.  (Kept as an
    explicit merge join: the comparison count *is* the measurement; the
    fast path lives in :func:`triangle_count`.)
    """
    oriented = graph.orient_by_degree()
    count = work = 0
    for u in oriented.vertices():
        out_u = oriented.neighbors(u)
        for v in out_u.tolist():
            common, comparisons = merge_join(out_u, oriented.neighbors(v))
            count += len(common)
            work += comparisons
    return count, work


def triangle_list(graph: Graph) -> Iterator[Tuple[int, int, int]]:
    """Yield each triangle once as a sorted vertex triple."""
    oriented = graph.orient_by_degree()
    for u in oriented.vertices():
        out_u = oriented.neighbors(u)
        for v in out_u.tolist():
            for w in merge_join(out_u, oriented.neighbors(v))[0]:
                yield tuple(sorted((u, v, w)))
