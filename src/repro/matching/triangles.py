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
  and closes the wedges ``u -> v -> w`` with one binary search of the
  codes ``u·n + w`` against the span's sorted edge codes; a chunk holds
  at most :data:`~repro.matching.backtrack.FRONTIER_SLOT_CAP` wedges (a
  head above the cap goes alone), so that many wedges are resident at
  once whatever the graph.  Pass an ``executor`` to fan the source range
  out across cores; orientation happens once in the caller and the
  oriented CSR is what workers share.
* :func:`triangle_count_with_work` — the *instrumented* merge-join that
  counts every adjacency comparison; bench C1 needs the comparison count
  as its work unit, so this path intentionally stays element-at-a-time.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

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


def triangle_count_with_work(graph: Graph) -> Tuple[int, int]:
    """Count triangles; also return the intersection work performed.

    The second component counts adjacency-entry comparisons — the unit
    bench C1 uses to compare against TLAV message counts.  (Kept as an
    explicit merge join: the comparison count *is* the measurement; the
    fast path lives in :func:`triangle_count`.)
    """
    oriented = graph.orient_by_degree()
    count = 0
    work = 0
    for u in oriented.vertices():
        out_u = oriented.neighbors(u)
        for v in out_u:
            out_v = oriented.neighbors(int(v))
            i = j = 0
            while i < out_u.size and j < out_v.size:
                work += 1
                a, b = out_u[i], out_v[j]
                if a == b:
                    count += 1
                    i += 1
                    j += 1
                elif a < b:
                    i += 1
                else:
                    j += 1
    return count, work


def triangle_list(graph: Graph) -> Iterator[Tuple[int, int, int]]:
    """Yield each triangle once as a sorted vertex triple."""
    oriented = graph.orient_by_degree()
    for u in oriented.vertices():
        out_u = oriented.neighbors(u)
        for v in out_u:
            v = int(v)
            out_v = oriented.neighbors(v)
            i = j = 0
            while i < out_u.size and j < out_v.size:
                a, b = int(out_u[i]), int(out_v[j])
                if a == b:
                    yield tuple(sorted((u, v, a)))
                    i += 1
                    j += 1
                elif a < b:
                    i += 1
                else:
                    j += 1
