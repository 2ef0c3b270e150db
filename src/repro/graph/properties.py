"""Classic structural vertex properties.

These are the "vertex features ... computed based on the graph topology"
of the tutorial's Figure-1 pipeline (in/out-degrees, clustering
coefficient, core numbers), implemented serially.  The TLAV engine in
:mod:`repro.tlav` re-implements several of them as vertex programs; the
tests cross-check the two.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..matching import backtrack
from . import kernels
from .csr import Graph

__all__ = [
    "connected_components",
    "num_connected_components",
    "clustering_coefficients",
    "core_numbers",
    "bfs_levels",
    "triangle_count_per_vertex",
    "modularity",
]


def connected_components(graph: Graph) -> np.ndarray:
    """Label vertices by connected component (undirected), via BFS.

    Returns an ``int64`` array ``comp`` where ``comp[v]`` is the smallest
    vertex id in ``v``'s component.
    """
    n = graph.num_vertices
    comp = np.full(n, -1, dtype=np.int64)
    for source in range(n):
        if comp[source] >= 0:
            continue
        comp[source] = source
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                w = int(w)
                if comp[w] < 0:
                    comp[w] = source
                    queue.append(w)
    return comp


def num_connected_components(graph: Graph) -> int:
    """Number of connected components."""
    comp = connected_components(graph)
    return int(np.unique(comp).size)


def clustering_coefficients(graph: Graph) -> np.ndarray:
    """Local clustering coefficient per vertex.

    ``c(v) = 2 * tri(v) / (d(v) * (d(v) - 1))`` with ``c(v) = 0`` for
    degree < 2.
    """
    tri = triangle_count_per_vertex(graph)
    deg = graph.degrees().astype(np.float64)
    denom = deg * (deg - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = np.where(denom > 0, 2.0 * tri / denom, 0.0)
    return coeff


def triangle_count_per_vertex(graph: Graph) -> np.ndarray:
    """Number of triangles incident to each vertex.

    Closes every wedge of the degree-ordered orientation (see
    :meth:`Graph.orient_by_degree`) with the chunked kernel
    :func:`~repro.graph.kernels.closed_wedges`, which yields each
    triangle exactly once, and credits all three corners with one
    ``bincount`` per chunk.
    """
    n = graph.num_vertices
    tri = np.zeros(n, dtype=np.int64)
    oriented = graph.orient_by_degree()
    for u, v, w in kernels.closed_wedges(
        oriented.indptr, oriented.indices, 0, n, backtrack.FRONTIER_SLOT_CAP
    ):
        tri += np.bincount(np.concatenate((u, v, w)), minlength=n)
    return tri


def core_numbers(graph: Graph) -> np.ndarray:
    """k-core decomposition (Batagelj–Zaveršnik peeling)."""
    n = graph.num_vertices
    degree = graph.degrees().copy()
    core = np.zeros(n, dtype=np.int64)
    removed = np.zeros(n, dtype=bool)
    heap = [(int(degree[v]), v) for v in range(n)]
    heapq.heapify(heap)
    current = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != degree[v]:
            continue  # stale heap entry
        removed[v] = True
        current = max(current, d)
        core[v] = current
        for w in graph.neighbors(v):
            w = int(w)
            if not removed[w]:
                degree[w] -= 1
                heapq.heappush(heap, (int(degree[w]), w))
    return core


def bfs_levels(graph: Graph, source: int) -> np.ndarray:
    """BFS distance from ``source``; unreachable vertices get ``-1``."""
    n = graph.num_vertices
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            w = int(w)
            if level[w] < 0:
                level[w] = level[u] + 1
                queue.append(w)
    return level


def modularity(graph: Graph, labels) -> float:
    """Newman modularity of a vertex labeling.

    ``Q = (1/2m) * sum_{uv} (A_uv - d_u d_v / 2m) [c_u == c_v]`` — the
    standard quality score for community detection output (used to
    evaluate the label-propagation and embedding pipelines).

    Fully vectorized: one pass over the CSR edge arrays for the internal
    edge count and one ``bincount`` for the per-community degree mass.
    """
    labels = np.asarray(labels)
    m = graph.num_edges
    if m == 0:
        return 0.0
    deg = graph.degrees().astype(np.float64)
    src, dst = kernels.edge_array(graph.indptr, graph.indices)
    if not graph.directed:
        once = src < dst  # each undirected edge appears twice in the CSR
        src, dst = src[once], dst[once]
    internal = float(np.count_nonzero(labels[src] == labels[dst]))
    _, community = np.unique(labels, return_inverse=True)
    community_degree = np.bincount(community, weights=deg)
    degree_term = float(np.square(community_degree).sum())
    return internal / m - degree_term / (4.0 * m * m)
