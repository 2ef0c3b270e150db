"""k-truss decomposition.

Trusses are the other canonical dense-substructure workload of the
TLAG/G-thinker ecosystem (alongside cliques and quasi-cliques): the
k-truss of a graph is its maximal subgraph in which every edge lies on
at least ``k - 2`` triangles.  Unlike cliques, the decomposition is
polynomial — the standard peeling algorithm below — which makes it the
"cheap" structural primitive pipelines use for community seeding.

* :func:`truss_numbers` — the trussness of every edge (the largest k
  whose k-truss contains it), by iterative support peeling;
* :func:`k_truss` — the edge set of the k-truss;
* :func:`max_truss` — the largest k with a non-empty k-truss (0 if none).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..graph.csr import Graph

__all__ = ["truss_numbers", "k_truss", "max_truss"]


def _edge_key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def truss_numbers(graph: Graph) -> Dict[Tuple[int, int], int]:
    """Trussness of every edge by support peeling.

    An edge's support is the number of triangles through it in the
    *remaining* graph; peeling removes minimum-support edges, assigning
    trussness ``support + 2`` monotonically (Wang & Cheng's algorithm).
    """
    if graph.directed:
        raise ValueError("truss decomposition is defined for undirected graphs")
    adj: List[Set[int]] = [
        set(int(w) for w in graph.neighbors(v)) for v in graph.vertices()
    ]
    support: Dict[Tuple[int, int], int] = {}
    for u, v in graph.edges():
        support[_edge_key(u, v)] = len(adj[u] & adj[v])

    trussness: Dict[Tuple[int, int], int] = {}
    remaining = set(support)
    current_k = 2
    while remaining:
        # Peel all edges whose support cannot reach the next level.
        min_support = min(support[e] for e in remaining)
        current_k = max(current_k, min_support + 2)
        peel = [e for e in remaining if support[e] <= current_k - 2]
        while peel:
            edge = peel.pop()
            if edge not in remaining:
                continue
            remaining.discard(edge)
            trussness[edge] = current_k
            u, v = edge
            # Removing (u, v) lowers the support of edges in its triangles.
            for w in adj[u] & adj[v]:
                for other in (_edge_key(u, w), _edge_key(v, w)):
                    if other in remaining:
                        support[other] -= 1
                        if support[other] <= current_k - 2:
                            peel.append(other)
            adj[u].discard(v)
            adj[v].discard(u)
    return trussness


def k_truss(graph: Graph, k: int) -> Set[Tuple[int, int]]:
    """Edges of the k-truss (every edge in >= k - 2 triangles within it)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return {e for e, t in truss_numbers(graph).items() if t >= k}


def max_truss(graph: Graph) -> int:
    """The largest k with a non-empty k-truss.

    2 for a triangle-free graph with edges; 0 for a graph with no edges,
    whose every k-truss is empty.
    """
    return max(truss_numbers(graph).values(), default=0)
