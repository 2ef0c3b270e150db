"""Synthetic graph generators.

The surveyed systems are evaluated on large public graphs (LiveJournal,
Twitter, ogbn-products, ...).  Those datasets are not available offline,
so every benchmark in this repository runs on synthetic graphs whose
structural regimes match the originals:

* :func:`erdos_renyi` — sparse homogeneous graphs (easy case);
* :func:`barabasi_albert` — heavy-tailed degree distributions, the regime
  where load balancing and work stealing matter;
* :func:`rmat` — Kronecker-style power-law graphs, the standard stand-in
  for web/social graphs in systems papers (Graph500 uses the same model);
* :func:`watts_strogatz` — high clustering, many triangles;
* :func:`planted_partition` — graphs with ground-truth communities, used
  by the GNN node-classification benchmarks;
* :func:`random_labeled_transactions` / :func:`planted_motif_graph` —
  labeled FSM workloads with planted frequent patterns.

All generators take an explicit ``seed`` so benches are reproducible.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .csr import Graph, GraphBuilder
from .transactions import GraphTransaction

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "rmat",
    "watts_strogatz",
    "planted_partition",
    "grid_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "random_labeled_graph",
    "random_labeled_transactions",
    "planted_motif_graph",
]


def erdos_renyi(n: int, p: float, seed: int = 0, directed: bool = False) -> Graph:
    """G(n, p) random graph, sampled edge-by-edge in expectation O(pn^2)."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(directed=directed)
    builder.add_vertex(n - 1)
    if p <= 0:
        return builder.build(num_vertices=n)
    # Geometric skipping: visit only the edges that exist.
    total = n * n if directed else n * (n - 1) // 2
    k = -1
    log_q = np.log1p(-min(p, 1 - 1e-12))
    while True:
        gap = int(np.floor(np.log(rng.random()) / log_q)) if p < 1 else 0
        k += gap + 1
        if k >= total:
            break
        if directed:
            u, v = divmod(k, n)
            if u != v:
                builder.add_edge(u, v)
        else:
            # Map linear index k to the (u, v) pair with u < v.
            u = int((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * k)) // 2)
            v = k - u * (2 * n - u - 1) // 2 + u + 1
            builder.add_edge(u, v)
    return builder.build(num_vertices=n)


def barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential-attachment graph: each new vertex attaches to ``m`` others.

    Produces the heavy-tailed degree distribution under which DFS task
    skew (and hence work stealing) becomes visible.
    """
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(directed=False)
    # Endpoint pool: vertices appear once per incident edge, which makes a
    # uniform draw from the pool a degree-proportional draw.
    pool: List[int] = []
    for v in range(m):
        builder.add_edge(v, m)
        pool.extend((v, m))
    for v in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            targets.add(pool[rng.integers(len(pool))])
        for t in targets:
            builder.add_edge(v, t)
            pool.extend((v, t))
    return builder.build(num_vertices=n)


def rmat(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> Graph:
    """R-MAT / Kronecker power-law graph with ``2**scale`` vertices.

    The (a, b, c, d) defaults are the Graph500 parameters.  Duplicate
    edges and self-loops are dropped, so the edge count is slightly below
    ``edge_factor * 2**scale``.
    """
    n = 1 << scale
    num_edges = edge_factor * n
    rng = np.random.default_rng(seed)
    d = 1.0 - a - b - c
    if d < -1e-9:
        raise ValueError("a + b + c must be <= 1")
    probs = np.array([a, b, c, max(d, 0.0)])
    probs = probs / probs.sum()
    # Vectorized: draw one quadrant per (edge, level).
    quadrants = rng.choice(4, size=(num_edges, scale), p=probs)
    row_bits = (quadrants >> 1) & 1
    col_bits = quadrants & 1
    weights = 1 << np.arange(scale - 1, -1, -1)
    pairs = np.stack([row_bits @ weights, col_bits @ weights], axis=1)
    return Graph.from_edges(pairs, num_vertices=n)


def watts_strogatz(n: int, k: int, p: float, seed: int = 0) -> Graph:
    """Small-world ring lattice with rewiring; rich in triangles."""
    if k % 2 or k >= n:
        raise ValueError("k must be even and < n")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(directed=False)
    builder.add_vertex(n - 1)
    for u in range(n):
        for j in range(1, k // 2 + 1):
            v = (u + j) % n
            if rng.random() < p:
                w = int(rng.integers(n))
                while w == u:
                    w = int(rng.integers(n))
                builder.add_edge(u, w)
            else:
                builder.add_edge(u, v)
    return builder.build(num_vertices=n)


def planted_partition(
    num_communities: int,
    community_size: int,
    p_in: float,
    p_out: float,
    seed: int = 0,
) -> Tuple[Graph, np.ndarray]:
    """Stochastic block model with equal-size communities.

    Returns ``(graph, labels)`` where ``labels[v]`` is the planted
    community of ``v`` — the ground truth for the GNN node-classification
    benchmarks (the synthetic stand-in for ogbn-style datasets).
    """
    n = num_communities * community_size
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_communities), community_size)
    builder = GraphBuilder(directed=False)
    builder.add_vertex(n - 1)
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if labels[u] == labels[v] else p_out
            if rng.random() < p:
                builder.add_edge(u, v)
    graph = builder.build(num_vertices=n, vertex_labels=labels)
    return graph, labels


def grid_graph(rows: int, cols: int) -> Graph:
    """2-D grid; a sparse, low-degree graph with known structure."""
    ids = np.arange(rows * cols).reshape(rows, cols)
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    down = np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1)
    return Graph.from_edges(np.concatenate([right, down]), num_vertices=rows * cols)


def complete_graph(n: int) -> Graph:
    """K_n."""
    return Graph.from_edges(np.stack(np.triu_indices(n, 1), axis=1), num_vertices=n)


def cycle_graph(n: int) -> Graph:
    """C_n."""
    return Graph.from_edges(
        [(i, (i + 1) % n) for i in range(n)], num_vertices=n
    )


def path_graph(n: int) -> Graph:
    """P_n."""
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)], num_vertices=n)


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: one hub, n-1 leaves — the extreme skew case."""
    return Graph.from_edges([(0, i) for i in range(1, n)], num_vertices=n)


def random_labeled_graph(
    n: int,
    p: float,
    num_vertex_labels: int,
    num_edge_labels: int = 1,
    seed: int = 0,
) -> Graph:
    """G(n, p) with uniform random vertex (and optionally edge) labels."""
    rng = np.random.default_rng(seed)
    base = erdos_renyi(n, p, seed=seed + 1)
    builder = GraphBuilder(directed=False)
    builder.add_vertex(n - 1)
    for u, v in base.edges():
        label = int(rng.integers(num_edge_labels)) if num_edge_labels > 1 else 0
        builder.add_edge(u, v, label=label)
    vertex_labels = rng.integers(num_vertex_labels, size=n)
    return builder.build(num_vertices=n, vertex_labels=vertex_labels)


def random_labeled_transactions(
    num_graphs: int,
    n: int,
    p: float,
    num_vertex_labels: int,
    seed: int = 0,
    planted: Optional[Graph] = None,
    plant_fraction: float = 0.0,
    id_offset: int = 0,
) -> List[GraphTransaction]:
    """A database of small labeled graphs, optionally with a planted motif.

    This is the synthetic stand-in for molecule datasets (MUTAG, NCI1...)
    used by the FSM and graph-classification workloads.  When ``planted``
    is given, a ``plant_fraction`` share of the transactions embed it as a
    subgraph, so its pattern is guaranteed frequent.
    """
    rng = np.random.default_rng(seed)
    out: List[GraphTransaction] = []
    for g_id in range(num_graphs):
        base = random_labeled_graph(
            n, p, num_vertex_labels, seed=int(rng.integers(1 << 31))
        )
        edges = list(base.edges())
        vlabels = list(base.vertex_labels)
        if planted is not None and rng.random() < plant_fraction:
            # Embed the motif on the first k vertices with its own labels.
            k = planted.num_vertices
            if k > n:
                raise ValueError("planted motif larger than transaction")
            edges += planted.edges()
            for v in range(k):
                vlabels[v] = planted.vertex_label(v)
        graph = Graph.from_edges(edges, num_vertices=n, vertex_labels=vlabels)
        out.append(GraphTransaction(graph_id=id_offset + g_id, graph=graph))
    return out


def planted_motif_graph(
    n: int,
    p: float,
    motif: Graph,
    copies: int,
    num_vertex_labels: int,
    seed: int = 0,
) -> Graph:
    """A single big labeled graph with ``copies`` disjoint embeddings of ``motif``.

    The synthetic workload for single-graph FSM (GraMi/T-FSM regime):
    the planted motif is guaranteed to have MNI support >= ``copies``.
    """
    rng = np.random.default_rng(seed)
    k = motif.num_vertices
    if copies * k > n:
        raise ValueError("not enough vertices for the requested copies")
    edges = list(erdos_renyi(n, p, seed=seed + 7).edges())
    vlabels = list(rng.integers(num_vertex_labels, size=n))
    slots = rng.permutation(n)[: copies * k].reshape(copies, k)
    for copy in range(copies):
        mapping = slots[copy]
        edges += [(mapping[u], mapping[v]) for u, v in motif.edges()]
        for v in range(k):
            vlabels[int(mapping[v])] = motif.vertex_label(v)
    return Graph.from_edges(edges, num_vertices=n, vertex_labels=vlabels)
