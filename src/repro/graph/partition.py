"""Graph partitioners.

The tutorial's Section 3 attributes much of the variance between
distributed GNN systems to how they place graph data:

* **hash** — the baseline every system starts from (DistDGL's default
  before METIS, Euler);
* **metis_like** — a from-scratch multilevel edge-cut partitioner
  (heavy-edge-matching coarsening, greedy initial partition, boundary
  refinement), standing in for METIS [19] as used by DistDGL and DGCL;
* **bfs_voronoi** — the ByteGNN/BGL heuristic: over-partition the graph
  into small blocks by multi-source BFS from training-seed vertices
  (the graph Voronoi diagram of the seeds) and stream blocks to workers
  balancing load;
* **vertex_cut** — a greedy minimum-vertex-cut-flavoured edge
  partitioner in the spirit of DistGNN's communication-reducing setup;
* **range** — contiguous id ranges, the locality-oblivious strawman.

Every partitioner returns a :class:`Partition`, and quality is compared
with :func:`edge_cut_fraction` / :func:`replication_factor` — the same
metrics the systems papers report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .csr import Graph

__all__ = [
    "Partition",
    "hash_assignment",
    "range_assignment",
    "hash_partition",
    "range_partition",
    "metis_like_partition",
    "bfs_voronoi_partition",
    "vertex_cut_partition",
    "edge_cut_fraction",
    "replication_factor",
    "replica_sets",
    "balance",
]


@dataclass
class Partition:
    """An assignment of vertices to ``num_parts`` workers.

    ``assignment[v]`` is the worker owning vertex ``v``.  For vertex-cut
    partitioners, ``edge_assignment`` maps each undirected edge ``(u, v)``
    (with ``u < v``) to a worker and vertices may be replicated; the
    ``assignment`` array then records each vertex's *primary* copy.
    """

    num_parts: int
    assignment: np.ndarray
    edge_assignment: Optional[Dict[tuple, int]] = None
    blocks: Optional[List[List[int]]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= self.num_parts
        ):
            raise ValueError("assignment references a worker out of range")

    def part(self, k: int) -> np.ndarray:
        """Vertex ids owned by worker ``k``."""
        return np.nonzero(self.assignment == k)[0]

    def sizes(self) -> np.ndarray:
        """Vertices per worker."""
        return np.bincount(self.assignment, minlength=self.num_parts)


def hash_assignment(num_vertices: int, num_parts: int, seed: int = 0) -> np.ndarray:
    """Owner of each id ``0..num_vertices-1`` by a salted multiplicative hash.

    Needs only the vertex count, so streaming store builds share it.
    """
    ids = np.arange(num_vertices, dtype=np.uint64)
    salt = np.uint64(0x9E3779B97F4A7C15 + seed)
    mixed = (ids + salt) * np.uint64(0xBF58476D1CE4E5B9)
    mixed ^= mixed >> np.uint64(31)
    return (mixed % np.uint64(num_parts)).astype(np.int64)


def range_assignment(num_vertices: int, num_parts: int) -> np.ndarray:
    """Owner of each id ``0..num_vertices-1`` by contiguous, equal-size ranges."""
    bounds = np.linspace(0, num_vertices, num_parts + 1).astype(np.int64)
    return np.repeat(np.arange(num_parts, dtype=np.int64), np.diff(bounds))


def hash_partition(graph: Graph, num_parts: int, seed: int = 0) -> Partition:
    """Pseudo-random assignment by a salted multiplicative hash."""
    return Partition(num_parts, hash_assignment(graph.num_vertices, num_parts, seed))


def range_partition(graph: Graph, num_parts: int) -> Partition:
    """Contiguous, equal-size id ranges."""
    return Partition(num_parts, range_assignment(graph.num_vertices, num_parts))


# ----------------------------------------------------------------------
# Multilevel edge-cut partitioner (METIS-like)
# ----------------------------------------------------------------------


def metis_like_partition(
    graph: Graph,
    num_parts: int,
    seed: int = 0,
    coarsen_until: int = 64,
    refine_passes: int = 4,
) -> Partition:
    """Multilevel edge-cut partitioning in the METIS style.

    Three phases, as in Karypis & Kumar [19]:

    1. *Coarsening* — repeatedly contract a heavy-edge matching until the
       graph is small (vertex/edge weights accumulate);
    2. *Initial partitioning* — greedy BFS-grown regions on the coarsest
       graph, balanced by accumulated vertex weight;
    3. *Uncoarsening + refinement* — project the partition back up,
       applying boundary-vertex greedy refinement (a light-weight
       Kernighan–Lin/Fiduccia–Mattheyses pass) at every level.
    """
    if num_parts <= 1:
        return Partition(max(num_parts, 1), np.zeros(graph.num_vertices, dtype=np.int64))
    rng = np.random.default_rng(seed)

    # Adjacency with weights, as dict-of-dicts for the coarsening phase.
    adj: List[Dict[int, int]] = [dict() for _ in graph.vertices()]
    for u, v in graph.edges():
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    vweight = [1] * graph.num_vertices

    levels = []  # (mapping fine->coarse, fine_adj, fine_vweight)
    while len(adj) > max(coarsen_until, 4 * num_parts):
        mapping, coarse_adj, coarse_vw = _contract_heavy_edge_matching(
            adj, vweight, rng
        )
        if len(coarse_adj) == len(adj):  # no contraction possible
            break
        levels.append((mapping, adj, vweight))
        adj, vweight = coarse_adj, coarse_vw

    assignment = _greedy_region_grow(adj, vweight, num_parts, rng)
    assignment = _refine(adj, vweight, assignment, num_parts, refine_passes)

    # Project back through the levels, refining at each.
    for mapping, fine_adj, fine_vw in reversed(levels):
        fine_assignment = np.asarray(
            [assignment[mapping[v]] for v in range(len(fine_adj))], dtype=np.int64
        )
        assignment = _refine(fine_adj, fine_vw, fine_assignment, num_parts, refine_passes)

    return Partition(num_parts, assignment)


def _contract_heavy_edge_matching(adj, vweight, rng):
    """One coarsening level: match each vertex to its heaviest unmatched neighbor."""
    n = len(adj)
    match = [-1] * n
    order = rng.permutation(n)
    for u in order:
        u = int(u)
        if match[u] >= 0:
            continue
        best, best_w = -1, -1
        for v, w in adj[u].items():
            if match[v] < 0 and v != u and w > best_w:
                best, best_w = v, w
        if best >= 0:
            match[u], match[best] = best, u
    mapping = [-1] * n
    next_id = 0
    for u in range(n):
        if mapping[u] >= 0:
            continue
        mapping[u] = next_id
        if match[u] >= 0:
            mapping[match[u]] = next_id
        next_id += 1
    coarse_adj: List[Dict[int, int]] = [dict() for _ in range(next_id)]
    coarse_vw = [0] * next_id
    for u in range(n):
        cu = mapping[u]
        coarse_vw[cu] += vweight[u]
        for v, w in adj[u].items():
            cv = mapping[v]
            if cu != cv:
                coarse_adj[cu][cv] = coarse_adj[cu].get(cv, 0) + w
    return mapping, coarse_adj, coarse_vw


def _greedy_region_grow(adj, vweight, num_parts, rng):
    """BFS-grow balanced regions for the initial partition."""
    n = len(adj)
    total = sum(vweight)
    target = total / num_parts
    assignment = np.full(n, -1, dtype=np.int64)
    unassigned = set(range(n))
    for k in range(num_parts):
        if not unassigned:
            break
        seed_v = int(rng.choice(sorted(unassigned)))
        queue = deque([seed_v])
        weight = 0
        while queue and weight < target:
            u = queue.popleft()
            if assignment[u] >= 0:
                continue
            assignment[u] = k
            unassigned.discard(u)
            weight += vweight[u]
            for v in adj[u]:
                if assignment[v] < 0:
                    queue.append(v)
        # Region ran out of frontier: jump to another unassigned seed.
        while weight < target and unassigned and k < num_parts - 1:
            u = unassigned.pop()
            assignment[u] = k
            weight += vweight[u]
    for u in list(unassigned):
        assignment[u] = num_parts - 1
    return assignment


def _refine(adj, vweight, assignment, num_parts, passes):
    """Greedy boundary refinement with a balance guard."""
    assignment = assignment.copy()
    part_weight = np.zeros(num_parts, dtype=np.int64)
    for u, w in enumerate(vweight):
        part_weight[assignment[u]] += w
    max_weight = int(1.1 * part_weight.sum() / num_parts) + 1
    for _ in range(passes):
        moved = 0
        for u in range(len(adj)):
            here = int(assignment[u])
            # Gain of moving u to each neighboring part.
            link = {}
            for v, w in adj[u].items():
                link[int(assignment[v])] = link.get(int(assignment[v]), 0) + w
            internal = link.get(here, 0)
            best_part, best_gain = here, 0
            for cand, external in link.items():
                if cand == here:
                    continue
                if part_weight[cand] + vweight[u] > max_weight:
                    continue
                gain = external - internal
                if gain > best_gain:
                    best_part, best_gain = cand, gain
            if best_part != here:
                part_weight[here] -= vweight[u]
                part_weight[best_part] += vweight[u]
                assignment[u] = best_part
                moved += 1
        if not moved:
            break
    return assignment


# ----------------------------------------------------------------------
# BFS-Voronoi streaming blocks (ByteGNN / BGL)
# ----------------------------------------------------------------------


def bfs_voronoi_partition(
    graph: Graph,
    num_parts: int,
    seeds: Sequence[int],
    seed: int = 0,
) -> Partition:
    """Over-partition into seed-rooted BFS blocks, then stream to workers.

    ByteGNN [71] and BGL [22] observe that GNN training touches only the
    few-hop neighborhoods of train/validation/test seed vertices, so a
    global minimum edge cut is the wrong objective.  Instead they run
    simultaneous BFS from every seed until the BFS frontiers meet (the
    graph Voronoi diagram of the seeds), producing many small blocks, and
    then greedily stream blocks to the least-loaded worker.

    Vertices unreachable from any seed are swept into the smallest block's
    worker at the end.
    """
    n = graph.num_vertices
    block_of = np.full(n, -1, dtype=np.int64)
    queue = deque()
    for b, s in enumerate(seeds):
        s = int(s)
        if block_of[s] < 0:
            block_of[s] = b
            queue.append(s)
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            w = int(w)
            if block_of[w] < 0:
                block_of[w] = block_of[u]
                queue.append(w)

    num_blocks = len(seeds)
    blocks: List[List[int]] = [[] for _ in range(num_blocks)]
    stragglers: List[int] = []
    for v in range(n):
        if block_of[v] >= 0:
            blocks[int(block_of[v])].append(v)
        else:
            stragglers.append(v)

    # Greedy streaming assignment: largest block first to least-loaded worker.
    order = sorted(range(num_blocks), key=lambda b: -len(blocks[b]))
    load = np.zeros(num_parts, dtype=np.int64)
    assignment = np.zeros(n, dtype=np.int64)
    for b in order:
        k = int(np.argmin(load))
        for v in blocks[b]:
            assignment[v] = k
        load[k] += len(blocks[b])
    for v in stragglers:
        k = int(np.argmin(load))
        assignment[v] = k
        load[k] += 1
    return Partition(num_parts, assignment, blocks=blocks)


# ----------------------------------------------------------------------
# Greedy vertex-cut (DistGNN-flavoured)
# ----------------------------------------------------------------------


def vertex_cut_partition(graph: Graph, num_parts: int, seed: int = 0) -> Partition:
    """Greedy vertex-cut edge partitioning (PowerGraph-style greedy).

    Edges are placed one at a time on the worker that already holds copies
    of the most endpoints (ties broken by load), replicating vertices when
    necessary.  DistGNN [27] argues a minimum *vertex* cut reduces the
    aggregate feature traffic for full-graph GNN training; the greedy rule
    here is the standard streaming approximation.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    replicas: List[set] = [set() for _ in range(n)]
    load = np.zeros(num_parts, dtype=np.int64)
    edge_assignment: Dict[tuple, int] = {}
    edges = list(graph.edges())
    rng.shuffle(edges)
    for u, v in edges:
        ru, rv = replicas[u], replicas[v]
        both = ru & rv
        if both:
            k = min(both, key=lambda c: (load[c], c))
        elif ru or rv:
            candidates = ru | rv
            k = min(candidates, key=lambda c: (load[c], c))
        else:
            k = int(np.argmin(load))
        edge_assignment[(min(u, v), max(u, v))] = int(k)
        ru.add(int(k))
        rv.add(int(k))
        load[k] += 1
    assignment = np.zeros(n, dtype=np.int64)
    for v in range(n):
        if replicas[v]:
            assignment[v] = min(replicas[v])
    return Partition(num_parts, assignment, edge_assignment=edge_assignment)


# ----------------------------------------------------------------------
# Quality metrics
# ----------------------------------------------------------------------


def replica_sets(graph: Graph, partition: Partition) -> List[set]:
    """Workers holding a copy of each vertex, per the partition kind.

    For edge (vertex-cut) partitions the replica set is exactly the
    workers owning one of the vertex's edges; isolated vertices live
    only on their assigned worker.  For vertex partitions a vertex is
    replicated on its owner plus every worker owning a neighbor (the
    halo the GNN gather step must fetch).
    """
    n = graph.num_vertices
    replicas: List[set] = [set() for _ in range(n)]
    if partition.edge_assignment is not None:
        for (u, v), k in partition.edge_assignment.items():
            replicas[u].add(int(k))
            replicas[v].add(int(k))
        for v in range(n):
            if not replicas[v]:
                replicas[v].add(int(partition.assignment[v]))
        return replicas
    for v in range(n):
        replicas[v].add(int(partition.assignment[v]))
        for w in graph.neighbors(v):
            replicas[v].add(int(partition.assignment[int(w)]))
    return replicas


def edge_cut_fraction(graph: Graph, partition: Partition) -> float:
    """Fraction of edges whose endpoints share no worker.

    For vertex partitions this is the classic cut (endpoints assigned
    to different workers).  For vertex-cut (edge) partitions every edge
    is wholly local to the worker it is assigned to — that worker holds
    replicas of both endpoints by construction — so the cut is 0 and
    the communication cost shows up in :func:`replication_factor`
    instead.  (Deciding via ``partition.assignment`` alone reported the
    phantom vertex-hash cut for vertex-cut partitions.)
    """
    if graph.num_edges == 0:
        return 0.0
    if partition.edge_assignment is not None:
        replicas = replica_sets(graph, partition)
        cut = sum(
            1 for u, v in graph.edges() if replicas[u].isdisjoint(replicas[v])
        )
    else:
        cut = sum(
            1
            for u, v in graph.edges()
            if partition.assignment[u] != partition.assignment[v]
        )
    return cut / graph.num_edges


def replication_factor(graph: Graph, partition: Partition) -> float:
    """Average number of workers holding a copy of each vertex.

    For edge partitions this reads the replica sets implied by
    ``edge_assignment``; for vertex partitions a vertex is replicated on
    every worker that owns one of its neighbors (the halo the GNN gather
    step must fetch).
    """
    n = graph.num_vertices
    if n == 0:
        return 0.0
    return sum(len(r) for r in replica_sets(graph, partition)) / n


def balance(partition: Partition) -> float:
    """Max part size over average part size (1.0 is perfect)."""
    sizes = partition.sizes()
    if sizes.sum() == 0:
        return 1.0
    return float(sizes.max() / (sizes.sum() / partition.num_parts))
