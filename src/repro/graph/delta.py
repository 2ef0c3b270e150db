"""Batched structural edge deltas over the immutable CSR graph.

:class:`~repro.graph.csr.Graph` is immutable by design, so a streaming
mutation is a *rebuild*: :func:`apply_edge_updates` takes one batch of
edge inserts and deletes and produces the successor snapshot plus an
:class:`EdgeDelta` describing what actually changed — the **effective**
inserts (requested edges that were absent), the effective deletes
(requested edges that were present), and the set of vertices whose
adjacency lists differ between the two snapshots.  Everything downstream
of a mutation batch keys off the effective delta:

* the serve :class:`~repro.serve.endpoints.GraphRegistry` maps touched
  vertices to **dirty partitions** for partition-scoped cache
  invalidation;
* the incremental engines in :mod:`repro.tlav.incremental` repair only
  the state the delta perturbs (residual push sweeps,
  affected-component relabels, BFS frontier repair).

Semantics of one batch: deletes apply first, then inserts, so an edge
named in both ends up present.  Undirected edges are normalized to
``(min, max)``; self-loops and out-of-range endpoints are rejected —
a mutation batch never grows the vertex set.

:func:`random_edge_updates` is the seeded trickle generator shared by
the temporal load generator, the ``tlav.incremental.*`` check oracles,
and ``bench/``'s ``serve_mutating``: deletes are sampled from the
*current* edge set and inserts from the complement, so a stream of
batches stays consistent (no delete of an absent edge, no insert of a
present one) and is reproducible bit-for-bit at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .csr import Graph
from .kernels import csr_from_pairs, edge_array

__all__ = ["EdgeDelta", "apply_edge_updates", "random_edge_updates"]


@dataclass(frozen=True)
class EdgeDelta:
    """What one mutation batch actually changed.

    ``inserts`` / ``deletes`` are ``(k, 2)`` int64 arrays of the edges
    that were really added / removed (requests that were no-ops are
    dropped); ``touched`` is the ascending array of vertices whose
    adjacency changed.  An empty delta (``changed == False``) still
    counts as a batch — the registry bumps the epoch regardless — but
    carries the proof that the snapshot is bit-identical.
    """

    inserts: np.ndarray
    deletes: np.ndarray
    touched: np.ndarray

    @property
    def changed(self) -> bool:
        return bool(self.inserts.size or self.deletes.size)

    def dirty_partitions(self, assignment: Optional[np.ndarray]) -> frozenset:
        """Partitions owning a touched vertex (all-in-part-0 when
        ``assignment`` is ``None``, i.e. the graph is unpartitioned)."""
        if not self.touched.size:
            return frozenset()
        if assignment is None:
            return frozenset({0})
        return frozenset(
            int(p) for p in np.unique(np.asarray(assignment)[self.touched])
        )


def _as_codes(edges, n: int, directed: bool, what: str) -> np.ndarray:
    """Validate a batch side: its sorted unique codes ``src·n + dst``."""
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                     dtype=np.int64)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    arr = arr.reshape(-1, 2)
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(
            f"{what} batch names vertex outside 0..{n - 1}; mutation "
            f"batches never grow the vertex set"
        )
    if np.any(arr[:, 0] == arr[:, 1]):
        raise ValueError(f"{what} batch contains a self-loop")
    if not directed:
        arr = np.sort(arr, axis=1)
    return np.unique(arr[:, 0] * np.int64(n) + arr[:, 1])


def _pairs(codes: np.ndarray, n: int) -> np.ndarray:
    """Edge codes back to ``(k, 2)`` ``(src, dst)`` pairs."""
    return np.stack([codes // np.int64(n), codes % np.int64(n)], axis=1)


def _current_codes(graph: Graph) -> np.ndarray:
    """Codes of the graph's edges (one per undirected edge), CSR order."""
    src, dst = edge_array(graph.indptr, graph.indices)
    if not graph.directed:
        keep = src < dst
        src, dst = src[keep], dst[keep]
    return src * np.int64(graph.num_vertices) + dst


def apply_edge_updates(
    graph: Graph,
    inserts: Iterable[Tuple[int, int]] = (),
    deletes: Iterable[Tuple[int, int]] = (),
) -> Tuple[Graph, EdgeDelta]:
    """Apply one batch of edge mutations; returns ``(snapshot, delta)``.

    Deletes apply before inserts.  Requests that do not change the edge
    set (deleting an absent edge, inserting a present one) are dropped
    from the returned :class:`EdgeDelta` — callers repair incremental
    state from the *effective* change only.
    """
    if graph.edge_labels is not None:
        raise ValueError(
            "apply_edge_updates does not preserve edge labels; "
            "mutate unlabeled graphs only"
        )
    n = graph.num_vertices
    ins_codes = _as_codes(inserts, n, graph.directed, "insert")
    del_codes = _as_codes(deletes, n, graph.directed, "delete")
    current = _current_codes(graph)

    del_codes = del_codes[np.isin(del_codes, current, assume_unique=True)]
    after_del = current[~np.isin(current, del_codes, assume_unique=True)]
    ins_codes = ins_codes[~np.isin(ins_codes, after_del, assume_unique=True)]
    ins, dels = _pairs(ins_codes, n), _pairs(del_codes, n)

    rows, cols = np.divmod(np.concatenate([after_del, ins_codes]), n)
    indptr, indices, _ = csr_from_pairs(rows, cols, (n, n), directed=graph.directed)
    new_graph = Graph(
        indptr, indices, directed=graph.directed,
        vertex_labels=graph.vertex_labels,
    )
    touched = np.unique(np.concatenate([ins.ravel(), dels.ravel()]))
    return new_graph, EdgeDelta(inserts=ins, deletes=dels, touched=touched)


def random_edge_updates(
    graph: Graph,
    num_batches: int,
    edge_fraction: float = 0.01,
    seed: int = 0,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Seeded trickle: ``num_batches`` consistent (inserts, deletes) pairs.

    Each batch deletes ``edge_fraction`` of the *current* edges and
    inserts the same number of fresh non-edges (endpoints drawn
    uniformly), so the edge count stays roughly stationary and every
    delete/insert is effective by construction.  The batch size is
    capped at the size of the non-edge complement, so near-complete
    graphs produce smaller (possibly empty) batches instead of
    sampling forever.  Deterministic at a fixed seed.
    """
    if num_batches < 0:
        raise ValueError("num_batches must be >= 0")
    if graph.directed:
        raise ValueError("random_edge_updates expects an undirected graph")
    n = graph.num_vertices
    max_pairs = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    present = set(int(c) for c in _current_codes(graph))
    batches: List[Tuple[np.ndarray, np.ndarray]] = []
    for _ in range(int(num_batches)):
        k = max(1, int(round(edge_fraction * len(present))))
        k = min(k, max_pairs - len(present))
        pool = np.sort(np.fromiter(present, dtype=np.int64))
        victims = pool[rng.choice(pool.size, size=min(k, pool.size),
                                  replace=False)]
        dels = _pairs(victims, n)
        ins_set = set()
        while len(ins_set) < k:
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            if u == v:
                continue
            code = min(u, v) * n + max(u, v)
            if code in present or code in ins_set:
                continue
            ins_set.add(code)
        ins_codes = np.sort(np.fromiter(ins_set, dtype=np.int64))
        ins = _pairs(ins_codes, n)
        present.difference_update(int(c) for c in victims)
        present.update(int(c) for c in ins_codes)
        batches.append((ins, dels))
    return batches
