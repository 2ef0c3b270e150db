"""Incremental recomputation for streamed edge mutations.

The batch engines in :mod:`repro.tlav.algorithms` recompute from
scratch on every snapshot; under a sustained update trickle that is
the dominant avoidable cost (Ammar & Özsu's experimental analysis, and
the dynamic-processing thread of the Vatter et al. survey).  This
module maintains three classic analytics *incrementally*: each
maintainer owns its snapshot, consumes raw ``(inserts, deletes)``
batches through :func:`~repro.graph.delta.apply_edge_updates`, and
repairs only the state the effective delta perturbs.

* :class:`IncrementalPageRank` — residual pushes over the invariant
  ``r = b + d·A^T D^{-1} p − p`` as a **synchronous frontier sweep**
  (each round pushes every vertex with ``|r_v| > tol``): an edge batch
  retracts the touched vertices' old shares, grants the new ones and
  sweeps until every ``|r_v| ≤ tol`` — within ``O(n·tol/(1-d))`` of
  the exact fixed point the ``tlav.incremental.pagerank_vs_scratch``
  oracle solves for.
* :class:`IncrementalWCC` — min-label components under insertions by
  eager union (relabel the losing component), under deletions by
  **affected-component repair**: only components that lost an edge are
  re-labeled, everything else keeps its label untouched.  Labels are
  bit-identical to :func:`~repro.tlav.algorithms.wcc` at every epoch.
* :class:`IncrementalBFS` — levels from a fixed source repaired with
  the Ramalingam–Reps two-phase scheme: invalidate the closure of
  vertices whose parent chain broke (processed in level order), re-run
  a bounded multi-source BFS from the surviving boundary, then relax
  insert-created shortcuts to the exact fixpoint.  Bit-identical to
  :func:`~repro.tlav.algorithms.bfs` at every epoch.

WCC and BFS refuse directed graphs.  Every maintainer counts the work
it does (vertex pushes, relabels, repaired vertices) so a benchmark can
report per-update cost next to the recompute-per-epoch baseline it
replaces.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.delta import EdgeDelta, apply_edge_updates
from ..graph.kernels import expand_frontier
from ..graph.store.handle import as_handle

__all__ = ["IncrementalPageRank", "IncrementalWCC", "IncrementalBFS"]

_UNREACHED = np.iinfo(np.int64).max


def _spread(graph: Graph, vertices: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """``mass[k] / deg(vertices[k])`` summed onto each out-neighbor; a
    vertex without out-edges leaks its mass."""
    indptr = graph.indptr
    owners, nbrs = expand_frontier(indptr, graph.indices, vertices)
    deg = indptr[vertices + 1] - indptr[vertices]
    share = mass / np.maximum(deg, 1)
    return np.bincount(nbrs, weights=share[owners], minlength=graph.num_vertices)


class _Maintainer:
    """Shared snapshot plumbing: own the graph, apply effective deltas."""

    #: Set where the repair reads adjacency as symmetric.
    undirected_only = False

    def __init__(self, graph_or_handle: Any) -> None:
        self.graph = as_handle(graph_or_handle).to_graph()
        if self.undirected_only and self.graph.directed:
            raise ValueError(f"{type(self).__name__} expects an undirected graph")
        self.epoch = 0

    def apply(
        self,
        inserts: Iterable[Tuple[int, int]] = (),
        deletes: Iterable[Tuple[int, int]] = (),
    ) -> EdgeDelta:
        """Advance one batch: mutate the snapshot, repair the state."""
        old = self.graph
        self.graph, delta = apply_edge_updates(old, inserts, deletes)
        self.epoch += 1
        if delta.changed:
            self._repair(old, delta)
        return delta

    def _repair(self, old: Graph, delta: EdgeDelta) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Delta PageRank: synchronous frontier sweeps of residual pushes
# ----------------------------------------------------------------------


class IncrementalPageRank(_Maintainer):
    """PageRank tracked through edge batches by residual pushing.

    State is ``(p, r)`` with the invariant that ``p + push(r)`` solves
    ``p = (1 - damping)/n + damping · Σ_{u→v} p_u / deg(u)`` (dangling
    vertices leak their damping mass; :meth:`scores` renormalizes).
    ``tol`` bounds the residual left behind, hence the distance to the
    exact fixed point: ``O(n · tol / (1 - damping))``.  ``pushes``
    counts vertex pushes, summed over sweep rounds.
    """

    def __init__(
        self,
        graph_or_handle: Any,
        damping: float = 0.85,
        tol: float = 1e-10,
    ) -> None:
        super().__init__(graph_or_handle)
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        if tol <= 0.0:
            raise ValueError("tol must be > 0")
        self.damping = float(damping)
        self.tol = float(tol)
        n = self.graph.num_vertices
        self.p = np.zeros(n, dtype=np.float64)
        self.r = np.full(n, (1.0 - self.damping) / max(n, 1), dtype=np.float64)
        self.pushes = 0
        self._push()

    def _push(self) -> None:
        """Synchronous sweep: each round pushes every vertex above
        ``tol`` at once, until every ``|r_v| ≤ tol``.  ``Σ|r|`` falls by
        more than ``(1 - damping) · tol`` per push, so it terminates."""
        p, r = self.p, self.r
        while True:
            active = np.flatnonzero(np.abs(r) > self.tol)
            if not active.size:
                return
            self.pushes += int(active.size)
            mass = r[active]
            p[active] += mass
            r[active] = 0.0
            r += _spread(self.graph, active, self.damping * mass)

    def _repair(self, old: Graph, delta: EdgeDelta) -> None:
        # Re-aim each touched vertex's outgoing share: retract
        # p_u/deg_old from the old neighbor lists and grant p_u/deg_new
        # over the new ones, then sweep to tolerance.
        touched = delta.touched
        mass = self.damping * self.p[touched]
        self.r -= _spread(old, touched, mass)
        self.r += _spread(self.graph, touched, mass)
        self._push()

    def scores(self) -> np.ndarray:
        """Current estimate, normalized to sum to 1."""
        total = float(self.p.sum())
        return self.p / total if total > 0 else self.p.copy()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "pushes": self.pushes,
            "residual": float(np.abs(self.r).max(initial=0.0)),
        }


# ----------------------------------------------------------------------
# Incremental WCC: union on insert, affected-component repair on delete
# ----------------------------------------------------------------------


class IncrementalWCC(_Maintainer):
    """Min-vertex-id component labels maintained through edge batches."""

    undirected_only = True

    def __init__(self, graph_or_handle: Any) -> None:
        super().__init__(graph_or_handle)
        n = self.graph.num_vertices
        self.labels = np.full(n, -1, dtype=np.int64)
        self.relabeled = 0
        self._explore(np.ones(n, dtype=bool))

    def _explore(self, region: np.ndarray) -> None:
        """Recompute labels inside ``region`` (a vertex mask): the
        minimum id of each component of the region-induced subgraph.

        Scatter-min rounds over the region's edges plus pointer jumping
        (``label[v] ← label[label[v]]``, sound because a label is always
        an id ``≤ v`` in ``v``'s own component).
        """
        verts = np.flatnonzero(region)
        local = np.cumsum(region) - 1  # region-local id (ascending order)
        src, nbrs = expand_frontier(self.graph.indptr, self.graph.indices, verts)
        inside = region[nbrs]
        src, dst = src[inside], local[nbrs[inside]]
        own = np.arange(verts.size, dtype=np.int64)
        lab = own.copy()
        while True:
            before = lab.copy()
            np.minimum.at(lab, dst, lab[src])
            lab = lab[lab]
            if np.array_equal(lab, before):
                break
        self.labels[verts] = verts[lab]
        self.relabeled += int(np.count_nonzero(lab != own))

    def _repair(self, old: Graph, delta: EdgeDelta) -> None:
        if delta.deletes.size:
            # Affected-component repair: only components that lost an
            # edge are re-explored.  Their old vertex sets are closed
            # under the post-delete edges (deletion cannot leak out of
            # a component); inserted edges are handled by the merges
            # below, so exploring the final snapshot restricted to the
            # region is exact.
            affected = np.unique(self.labels[delta.deletes.ravel()])
            region = np.isin(self.labels, affected)
            self._explore(region)
        for u, v in delta.inserts:
            a, b = self.labels[int(u)], self.labels[int(v)]
            if a == b:
                continue
            win, lose = (a, b) if a < b else (b, a)
            losers = self.labels == lose
            self.labels[losers] = win
            self.relabeled += int(losers.sum())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "components": int(np.unique(self.labels).size),
            "relabeled": self.relabeled,
        }


# ----------------------------------------------------------------------
# Incremental BFS: invalidate the broken subtree, repair from boundary
# ----------------------------------------------------------------------


class IncrementalBFS(_Maintainer):
    """BFS levels from a fixed source, repaired per batch.

    Internally levels use ``_UNREACHED`` for ∞; :attr:`levels` exposes
    the engine convention (-1 for unreachable).
    """

    undirected_only = True

    def __init__(self, graph_or_handle: Any, source: int) -> None:
        super().__init__(graph_or_handle)
        n = self.graph.num_vertices
        if not 0 <= int(source) < n:
            raise ValueError(f"source {source} outside 0..{n - 1}")
        self.source = int(source)
        self._lvl = np.full(n, _UNREACHED, dtype=np.int64)
        self._lvl[self.source] = 0
        self.repaired = 0
        self._relax(deque([self.source]))

    @property
    def levels(self) -> np.ndarray:
        out = self._lvl.copy()
        out[out == _UNREACHED] = -1
        return out

    def _relax(self, work: deque) -> None:
        """Decrease-only BFS relaxation to the exact fixpoint."""
        lvl = self._lvl
        while work:
            v = work.popleft()
            base = lvl[v]
            if base == _UNREACHED:
                continue
            for w in self.graph.neighbors(v):
                w = int(w)
                if base + 1 < lvl[w]:
                    lvl[w] = base + 1
                    self.repaired += 1
                    work.append(w)

    def _invalidate(self, suspects: Iterable[int]) -> List[int]:
        """Closure of vertices whose parent chain broke (level order).

        A vertex is *supported* while some neighbor sits one level
        closer and is itself still valid.  Processing by ascending old
        level — and re-enqueueing children whenever a parent falls —
        reaches the exact Ramalingam–Reps affected set.
        """
        lvl = self._lvl
        heap = [(int(lvl[x]), int(x)) for x in suspects
                if lvl[x] != _UNREACHED and int(x) != self.source]
        heapq.heapify(heap)
        invalid: set = set()
        while heap:
            level, x = heapq.heappop(heap)
            if x in invalid or lvl[x] != level:
                continue
            supported = False
            for w in self.graph.neighbors(x):
                w = int(w)
                if lvl[w] == level - 1 and w not in invalid:
                    supported = True
                    break
            if supported:
                continue
            invalid.add(x)
            for y in self.graph.neighbors(x):
                y = int(y)
                if y not in invalid and lvl[y] == level + 1 and y != self.source:
                    heapq.heappush(heap, (int(lvl[y]), y))
        return sorted(invalid)

    def _repair(self, old: Graph, delta: EdgeDelta) -> None:
        lvl = self._lvl
        if delta.deletes.size:
            invalid = self._invalidate(
                int(v) for v in np.unique(delta.deletes.ravel())
            )
            if invalid:
                inv = np.asarray(invalid, dtype=np.int64)
                lvl[inv] = _UNREACHED
                invalid_set = set(invalid)
                # Multi-source unit Dijkstra from the valid boundary:
                # every surviving neighbor of the hole seeds with its
                # (exact) level, so repaired levels are achievable.
                heap = []
                for x in invalid:
                    for w in self.graph.neighbors(x):
                        w = int(w)
                        if w not in invalid_set and lvl[w] != _UNREACHED:
                            heap.append((int(lvl[w]), w))
                heapq.heapify(heap)
                while heap:
                    level, v = heapq.heappop(heap)
                    if lvl[v] != level:
                        continue
                    for w in self.graph.neighbors(v):
                        w = int(w)
                        if level + 1 < lvl[w]:
                            lvl[w] = level + 1
                            self.repaired += 1
                            heapq.heappush(heap, (level + 1, w))
        if delta.inserts.size:
            seeds = deque(
                int(v) for v in np.unique(delta.inserts.ravel())
                if lvl[int(v)] != _UNREACHED
            )
            self._relax(seeds)

    def as_dict(self) -> Dict[str, Any]:
        reached = int(np.count_nonzero(self._lvl != _UNREACHED))
        return {
            "epoch": self.epoch,
            "reached": reached,
            "repaired": self.repaired,
        }
