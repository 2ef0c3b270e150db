"""Incremental recomputation for streamed edge mutations.

The batch engines in :mod:`repro.tlav.algorithms` recompute from
scratch on every snapshot; under a sustained update trickle that is
the dominant avoidable cost (Ammar & Özsu's experimental analysis, and
the dynamic-processing thread of the Vatter et al. survey).  This
module maintains three classic analytics *incrementally*: each
maintainer owns its snapshot, consumes raw ``(inserts, deletes)``
batches through :func:`~repro.graph.delta.apply_edge_updates`, and
repairs only the state the effective delta perturbs.

* :class:`IncrementalPageRank` — Gauss–Southwell residual pushes over
  the invariant ``r = b + d·A^T D^{-1} p − p``: an edge batch adjusts
  the residuals of the touched vertices' neighborhoods (old share out,
  new share in) and pushes until every ``|r_v| ≤ tol``, converging to
  the same fixed point a from-scratch solve reaches — the
  ``tlav.incremental.pagerank_vs_scratch`` oracle bounds the gap by
  the push tolerance.
* :class:`IncrementalWCC` — min-label components under insertions by
  eager union (relabel the losing component), under deletions by
  **affected-component repair**: only components that lost an edge are
  re-explored, everything else keeps its label untouched.  Labels are
  bit-identical to :func:`~repro.tlav.algorithms.wcc` at every epoch.
* :class:`IncrementalBFS` — levels from a fixed source repaired with
  the Ramalingam–Reps two-phase scheme: invalidate the closure of
  vertices whose parent chain broke (processed in level order), re-run
  a bounded multi-source BFS from the surviving boundary, then relax
  insert-created shortcuts to the exact fixpoint.  Bit-identical to
  :func:`~repro.tlav.algorithms.bfs` at every epoch.

Every maintainer counts the work it does (pushes, relabels, repaired
vertices) so a benchmark can report per-update cost next to the
recompute-per-epoch baseline it replaces.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.delta import EdgeDelta, apply_edge_updates
from ..graph.kernels import expand_frontier

__all__ = ["IncrementalPageRank", "IncrementalWCC", "IncrementalBFS"]

_UNREACHED = np.iinfo(np.int64).max


def _as_graph(graph_or_handle: Any) -> Graph:
    if isinstance(graph_or_handle, Graph):
        return graph_or_handle
    to_graph = getattr(graph_or_handle, "to_graph", None)
    if to_graph is not None:
        return to_graph()
    raise TypeError(
        f"expected a Graph or handle, got {type(graph_or_handle).__name__}"
    )


class _Maintainer:
    """Shared snapshot plumbing: own the graph, apply effective deltas."""

    def __init__(self, graph_or_handle: Any) -> None:
        self.graph = _as_graph(graph_or_handle)
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
# Delta PageRank: Gauss–Southwell residual pushes
# ----------------------------------------------------------------------


class IncrementalPageRank(_Maintainer):
    """PageRank tracked through edge batches by residual pushing.

    State is ``(p, r)`` with the invariant that ``p + push(r)`` solves
    ``p = (1 - damping)/n + damping · Σ_{u→v} p_u / deg(u)`` (dangling
    vertices leak their damping mass; :meth:`scores` renormalizes).
    ``tol`` bounds the residual left behind, hence the distance to the
    exact fixed point: two solves pushed to the same ``tol`` agree to
    ``O(n · tol / (1 - damping))``.
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
        self._push(np.arange(n, dtype=np.int64))

    def _push(self, seeds: np.ndarray) -> None:
        """Drain residuals above ``tol``, FIFO over vertex ids."""
        n = self.graph.num_vertices
        queued = np.zeros(n, dtype=bool)
        work = deque()
        for v in seeds:
            v = int(v)
            if abs(self.r[v]) > self.tol and not queued[v]:
                queued[v] = True
                work.append(v)
        while work:
            v = work.popleft()
            queued[v] = False
            rv = self.r[v]
            if abs(rv) <= self.tol:
                continue
            self.pushes += 1
            self.p[v] += rv
            self.r[v] = 0.0
            nbrs = self.graph.neighbors(v)
            if nbrs.size == 0:
                continue
            self.r[nbrs] += self.damping * rv / nbrs.size
            for w in nbrs:
                w = int(w)
                if abs(self.r[w]) > self.tol and not queued[w]:
                    queued[w] = True
                    work.append(w)

    def _repair(self, old: Graph, delta: EdgeDelta) -> None:
        # Re-aim each touched vertex's outgoing share: retract the
        # contribution p_u/deg_old spread over the old neighbor list,
        # grant p_u/deg_new over the new one, then push to tolerance.
        for u in delta.touched:
            u = int(u)
            pu = self.p[u]
            old_nbrs = old.neighbors(u)
            if old_nbrs.size:
                self.r[old_nbrs] -= self.damping * pu / old_nbrs.size
            new_nbrs = self.graph.neighbors(u)
            if new_nbrs.size:
                self.r[new_nbrs] += self.damping * pu / new_nbrs.size
        seeds = np.unique(np.concatenate([
            delta.touched,
            expand_frontier(old.indptr, old.indices, delta.touched)[1],
            expand_frontier(
                self.graph.indptr, self.graph.indices, delta.touched
            )[1],
        ]))
        self._push(seeds)

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

    def __init__(self, graph_or_handle: Any) -> None:
        super().__init__(graph_or_handle)
        n = self.graph.num_vertices
        self.labels = np.full(n, -1, dtype=np.int64)
        self.relabeled = 0
        self._explore(np.ones(n, dtype=bool))

    def _explore(self, region: np.ndarray) -> None:
        """Recompute labels inside ``region`` (a closed vertex mask).

        Scanning seeds in ascending id makes the first unvisited vertex
        of each sub-component its minimum — the label :func:`wcc`'s
        min-propagation converges to.
        """
        visited = ~region
        for s in np.flatnonzero(region):
            s = int(s)
            if visited[s]:
                continue
            visited[s] = True
            self.labels[s] = s
            frontier = deque([s])
            while frontier:
                v = frontier.popleft()
                for w in self.graph.neighbors(v):
                    w = int(w)
                    if not visited[w]:
                        visited[w] = True
                        self.labels[w] = s
                        self.relabeled += 1
                        frontier.append(w)

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
