"""Matching-order planning.

AutoMine [26], GraphPi [33] and GraphZero [25] showed that the vertex
matching order dominates subgraph-enumeration cost: a good order matches
high-connectivity pattern vertices early, so candidate sets shrink after
cheap intersections; a bad order defers constraints and explodes the
search tree.

:class:`Planner` reproduces that style of planning:

* enumerate every *connected* order of the (small) pattern;
* score each with a cardinality-style cost model driven by data-graph
  statistics (vertex count, average degree, label frequencies): the
  estimated candidate count at step ``i`` starts from ``n`` for a free
  vertex or ``d_avg`` after one adjacency constraint, and each
  additional backward neighbor multiplies by the edge density
  ``d_avg / n`` (the probability a random pair is adjacent);
* return the argmin (and, for benches, the argmax — the "worst order").
  Equal-cost orders are told apart by the compiled program: the first
  one (in permutation order) whose program iterates an earlier step's
  candidate segment wins, so diamond plans as ``(1, 2, 0, 3)`` — its
  last two vertices share the common neighbours of the first two —
  rather than ``(0, 1, 2, 3)``; :func:`repro.matching.codegen.reuses_segment`
  is the one place that rule lives.

GraphPi additionally co-optimizes the symmetry-breaking restriction set
with the order; we reuse the GraphZero-style restrictions from
:mod:`repro.matching.pattern` and account for them as a constant-factor
reduction ``1/|Aut(P)|`` on the final level, which preserves the
relative ranking of orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from ..graph.csr import Graph
from .pattern import PatternGraph, automorphisms, symmetry_breaking_restrictions

__all__ = ["GraphStats", "MatchingPlan", "Planner", "connected_orders"]


@dataclass
class GraphStats:
    """Data-graph statistics that drive the cost model."""

    num_vertices: int
    avg_degree: float
    max_degree: int

    @staticmethod
    def of(graph: Graph) -> "GraphStats":
        degs = graph.degrees()
        return GraphStats(
            num_vertices=graph.num_vertices,
            avg_degree=float(degs.mean()) if degs.size else 0.0,
            max_degree=int(degs.max()) if degs.size else 0,
        )


@dataclass
class MatchingPlan:
    """A chosen order plus its restrictions and estimated cost."""

    order: Tuple[int, ...]
    restrictions: Tuple[Tuple[int, int], ...]
    estimated_cost: float


def connected_orders(pattern: PatternGraph) -> List[Tuple[int, ...]]:
    """All orders whose every prefix induces a connected subpattern."""
    orders = []
    for perm in permutations(range(pattern.n)):
        ok = True
        for i in range(1, pattern.n):
            if not any(perm[j] in pattern.adj[perm[i]] for j in range(i)):
                ok = False
                break
        if ok:
            orders.append(perm)
    return orders


class Planner:
    """Cost-based matching-order selection."""

    def __init__(self, stats: GraphStats) -> None:
        self.stats = stats

    def estimate_order_cost(self, pattern: PatternGraph, order: Sequence[int]) -> float:
        """Estimated search-tree node count for ``order``.

        A per-level cardinality product: level 0 contributes ``n``
        candidates; a level with ``b >= 1`` backward neighbors contributes
        ``d_avg * density^(b-1)`` candidates (one adjacency list, then
        each extra constraint thins by the edge density).  The cost sums
        the partial products — the number of partial embeddings the
        backtracking matcher touches.
        """
        n = max(self.stats.num_vertices, 1)
        d = max(self.stats.avg_degree, 1e-9)
        density = min(d / n, 1.0)
        total = 0.0
        level_size = 1.0
        placed: List[int] = []
        for pv in order:
            backward = sum(1 for q in placed if q in pattern.adj[pv])
            if backward == 0:
                fanout = float(n)
            else:
                fanout = d * (density ** (backward - 1))
            level_size *= max(fanout, 1e-12)
            total += level_size
            placed.append(pv)
        return total

    def plan(self, pattern: PatternGraph) -> MatchingPlan:
        """Best connected order under the cost model; among equal-cost
        orders, the first whose compiled program reuses a segment."""
        return self._extreme(pattern, best=True)

    def worst_plan(self, pattern: PatternGraph) -> MatchingPlan:
        """Worst connected order — the strawman benches compare against."""
        return self._extreme(pattern, best=False)

    def _extreme(self, pattern: PatternGraph, best: bool) -> MatchingPlan:
        orders = connected_orders(pattern)
        if not orders:
            raise ValueError("pattern has no connected order (is it connected?)")
        scored = [(self.estimate_order_cost(pattern, o), o) for o in orders]
        cost, order = min(scored) if best else max(scored)
        restrictions = tuple(symmetry_breaking_restrictions(pattern))
        if best:
            from .codegen import reuses_segment  # codegen plans with this class

            tied = (o for c, o in scored if c == cost)
            order = next(
                (o for o in tied if reuses_segment(pattern, o, restrictions)), order
            )
        num_aut = len(automorphisms(pattern))
        return MatchingPlan(
            order=order,
            restrictions=restrictions,
            estimated_cost=cost / num_aut,
        )
