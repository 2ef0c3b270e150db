"""EGSM-style BFS-DFS hybrid subgraph matching under a memory budget.

EGSM [36] observes that on GPUs the BFS expansion (materialize all
partial matches of the next query vertex) is the fast path — coalesced,
massively parallel — *while memory lasts*; when the partial-match table
would overflow device memory, it falls back to DFS for the remaining
query vertices, which needs only a stack.

:func:`hybrid_match` reproduces the policy: expand partial embeddings
level-synchronously while the next level fits in ``memory_budget``
(measured in resident partial embeddings), otherwise finish each pending
partial embedding by depth-first backtracking.  Both phases extend with
the shared step :func:`repro.matching.backtrack.extend_step`, so the count
equals ``match``'s at any budget (``tlag.hybrid.count_vs_match``).
``HybridStats`` records where the switch happened and the peak residency,
so bench C5 can plot the budget sweep: large budgets → pure BFS; tiny
budgets → switch at level 1 (pure DFS); in between → hybrid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..graph.csr import Graph
from ..matching.backtrack import MatchStats, extend_step, step_tables
from ..matching.pattern import PatternGraph

__all__ = ["HybridStats", "hybrid_match"]


@dataclass
class HybridStats:
    """Trace of one hybrid run."""

    switch_level: Optional[int] = None  # None = never switched (pure BFS)
    peak_resident: int = 0
    bfs_levels: int = 0
    dfs_completions: int = 0
    embeddings: int = 0


def hybrid_match(
    graph: Graph,
    pattern: PatternGraph,
    memory_budget: int,
    order: Optional[Sequence[int]] = None,
    restrictions: Optional[Sequence[Tuple[int, int]]] = None,
) -> Tuple[int, HybridStats]:
    """Count embeddings of ``pattern`` with the BFS-DFS hybrid policy.

    Returns ``(count, stats)``.  The result is independent of the budget
    (tests sweep it); only the execution trace changes.
    """
    tables = step_tables(pattern, order, restrictions)
    n = pattern.n
    scan = MatchStats()  # the shared step's counters

    def step_candidates(partial: Tuple[int, ...], step: int) -> List[int]:
        return extend_step(graph, tables, partial, step, scan)

    stats = HybridStats()
    frontier: List[Tuple[int, ...]] = [()]
    level = 0

    while level < n:
        # Estimate the next level's size by expanding; if it would blow
        # the budget we switch to DFS for all pending partials.
        next_frontier: List[Tuple[int, ...]] = []
        overflow = False
        for partial in frontier:
            for x in step_candidates(partial, level):
                next_frontier.append(partial + (x,))
                overflow = len(next_frontier) + len(frontier) > memory_budget
                if overflow:
                    break
            if overflow:
                break
        if overflow:
            stats.switch_level = level
            break
        stats.bfs_levels += 1
        stats.peak_resident = max(
            stats.peak_resident, len(frontier) + len(next_frontier)
        )
        frontier = next_frontier
        level += 1

    if level == n:
        stats.embeddings = len(frontier)
        return stats.embeddings, stats

    # DFS fallback for the remaining query vertices.
    def dfs(partial: Tuple[int, ...], step: int) -> int:
        if step == n:
            return 1
        return sum(
            dfs(partial + (x,), step + 1) for x in step_candidates(partial, step)
        )

    count = 0
    for partial in frontier:
        stats.dfs_completions += 1
        count += dfs(partial, level)
    stats.peak_resident = max(stats.peak_resident, len(frontier) + n)
    stats.embeddings = count
    return count, stats
