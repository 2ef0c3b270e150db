"""PrefixFPM: a general-purpose parallel prefix-projection framework.

PrefixFPM [56, 57] observes that the pattern-growth miners for
*sequences* (PrefixSpan), *trees* and *graphs* (gSpan) all share one
recursion shape: a canonical pattern, its projected database, and a
children-generation rule.  The framework owns the task-parallel
execution — each ``(pattern, projected DB)`` pair is an independent
task, processed depth-first with work inherited by idle workers — and
users plug in the pattern semantics.

:class:`PrefixMiner` is that framework; :class:`SequencePatterns`
instantiates it as PrefixSpan for sequence databases, and
:class:`GraphPatterns` instantiates it over the gSpan machinery of
:mod:`repro.fsm.gspan` (sharing its DFS-code canonicality).  The
simulated-parallel runner reports makespan/balance the same way
:class:`~repro.tlag.engine.TaskEngine` does, because PrefixFPM *is* a
think-like-a-task system — that is the tutorial's point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..graph.transactions import TransactionDatabase
from ..sim import WorkStealing, balance, check_workers
from .gspan import DFSCode, FrequentPattern, _Embedding, _extensions, _edge_key, is_min

__all__ = [
    "PatternDomain",
    "PrefixMiner",
    "MinerStats",
    "SequencePatterns",
    "GraphPatterns",
]

P = TypeVar("P")  # pattern type
D = TypeVar("D")  # projected-database type


class PatternDomain(Generic[P, D]):
    """The pluggable pattern semantics of PrefixFPM."""

    def roots(self) -> Iterable[Tuple[P, D]]:
        """Initial (pattern, projected DB) pairs."""
        raise NotImplementedError

    def support(self, pattern: P, projected: D) -> int:
        """Support of ``pattern`` given its projection."""
        raise NotImplementedError

    def children(self, pattern: P, projected: D) -> Iterable[Tuple[P, D]]:
        """Canonical child patterns with their projections."""
        raise NotImplementedError

    def cost(self, pattern: P, projected: D) -> int:
        """Work estimate of processing this node (for the simulator)."""
        return 1


@dataclass
class MinerStats:
    """Load-balance counters of a parallel mining run."""

    num_workers: int
    tasks: int = 0
    total_ops: int = 0
    worker_busy: List[int] = field(default_factory=list)
    steals: int = 0

    @property
    def makespan(self) -> int:
        return max(self.worker_busy) if self.worker_busy else 0

    @property
    def balance(self) -> float:
        return balance(self.makespan, self.total_ops, self.num_workers)


class PrefixMiner(Generic[P, D]):
    """Task-parallel depth-first pattern-growth executor."""

    def __init__(
        self,
        domain: PatternDomain[P, D],
        min_support: int,
        num_workers: int = 1,
    ) -> None:
        self.domain = domain
        self.min_support = min_support
        self.num_workers = check_workers(num_workers)
        self.stats = MinerStats(num_workers, worker_busy=[0] * num_workers)

    def run(self) -> List[Tuple[P, int]]:
        """Mine all frequent patterns; returns ``(pattern, support)`` pairs."""
        results: List[Tuple[P, int]] = []
        stats = self.stats

        def count_steal(victim: int, w: int, item: Any) -> None:
            stats.steals += 1

        def grow(item: Tuple[P, D], w: int, now: int):
            pattern, projected = item
            support = self.domain.support(pattern, projected)
            cost = self.domain.cost(pattern, projected)
            stats.tasks += 1
            stats.total_ops += cost
            finish = stats.worker_busy[w] = now + max(cost, 1)
            if support < self.min_support:
                return finish, ()
            results.append((pattern, support))
            return finish, self.domain.children(pattern, projected)

        # Depth-first on the own deque, shallow work stolen by the idle.
        sched = WorkStealing(self.num_workers, on_steal=count_steal)
        sched.deal([root] for root in self.domain.roots())
        sched.run(grow)
        return results


# ----------------------------------------------------------------------
# PrefixSpan: sequences
# ----------------------------------------------------------------------


class SequencePatterns(PatternDomain[Tuple[Any, ...], List[Tuple[int, int]]]):
    """PrefixSpan over a database of item sequences.

    A projection is a list of ``(sequence_index, offset)`` suffix
    pointers; a child extends the prefix by one item occurring in enough
    suffixes.
    """

    def __init__(self, sequences: Sequence[Sequence[Any]]) -> None:
        self.sequences = [tuple(s) for s in sequences]

    def roots(self):
        items: Dict[Any, List[Tuple[int, int]]] = {}
        for sid, seq in enumerate(self.sequences):
            seen: set = set()
            for pos, item in enumerate(seq):
                if item not in seen:
                    seen.add(item)
                    items.setdefault(item, []).append((sid, pos + 1))
        for item in sorted(items):
            yield (item,), items[item]

    def support(self, pattern, projected) -> int:
        return len({sid for sid, _ in projected})

    def children(self, pattern, projected):
        items: Dict[Any, List[Tuple[int, int]]] = {}
        for sid, offset in projected:
            seq = self.sequences[sid]
            seen: set = set()
            for pos in range(offset, len(seq)):
                item = seq[pos]
                if item not in seen:
                    seen.add(item)
                    items.setdefault(item, []).append((sid, pos + 1))
        for item in sorted(items):
            yield pattern + (item,), items[item]

    def cost(self, pattern, projected) -> int:
        return sum(len(self.sequences[sid]) - off + 1 for sid, off in projected)


# ----------------------------------------------------------------------
# gSpan plugged into the framework
# ----------------------------------------------------------------------


class GraphPatterns(PatternDomain[DFSCode, List["_Embedding"]]):
    """gSpan's pattern growth expressed as a PrefixFPM domain.

    Reuses the DFS-code machinery of :mod:`repro.fsm.gspan`; the
    projected database is the embedding list.  ``PrefixMiner`` with this
    domain returns exactly the patterns :class:`~repro.fsm.gspan.GSpan`
    returns (tests assert it), while distributing the pattern tree over
    workers.
    """

    def __init__(
        self, db: TransactionDatabase, max_edges: Optional[int] = None
    ) -> None:
        self.graphs = {t.graph_id: t.graph for t in db}
        self.max_edges = max_edges

    def roots(self):
        seeds: Dict[tuple, List[_Embedding]] = {}
        from .gspan import _norm

        for gid, graph in self.graphs.items():
            for u, v in graph.edges():
                elabel = (
                    graph.edge_label(u, v) if graph.edge_labels is not None else 0
                )
                for a, b in ((u, v), (v, u)):
                    t = (
                        0,
                        1,
                        graph.vertex_label(a),
                        elabel,
                        graph.vertex_label(b),
                    )
                    seeds.setdefault(t, []).append(
                        _Embedding(
                            gid=gid, vmap=(a, b), edges=frozenset({_norm(a, b)})
                        )
                    )
        for t in sorted(seeds, key=lambda t: (t[2], t[3], t[4])):
            code = DFSCode((t,))
            if is_min(code):
                yield code, seeds[t]

    def support(self, pattern: DFSCode, projected) -> int:
        return len({e.gid for e in projected})

    def children(self, pattern: DFSCode, projected):
        if self.max_edges is not None and len(pattern) >= self.max_edges:
            return
        exts = _extensions(pattern, projected, self.graphs)
        for t in sorted(exts, key=_edge_key):
            child = DFSCode(pattern + (t,))
            if is_min(child):
                yield child, exts[t]

    def cost(self, pattern: DFSCode, projected) -> int:
        return len(projected)
