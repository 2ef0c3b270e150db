"""Task programs: the TLAG workloads expressed for the task engine.

Each program mirrors how G-thinker applications are written: a task is
spawned per data vertex, grows its subgraph depth-first, and — when the
engine's per-task budget is exceeded — forks its remaining branches as
fresh tasks so stealing can balance them.

* :class:`MaximalCliqueProgram` — Bron–Kerbosch over vertex-spawned
  tasks (each task explores cliques whose minimum vertex is the spawn
  vertex, so no clique is found twice);
* :class:`KCliqueProgram` — k-clique listing over the degree-ordered
  orientation;
* :class:`MatchProgram` — subgraph matching: one task per candidate of
  the first order vertex, reusing the kernel of
  :mod:`repro.matching.backtrack`;
* :class:`TriangleProgram` — the task-engine formulation of triangle
  counting, one oriented :func:`~repro.matching.triangles.merge_join` per
  out-edge, charged one op per comparison;
* :class:`ConnectedSubgraphProgram` — connected k-subgraphs depth first,
  by the canonical step the BFS engines share.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graph.csr import Graph
from ..matching.backtrack import MatchStats, match
from ..matching.pattern import PatternGraph, default_order, symmetry_breaking_restrictions
from ..matching.triangles import merge_join
from .bfs_engine import canonical_extensions
from .task import Task, TaskContext, TaskProgram

__all__ = [
    "ConnectedSubgraphProgram",
    "MaximalCliqueProgram",
    "KCliqueProgram",
    "MatchProgram",
    "TriangleProgram",
]


class MaximalCliqueProgram(TaskProgram):
    """Maximal clique enumeration as vertex-spawned tasks.

    The task for spawn vertex ``v`` explores the Bron–Kerbosch tree with
    ``R = {v}``, ``P = {higher neighbors of v}`` and
    ``X = {lower neighbors of v}``, which partitions the maximal cliques
    by their minimum member.  When the context goes over budget the
    program forks each unexplored branch as ``Task(subgraph=R+{u},
    state=(P', X'))`` — G-thinker's decomposition, verbatim.
    """

    def __init__(self, min_size: int = 1) -> None:
        self.min_size = min_size

    def spawn(self, graph: Graph) -> Iterator[Task]:
        for v in graph.vertices():
            higher = set(int(w) for w in graph.neighbors(v) if int(w) > v)
            lower = set(int(w) for w in graph.neighbors(v) if int(w) < v)
            yield Task(subgraph=(v,), state=(higher, lower))

    def process(self, task: Task, ctx: TaskContext) -> None:
        graph = ctx.graph
        adj = lambda u: set(int(w) for w in graph.neighbors(u))  # noqa: E731
        r = list(task.subgraph)
        p, x = task.state

        def expand(r: List[int], p: Set[int], x: Set[int]) -> None:
            ctx.charge()
            if not p and not x:
                if len(r) >= self.min_size:
                    ctx.emit(tuple(sorted(r)))
                return
            if ctx.over_budget() and len(p) > 1:
                # Fork remaining branches instead of recursing further.
                local_p, local_x = set(p), set(x)
                pivot = max(local_p | local_x, key=lambda u: len(adj(u) & local_p))
                for v in sorted(local_p - adj(pivot)):
                    a = adj(v)
                    ctx.fork(
                        Task(
                            subgraph=tuple(r + [v]),
                            state=(local_p & a, local_x & a),
                        )
                    )
                    local_p.remove(v)
                    local_x.add(v)
                return
            pivot = max(p | x, key=lambda u: len(adj(u) & p))
            for v in sorted(p - adj(pivot)):
                a = adj(v)
                expand(r + [v], p & a, x & a)
                p.remove(v)
                x.add(v)

        expand(r, set(p), set(x))


class KCliqueProgram(TaskProgram):
    """k-clique listing over the degree-ordered orientation."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = k
        self._out: Optional[List[Set[int]]] = None

    def _oriented(self, graph: Graph) -> List[Set[int]]:
        if self._out is None:
            oriented = graph.orient_by_degree()
            self._out = [
                set(int(w) for w in oriented.neighbors(v))
                for v in oriented.vertices()
            ]
        return self._out

    def spawn(self, graph: Graph) -> Iterator[Task]:
        out = self._oriented(graph)
        for v in graph.vertices():
            if out[v]:
                yield Task(subgraph=(v,), state=frozenset(out[v]))

    def process(self, task: Task, ctx: TaskContext) -> None:
        out = self._oriented(ctx.graph)

        def extend(clique: List[int], candidates: Set[int]) -> None:
            ctx.charge()
            if len(clique) == self.k:
                ctx.emit(tuple(sorted(clique)))
                return
            if ctx.over_budget() and len(candidates) > 1:
                for v in sorted(candidates):
                    ctx.fork(
                        Task(
                            subgraph=tuple(clique + [v]),
                            state=frozenset(candidates & out[v]),
                        )
                    )
                return
            for v in sorted(candidates):
                extend(clique + [v], candidates & out[v])

        extend(list(task.subgraph), set(task.state))


class MatchProgram(TaskProgram):
    """Subgraph matching: one task per candidate of the first order vertex.

    Tasks run the shared backtracking kernel anchored at their spawn
    vertex; results are embedding tuples (or just counts when the engine
    runs with ``collect_results=False``).
    """

    def __init__(
        self,
        pattern: PatternGraph,
        order: Optional[Sequence[int]] = None,
        restrictions: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        self.pattern = pattern
        self.order = list(order) if order is not None else default_order(pattern)
        self.restrictions = (
            list(restrictions)
            if restrictions is not None
            else symmetry_breaking_restrictions(pattern)
        )

    def spawn(self, graph: Graph) -> Iterator[Task]:
        first = self.order[0]
        want = self.pattern.label(first)
        for v in graph.vertices():
            if graph.vertex_labels is None or graph.vertex_label(v) == want:
                yield Task(subgraph=(v,), state=None)

    def process(self, task: Task, ctx: TaskContext) -> None:
        stats = MatchStats()
        match(
            ctx.graph,
            self.pattern,
            order=self.order,
            restrictions=self.restrictions,
            on_match=ctx.emit,
            stats=stats,
            anchor=(self.order[0], task.subgraph[0]),
        )
        ctx.charge(max(stats.candidates_scanned, 1))


class TriangleProgram(TaskProgram):
    """Triangle counting as per-vertex tasks over the oriented graph."""

    def __init__(self) -> None:
        self._out: Optional[List[np.ndarray]] = None

    def spawn(self, graph: Graph) -> Iterator[Task]:
        oriented = graph.orient_by_degree()
        self._out = [oriented.neighbors(v) for v in oriented.vertices()]
        for v in graph.vertices():
            if self._out[v].size >= 2:
                yield Task(subgraph=(v,))

    def process(self, task: Task, ctx: TaskContext) -> None:
        v = task.subgraph[0]
        out_v = self._out[v]
        for w in out_v.tolist():
            common, comparisons = merge_join(out_v, self._out[w])
            ctx.charge(comparisons)  # one op per comparison
            for a in common:
                ctx.emit((v, w, a))


class ConnectedSubgraphProgram(TaskProgram):
    """Enumerate connected k-vertex subgraph instances depth-first.

    The exact DFS counterpart of
    :func:`repro.tlag.bfs_engine.bfs_enumerate_connected`: both apply the
    same canonical-generation-order rule, so they produce identical
    instance sets — but this program holds only a recursion stack (plus
    forked tasks) instead of whole levels, which is the memory contrast
    bench C2 measures.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def spawn(self, graph: Graph) -> Iterator[Task]:
        for v in graph.vertices():
            yield Task(subgraph=(v,))

    def process(self, task: Task, ctx: TaskContext) -> None:
        graph = ctx.graph

        def extend(emb: Tuple[int, ...]) -> None:
            ctx.charge()
            if len(emb) == self.k:
                ctx.emit(emb)
                return
            for new_emb in canonical_extensions(graph, emb)[0]:
                if ctx.over_budget():
                    ctx.fork(Task(subgraph=new_emb))
                else:
                    extend(new_emb)

        extend(task.subgraph)
