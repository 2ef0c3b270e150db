"""Vertex programs for the classic TLAV workloads.

These are the "vertex analytics" algorithms of the tutorial's Figure-1
pipeline — the problems TLAV systems were built for, each fitting the
O((|V|+|E|) log |V|) iterative regime of [52]:

* :class:`PageRankProgram` — with a dangling-mass aggregator;
* :class:`SSSPProgram` — Bellman-Ford style relaxation;
* :class:`BFSProgram` — level labeling;
* :class:`WCCProgram` — hash-min connected components;
* :class:`LabelPropagationProgram` — community detection heuristic;
* :class:`RandomWalkProgram` — walker forwarding, the substrate of
  DeepWalk-style embeddings;
* :class:`TriangleCountProgram` — triangle counting *forced through the
  TLAV model* (each vertex ships its whole adjacency list to its
  neighbors).  This is the tutorial's running example of a structure
  problem that TLAV systems handle badly: message volume is
  sum-over-edges of degree, i.e. O(|E| * d_avg), versus the serial
  ordered algorithm's near-linear behaviour (see
  :mod:`repro.matching.triangles` and bench C1).

Convenience wrappers (``pagerank(graph)``, ...) run each program on the
single-process engine and return plain results.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.store.handle import as_handle
from .engine import Aggregator, PregelEngine, VertexContext, VertexProgram

__all__ = [
    "PageRankProgram",
    "SSSPProgram",
    "BFSProgram",
    "WCCProgram",
    "LabelPropagationProgram",
    "RandomWalkProgram",
    "TriangleCountProgram",
    "LubyMISProgram",
    "luby_mis",
    "pagerank",
    "sssp",
    "bfs",
    "wcc",
    "label_propagation",
    "random_walks",
    "triangle_count_tlav",
]


class PageRankProgram(VertexProgram[float, float]):
    """PageRank with damping and dangling-mass redistribution.

    Runs a fixed number of supersteps (``iterations``); vertex values are
    probabilities summing to 1 at every superstep.
    """

    def __init__(self, damping: float = 0.85, iterations: int = 20) -> None:
        self.damping = damping
        self.iterations = iterations

    def init(self, vertex: int, graph: Graph) -> float:
        return 1.0 / graph.num_vertices

    def combine(self, a: float, b: float) -> float:
        return a + b

    def compute(self, ctx: VertexContext, messages: List[float]) -> None:
        if ctx.superstep > 0:
            incoming = sum(messages)
            dangling = ctx.aggregated("dangling", 0.0) / ctx.num_vertices
            ctx.value = (
                (1.0 - self.damping) / ctx.num_vertices
                + self.damping * (incoming + dangling)
            )
        if ctx.superstep < self.iterations:
            degree = ctx.degree()
            if degree > 0:
                share = ctx.value / degree
                ctx.send_to_neighbors(share)
            else:
                ctx.aggregate("dangling", ctx.value)
        else:
            ctx.vote_to_halt()


class SSSPProgram(VertexProgram[float, float]):
    """Single-source shortest paths (unit weights unless a weight fn is given)."""

    def __init__(self, source: int, weight=None) -> None:
        self.source = source
        self.weight = weight or (lambda u, v: 1.0)

    def init(self, vertex: int, graph: Graph) -> float:
        return 0.0 if vertex == self.source else math.inf

    def combine(self, a: float, b: float) -> float:
        return min(a, b)

    def compute(self, ctx: VertexContext, messages: List[float]) -> None:
        best = min(messages) if messages else math.inf
        if ctx.superstep == 0 and ctx.vertex == self.source:
            best = 0.0
        if best < ctx.value or (ctx.superstep == 0 and ctx.vertex == self.source):
            if best < ctx.value:
                ctx.value = best
            for w in ctx.neighbors():
                ctx.send(int(w), ctx.value + self.weight(ctx.vertex, int(w)))
        ctx.vote_to_halt()


class BFSProgram(VertexProgram[int, int]):
    """BFS levels from a source; unreachable vertices keep ``-1``."""

    def __init__(self, source: int) -> None:
        self.source = source

    def init(self, vertex: int, graph: Graph) -> int:
        return -1

    def combine(self, a: int, b: int) -> int:
        return min(a, b)

    def compute(self, ctx: VertexContext, messages: List[int]) -> None:
        if ctx.superstep == 0:
            if ctx.vertex == self.source:
                ctx.value = 0
                ctx.send_to_neighbors(1)
        elif ctx.value < 0 and messages:
            ctx.value = min(messages)
            ctx.send_to_neighbors(ctx.value + 1)
        ctx.vote_to_halt()


class WCCProgram(VertexProgram[int, int]):
    """Weakly connected components by hash-min label spreading.

    The canonical O(log |V|)-round Pregel algorithm from [52]: every
    vertex adopts the minimum id it has heard of and forwards changes.
    """

    def init(self, vertex: int, graph: Graph) -> int:
        return vertex

    def combine(self, a: int, b: int) -> int:
        return min(a, b)

    def compute(self, ctx: VertexContext, messages: List[int]) -> None:
        if ctx.superstep == 0:
            ctx.send_to_neighbors(ctx.value)
        else:
            best = min(messages) if messages else ctx.value
            if best < ctx.value:
                ctx.value = best
                ctx.send_to_neighbors(best)
        ctx.vote_to_halt()


class LabelPropagationProgram(VertexProgram[int, Tuple[int, int]]):
    """Synchronous label propagation for community detection.

    Each vertex adopts the most frequent label among its neighbors
    (ties to the smallest label), for a fixed number of rounds.
    """

    def __init__(self, iterations: int = 10) -> None:
        self.iterations = iterations

    def init(self, vertex: int, graph: Graph) -> int:
        return vertex

    def compute(self, ctx: VertexContext, messages: List[int]) -> None:
        if ctx.superstep > 0 and messages:
            counts: dict = {}
            for label in messages:
                counts[label] = counts.get(label, 0) + 1
            best = min(counts, key=lambda lbl: (-counts[lbl], lbl))
            ctx.value = best
        if ctx.superstep < self.iterations:
            ctx.send_to_neighbors(ctx.value)
        else:
            ctx.vote_to_halt()


class RandomWalkProgram(VertexProgram[list, Tuple[int, tuple]]):
    """Forward ``walks_per_vertex`` random walkers for ``walk_length`` steps.

    Each vertex value accumulates the completed walks that *started*
    there; messages carry ``(walk_origin, path_so_far)``.  This is the
    DeepWalk walk-generation stage expressed as a vertex program.
    """

    def __init__(self, walk_length: int = 8, walks_per_vertex: int = 1, seed: int = 0) -> None:
        self.walk_length = walk_length
        self.walks_per_vertex = walks_per_vertex
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def init(self, vertex: int, graph: Graph) -> list:
        return []

    def compute(self, ctx: VertexContext, messages: List[Tuple[int, tuple]]) -> None:
        if ctx.superstep == 0:
            for _ in range(self.walks_per_vertex):
                self._advance(ctx, ctx.vertex, (ctx.vertex,))
        for head, path in messages:
            if head == "done":
                ctx.value.append(tuple(path))  # completed walk, back at origin
            else:
                self._advance(ctx, int(head), path)
        ctx.vote_to_halt()

    def _advance(self, ctx: VertexContext, origin: int, path: tuple) -> None:
        """Extend a walk sitting at this vertex, or report it finished."""
        nbrs = ctx.neighbors()
        if len(path) == self.walk_length + 1 or nbrs.size == 0:
            ctx.send(origin, ("done", path))
            return
        nxt = int(nbrs[self._rng.integers(nbrs.size)])
        ctx.send(nxt, (origin, path + (nxt,)))


class TriangleCountProgram(VertexProgram[int, tuple]):
    """Triangle counting forced through the vertex-centric model.

    Superstep 0: every vertex sends its higher-id neighbor list to each
    higher-id neighbor.  Superstep 1: each vertex intersects received
    lists with its own adjacency and accumulates the count.  The total
    message volume is ``sum_v deg(v)^2`` in the worst case — the
    quadratic blow-up the tutorial cites when arguing TLAV systems cannot
    accelerate subgraph search (bench C1 measures it against the serial
    ordered algorithm of Chu & Cheng).
    """

    def init(self, vertex: int, graph: Graph) -> int:
        return 0

    def compute(self, ctx: VertexContext, messages: List[int]) -> None:
        if ctx.superstep == 0:
            higher = [int(w) for w in ctx.neighbors() if int(w) > ctx.vertex]
            for i, w in enumerate(higher):
                # One message per wedge (w, x): "do you have edge w-x?"
                for x in higher[i + 1:]:
                    ctx.send(w, x)
        else:
            nbrs = ctx.neighbors()
            count = 0
            for x in messages:
                k = int(np.searchsorted(nbrs, x))
                if k < nbrs.size and nbrs[k] == x:
                    count += 1
            ctx.value = count
        ctx.vote_to_halt()


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------


def pagerank(
    graph_or_handle,
    damping: float = 0.85,
    iterations: int = 20,
) -> np.ndarray:
    """PageRank scores (sum to 1) via the TLAV engine.

    ``graph_or_handle`` accepts a :class:`Graph`, any
    :class:`~repro.graph.store.GraphHandle`, or a store-directory path
    (all engine wrappers in this module share that contract).
    """
    program = PageRankProgram(damping, iterations)
    engine = PregelEngine(
        graph_or_handle,
        program,
        aggregators={"dangling": Aggregator(reduce=lambda a, b: a + b, initial=0.0)},
        max_supersteps=iterations + 2,
    )
    return np.asarray(engine.run(), dtype=np.float64)


def sssp(graph_or_handle, source: int = 0) -> np.ndarray:
    """Hop distances from ``source`` (inf when unreachable)."""
    handle = as_handle(graph_or_handle)
    engine = PregelEngine(
        handle, SSSPProgram(source), max_supersteps=handle.num_vertices + 1
    )
    return np.asarray(engine.run(), dtype=np.float64)


def bfs(graph_or_handle, source: int = 0) -> np.ndarray:
    """BFS levels from ``source`` (-1 when unreachable)."""
    handle = as_handle(graph_or_handle)
    engine = PregelEngine(
        handle, BFSProgram(source), max_supersteps=handle.num_vertices + 1
    )
    return np.asarray(engine.run(), dtype=np.int64)


def wcc(graph_or_handle) -> np.ndarray:
    """Connected-component labels (min vertex id per component)."""
    handle = as_handle(graph_or_handle)
    engine = PregelEngine(
        handle, WCCProgram(), max_supersteps=handle.num_vertices + 1
    )
    return np.asarray(engine.run(), dtype=np.int64)


def label_propagation(graph_or_handle, iterations: int = 10) -> np.ndarray:
    """Community labels after synchronous label propagation."""
    engine = PregelEngine(
        graph_or_handle,
        LabelPropagationProgram(iterations),
        max_supersteps=iterations + 2,
    )
    return np.asarray(engine.run(), dtype=np.int64)


def random_walks(
    graph_or_handle,
    walk_length: int = 8,
    walks_per_vertex: int = 1,
    seed: int = 0,
) -> List[List[int]]:
    """Random walks (one list of vertex ids per completed walk)."""
    program = RandomWalkProgram(walk_length, walks_per_vertex, seed)
    engine = PregelEngine(graph_or_handle, program, max_supersteps=walk_length + 3)
    values = engine.run()
    return [list(path) for collected in values for path in collected]


def triangle_count_tlav(graph_or_handle) -> Tuple[int, int]:
    """Triangle count via the TLAV program.

    Returns ``(triangles, messages_sent)`` so benches can report the
    message blow-up alongside the answer.
    """
    engine = PregelEngine(graph_or_handle, TriangleCountProgram(), max_supersteps=3)
    values = engine.run()
    return int(sum(values)), engine.total_messages


class LubyMISProgram(VertexProgram):
    """Luby's maximal independent set, the classic randomized Pregel demo.

    Round structure (two supersteps per round): every undecided vertex
    draws a random priority and sends it to neighbors; a vertex whose
    priority beats all undecided neighbors joins the MIS and tells its
    neighbors to drop out.  Values: 0 undecided, 1 in MIS, -1 excluded.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._priority: dict = {}

    def init(self, vertex: int, graph: Graph) -> int:
        return 0

    def compute(self, ctx: VertexContext, messages: List[tuple]) -> None:
        if ctx.value != 0:
            # Decided vertices only relay their status once more.
            ctx.vote_to_halt()
            return
        phase = ctx.superstep % 2
        if phase == 0:
            # Process last round's outcomes first.
            for kind, _ in messages:
                if kind == "joined":
                    ctx.value = -1
                    ctx.vote_to_halt()
                    return
            priority = float(self._rng.random())
            self._priority[ctx.vertex] = priority
            ctx.send_to_neighbors(("priority", priority))
            # Keep running into the decision superstep.
        else:
            my_priority = self._priority.get(ctx.vertex, 0.0)
            beaten = any(
                kind == "priority" and value > my_priority
                for kind, value in messages
            )
            if not beaten:
                ctx.value = 1
                ctx.send_to_neighbors(("joined", 0.0))
                ctx.vote_to_halt()
            else:
                # Stay undecided; wake next round via a no-op message.
                ctx.send(ctx.vertex, ("tick", 0.0))


def luby_mis(
    graph_or_handle,
    seed: int = 0,
    max_rounds: int = 200,
) -> np.ndarray:
    """A maximal independent set as a boolean membership array."""
    engine = PregelEngine(
        graph_or_handle, LubyMISProgram(seed=seed), max_supersteps=2 * max_rounds
    )
    values = engine.run()
    members = np.asarray([v == 1 for v in values], dtype=bool)
    # Isolated undecided vertices (no neighbors -> never beaten) join.
    return members
