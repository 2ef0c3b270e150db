"""Distributed TLAG execution: remote adjacency pulls with caching.

The real G-thinker [53, 54] is a *distributed* framework: the data
graph is partitioned across machines, a task's subgraph may grow into
vertices whose adjacency lists live elsewhere, and the engine's central
mechanism is **pull-and-cache** — a task requests the remote adjacency
lists it needs, and each worker keeps an LRU-bounded *vertex cache* (a
:class:`~repro.lru.LRU` counted in adjacency lists) so hot vertices
(hubs) are fetched once, not once per task.

:class:`DistributedTaskEngine` reproduces that data plane on top of the
simulated :class:`~repro.cluster.comm.Network`:

* the graph is partitioned; each worker owns its vertices' adjacency;
* tasks execute exactly as in :class:`~repro.tlag.engine.TaskEngine`
  (same programs, same results — tests assert it), but every adjacency
  access is routed through the worker's vertex cache: local reads are
  free, remote reads are priced through the network unless cached;
* stolen tasks are priced by their serialized size.

``cache_capacity=0`` disables caching — the ablation benches use it to
measure how much of G-thinker's traffic the cache removes on power-law
graphs (hubs dominate accesses, so hit rates are high).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..cluster.comm import Network
from ..graph.csr import Graph
from ..graph.partition import Partition
from ..lru import LRU
from ..obs import MetricsRegistry, StatsViewMixin, Tracer
from .engine import EngineStats
from .task import Task, TaskContext, TaskProgram

__all__ = ["CacheStats", "DistributedTaskEngine"]


@dataclass
class CacheStats(StatsViewMixin):
    """Adjacency-access counters for one worker (or aggregated)."""

    local_reads: int = 0
    cache_hits: int = 0
    remote_pulls: int = 0
    bytes_pulled: int = 0

    @property
    def total_reads(self) -> int:
        return self.local_reads + self.cache_hits + self.remote_pulls

    @property
    def hit_rate(self) -> float:
        remote_accesses = self.cache_hits + self.remote_pulls
        return self.cache_hits / remote_accesses if remote_accesses else 0.0

    def extra_dict(self) -> Dict[str, Any]:
        return {"total_reads": self.total_reads, "hit_rate": self.hit_rate}

    def merge(self, other: "CacheStats") -> "CacheStats":
        self.local_reads += other.local_reads
        self.cache_hits += other.cache_hits
        self.remote_pulls += other.remote_pulls
        self.bytes_pulled += other.bytes_pulled
        return self


class _CachedGraphView:
    """A Graph facade whose adjacency reads are priced per worker.

    Presents the same read API the task programs use (``neighbors``,
    ``degree``, ``has_edge``, labels, sizes); owned vertices read
    locally, others go through the worker's cache or the network.
    """

    def __init__(self, engine: "DistributedTaskEngine", worker: int) -> None:
        self._engine = engine
        self._worker = worker

    # -- sizes / labels are metadata every worker holds ------------------

    @property
    def num_vertices(self) -> int:
        return self._engine.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self._engine.graph.num_edges

    @property
    def directed(self) -> bool:
        return self._engine.graph.directed

    @property
    def vertex_labels(self):
        return self._engine.graph.vertex_labels

    @property
    def edge_labels(self):
        return self._engine.graph.edge_labels

    def edge_label(self, u: int, v: int) -> int:
        return self._engine.graph.edge_label(u, v)

    def vertices(self):
        return self._engine.graph.vertices()

    def vertex_label(self, v: int) -> int:
        return self._engine.graph.vertex_label(v)

    # -- priced adjacency --------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        return self._engine._read_adjacency(self._worker, int(v))

    def degree(self, v: int) -> int:
        return int(self.neighbors(v).size)

    def degrees(self) -> np.ndarray:
        return self._engine.graph.degrees()

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        k = int(np.searchsorted(nbrs, v))
        return k < nbrs.size and nbrs[k] == v

    def edges(self):
        return self._engine.graph.edges()

    def orient_by_degree(self) -> Graph:
        return self._engine.graph.orient_by_degree()


class DistributedTaskEngine:
    """The G-thinker data plane: partitioned graph + pull-and-cache."""

    def __init__(
        self,
        graph: Graph,
        program: TaskProgram,
        partition: Partition,
        cache_capacity: int = 1024,
        task_budget: Optional[int] = None,
        steal: bool = True,
        collect_results: bool = True,
        obs: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.graph = graph
        self.program = program
        self.partition = partition
        self.num_workers = partition.num_parts
        self.obs = obs if obs is not None else MetricsRegistry()
        self.tracer = tracer
        self.network = Network(self.num_workers, registry=self.obs)
        self.task_budget = task_budget
        self.steal = steal
        self.collect_results = collect_results
        self.results: List[Any] = []
        self.result_count = 0
        self.cache_stats = [CacheStats() for _ in range(self.num_workers)]
        self._caches = [LRU(cache_capacity) for _ in range(self.num_workers)]
        self.stats = EngineStats(
            self.num_workers, registry=self.obs,
            worker_busy=[0] * self.num_workers,
        )
        self._c_cache_reads = self.obs.counter(
            "tlag.cache.reads", "adjacency reads, by kind (local/hit/pull)"
        )
        self._c_cache_bytes = self.obs.counter(
            "tlag.cache.bytes_pulled", "bytes fetched for remote adjacency"
        )

    @property
    def steals(self) -> int:
        return self.stats.steals

    @property
    def tasks_executed(self) -> int:
        return self.stats.tasks_executed

    # -- the priced adjacency read -------------------------------------------

    def _read_adjacency(self, worker: int, v: int) -> np.ndarray:
        owner = int(self.partition.assignment[v])
        stats = self.cache_stats[worker]
        adjacency = self.graph.neighbors(v)
        if owner == worker:
            stats.local_reads += 1
            self._c_cache_reads.inc(kind="local")
            return adjacency
        cache = self._caches[worker]
        cached = cache.get(v)
        if cached is not None:
            stats.cache_hits += 1
            self._c_cache_reads.inc(kind="hit")
            return cached
        nbytes = int(adjacency.nbytes) + 8  # list + vertex id header
        self.network.send_now(owner, worker, None, tag="adj-pull", nbytes=nbytes)
        self.network.receive(worker)
        stats.remote_pulls += 1
        stats.bytes_pulled += nbytes
        self._c_cache_reads.inc(kind="pull")
        self._c_cache_bytes.inc(nbytes)
        if cache.budget > 0:  # capacity 0 disables caching: admit nothing
            cache.put(v, adjacency)
        return adjacency

    # -- execution ----------------------------------------------------------------

    def run(self) -> List[Any]:
        """Execute all tasks; same results as the shared-memory engine."""
        span = (
            self.tracer.span("tlag.distributed.run", workers=self.num_workers)
            if self.tracer is not None
            else None
        )
        try:
            return self._run()
        finally:
            if span is not None:
                span.set_sim(0, self.stats.makespan)
                span.set("tasks", self.tasks_executed)
                span.__exit__(None, None, None)

    def _run(self) -> List[Any]:
        queues: List[deque] = [deque() for _ in range(self.num_workers)]
        for task in self.program.spawn(self.graph):
            # Tasks spawn at the worker owning their first vertex
            # (G-thinker's vertex-spawned placement).
            home = int(self.partition.assignment[task.subgraph[0]])
            queues[home].append(task)

        clocks = [0] * self.num_workers
        heap = [(0, w) for w in range(self.num_workers)]
        heapq.heapify(heap)
        views = [_CachedGraphView(self, w) for w in range(self.num_workers)]

        while heap:
            clock, w = heapq.heappop(heap)
            task = self._next_task(w, queues)
            if task is None:
                continue
            ctx = TaskContext(views[w], budget=self.task_budget)
            ctx.collect_results = self.collect_results
            self.program.process(task, ctx)
            clocks[w] = clock + max(ctx.ops, 1)
            self.stats.record_task(w, ctx.ops, len(ctx.forked), clocks[w])
            self.result_count += ctx.result_count
            if self.collect_results:
                self.results.extend(ctx.results)
            for child in ctx.forked:
                queues[w].append(child)
            self.stats.record_pending(sum(len(q) for q in queues))
            heapq.heappush(heap, (clocks[w], w))
            if self.steal:
                in_heap = {entry[1] for entry in heap}
                pending = sum(len(q) for q in queues)
                for other in range(self.num_workers):
                    if other not in in_heap and pending > 0:
                        heapq.heappush(heap, (max(clocks[other], clock), other))
                        in_heap.add(other)
        return self.results

    def _next_task(self, w: int, queues: List[deque]) -> Optional[Task]:
        if queues[w]:
            return queues[w].pop()
        if not self.steal:
            return None
        victim = max(range(self.num_workers), key=lambda k: len(queues[k]))
        if queues[victim] and victim != w:
            task = queues[victim].popleft()
            nbytes = 16 * (len(task.subgraph) + 2)
            self.network.send_now(victim, w, None, tag="steal", nbytes=nbytes)
            self.network.receive(w)
            self.stats.record_steal()
            return task
        return None

    # -- summaries -------------------------------------------------------------------

    def aggregate_cache_stats(self) -> CacheStats:
        total = CacheStats()
        for stats in self.cache_stats:
            total.merge(stats)
        return total

    @property
    def remote_bytes(self) -> int:
        return self.network.stats.bytes_remote
