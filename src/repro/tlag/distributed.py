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
* it *is* a :class:`~repro.tlag.engine.TaskEngine` (same loop, same
  programs, same results — ``tlag.cliques.distributed_vs_shared``
  asserts it) whose tasks spawn at the worker owning their first
  vertex, and whose every adjacency access is routed through the
  worker's vertex cache: local reads are free, remote reads are priced
  through the network unless cached;
* stolen tasks are priced by their serialized size.

``cache_capacity=0`` disables caching — the ablation benches use it to
measure how much of G-thinker's traffic the cache removes on power-law
graphs (hubs dominate accesses, so hit rates are high).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..cluster.comm import Network
from ..graph.csr import Graph
from ..graph.partition import Partition
from ..lru import LRU
from ..obs import MetricsRegistry, StatsViewMixin, Tracer
from .engine import TaskEngine
from .task import Task, TaskProgram

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


class DistributedTaskEngine(TaskEngine):
    """The G-thinker data plane: partitioned graph + pull-and-cache."""

    span_name = "tlag.distributed.run"

    def __init__(
        self,
        graph,
        program: TaskProgram,
        partition: Partition,
        cache_capacity: int = 1024,
        task_budget: Optional[int] = None,
        steal: bool = True,
        collect_results: bool = True,
        obs: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            graph, program, num_workers=partition.num_parts,
            task_budget=task_budget, steal=steal,
            collect_results=collect_results, obs=obs, tracer=tracer,
        )
        self.partition = partition
        self.network = Network(self.num_workers, registry=self.obs)
        self.cache_stats = [CacheStats() for _ in range(self.num_workers)]
        self._caches = [LRU(cache_capacity) for _ in range(self.num_workers)]
        self._views = [_CachedGraphView(self, w) for w in range(self.num_workers)]
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

    # -- where the shared-memory loop is told apart ----------------------------

    def _deal(self) -> None:
        # Tasks spawn at the worker owning their first vertex
        # (G-thinker's vertex-spawned placement).
        owner = self.partition.assignment
        for task in self.program.spawn(self.graph):
            self.schedule.put(int(owner[task.subgraph[0]]), [task])

    def _view(self, w: int) -> _CachedGraphView:
        return self._views[w]

    def _on_steal(self, victim: int, w: int, task: Task) -> None:
        nbytes = 16 * (len(task.subgraph) + 2)
        self.network.send_now(victim, w, None, tag="steal", nbytes=nbytes)
        self.network.receive(w)
        self.stats.record_steal()

    # -- summaries -------------------------------------------------------------------

    def aggregate_cache_stats(self) -> CacheStats:
        total = CacheStats()
        for stats in self.cache_stats:
            total.merge(stats)
        return total

    @property
    def remote_bytes(self) -> int:
        return self.network.stats.bytes_remote
