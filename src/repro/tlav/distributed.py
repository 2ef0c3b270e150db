"""Distributed TLAV execution over a partitioned graph.

Runs the same :class:`~repro.tlav.engine.VertexProgram` as the
single-process engine, but vertices live on simulated workers
(:class:`~repro.cluster.comm.Network`), so every vertex-to-vertex message
is priced: messages between co-located vertices are free, cross-worker
messages accumulate in :class:`~repro.cluster.comm.CommStats`.

This makes the tutorial's TLAV-era claims measurable:

* partitioning quality translates directly into remote-message volume
  (Pregel+ / Blogel's motivation);
* sender-side combiners cut remote bytes (Pregel's combiner argument).

The executor is deterministic: identical vertex values to the
single-process engine for any partition (tests assert this).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..cluster.comm import Network
from ..graph.csr import Graph
from ..graph.partition import Partition
from ..obs import MetricsRegistry
from .engine import Aggregator, PregelEngine, VertexProgram

__all__ = ["DistributedPregel"]


class DistributedPregel(PregelEngine):
    """:class:`PregelEngine` over ``partition.num_parts`` simulated workers.

    The superstep loop, halting, aggregators, destination checks and
    ``tlav.*`` metrics are the single engine's.  Placement overrides
    three seams:

    * vertex order — worker by worker, ids ascending within a worker;
    * staging — one box per (source worker, destination vertex), so
      ``combine_remote`` combines only what one worker sends to one
      vertex (Pregel's sender-side combiner; benches toggle it to
      measure the saving);
    * delivery — each box crosses :class:`~repro.cluster.comm.Network`
      as one message, priced in ``network.stats``.
    """

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        partition: Partition,
        aggregators: Optional[Dict[str, Aggregator]] = None,
        max_supersteps: int = 100,
        combine_remote: bool = True,
        obs: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(
            graph, program, aggregators=aggregators,
            max_supersteps=max_supersteps, obs=obs,
        )
        self.partition = partition
        self.network = Network(partition.num_parts, registry=self.obs)
        self._use_combiner = combine_remote and self._use_combiner
        self._owner: List[int] = partition.assignment.tolist()
        # A stable sort keeps ids ascending within each worker.
        self._order = sorted(range(len(self._owner)), key=self._owner.__getitem__)

    def _box(self, src: int, dst: int) -> List[Any]:
        return self._outbox.setdefault((self._owner[src], dst), [])

    def _deliver(self) -> None:
        # Workers compute in order, so boxes come out grouped by source worker.
        for (src_worker, dst), msgs in self._outbox.items():
            self.network.send(
                src_worker, self._owner[dst], (dst, msgs), tag="vertex-msg"
            )
        self._outbox = {}
        self.network.deliver()
        self._inbox = {}
        for worker in range(self.partition.num_parts):
            for msg in self.network.receive(worker):
                dst, msgs = msg.payload
                self._inbox.setdefault(dst, []).extend(msgs)


def run_distributed(
    graph: Graph,
    program: VertexProgram,
    partition: Partition,
    aggregators: Optional[Dict[str, Aggregator]] = None,
    max_supersteps: int = 100,
    combine_remote: bool = True,
):
    """Convenience: build, run, and return ``(values, comm_stats)``."""
    engine = DistributedPregel(
        graph, program, partition, aggregators, max_supersteps, combine_remote
    )
    values = engine.run()
    return values, engine.network.stats
