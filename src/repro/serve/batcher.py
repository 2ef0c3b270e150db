"""Micro-batching: coalesce compatible queued requests into one engine call.

Two requests are *compatible* when they name the same endpoint, the
same graph **at the same epoch**, and either identical canonical
params (duplicate coalescing — the engine runs once and every member
receives the same answer) or any params on a ``merge_batch`` endpoint
(GNN inference: one full-graph forward pass is sliced per request).

Batching is a latency/throughput trade the scheduler exposes as a
**batch window**: a worker may delay dispatch until
``head.arrival + window`` simulated ops so later compatible arrivals
can ride along.  Correctness is not traded: the batched answer for
every member is bit-identical to an unbatched run, whatever the batch
cut — the oracle ``serve.batched_vs_unbatched`` in
:mod:`repro.serve.checks` enforces exactly that.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .endpoints import Endpoint, GraphRecord

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Batch formation + execution policy (window, size cap)."""

    def __init__(self, window: int = 0, max_batch: int = 8) -> None:
        if window < 0:
            raise ValueError("batch window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.window = int(window)
        self.max_batch = int(max_batch)

    def batch_key(
        self, endpoint: Endpoint, graph: str, epoch: int, canon: Tuple
    ) -> Tuple:
        """Compatibility class of a request (None collapses params)."""
        return (
            endpoint.name,
            graph,
            int(epoch),
            None if endpoint.merge_batch else canon,
        )

    def dispatch_time(self, clock: int, head_arrival: int) -> int:
        """When the worker should fire: now, or after the batch window."""
        if self.window == 0:
            return clock
        return max(clock, head_arrival + self.window)

    def collect(
        self,
        head,
        queue: Sequence,
        endpoint: Endpoint,
        epoch: int,
    ) -> List:
        """FIFO-ordered compatible members of ``queue`` behind ``head``.

        Every request carries its canonical params in ``canon`` (set at
        :meth:`repro.serve.Server.submit`); they are compared, never
        recomputed.
        """
        batch = [head]
        key = self.batch_key(endpoint, head.graph, epoch, head.canon)
        for req in queue:
            if len(batch) >= self.max_batch:
                break
            if req is head or req.endpoint != head.endpoint or req.graph != head.graph:
                continue
            if key == self.batch_key(endpoint, req.graph, epoch, req.canon):
                batch.append(req)
        return batch

    def execute(
        self,
        endpoint: Endpoint,
        record: GraphRecord,
        batch: Sequence,
        executor=None,
    ) -> Tuple[List[Any], int]:
        """One engine call for the whole batch: ``(values, cost)``.

        Duplicate-coalescing endpoints run once per *distinct* canonical
        params (one distinct set by construction of the batch key);
        merge endpoints run their ``run_batch``.
        """
        if endpoint.merge_batch:
            values, cost = endpoint.run_batch(
                record, [req.params for req in batch], executor=executor
            )
            return list(values), cost
        result, cost = endpoint.run(record, batch[0].params, executor=executor)
        return [result] * len(batch), cost
