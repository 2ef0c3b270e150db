"""Lightweight fault tolerance for Pregel-like systems (LWCP).

LWCP [48] observes that classic Pregel checkpointing (serialize all
vertex state + in-flight messages every delta supersteps) is overkill:
vertex *state* is cheap to snapshot while messages can be regenerated,
so a lightweight checkpoint stores only the state and recovery replays
from the last checkpoint.

:class:`CheckpointedEngine` wraps a :class:`~repro.tlav.engine.PregelEngine`
program with:

* configurable checkpoint interval;
* two checkpoint flavours — ``full`` (state + inbox, the classic
  scheme) and ``light`` (state only, LWCP);
* crash injection through the unified
  :class:`~repro.resilience.FaultInjector` (``fail_superstep`` faults);
* checkpoints stored in a :class:`~repro.resilience.SnapshotStore`
  (tag ``tlav``), so checkpoint bytes, restores and recovery spans
  surface under ``resilience.*`` next to every other engine's;
* accounting of checkpoint bytes, lost supersteps, and recovery
  supersteps, so the interval trade-off (checkpoint cost vs recovery
  cost) is measurable — the LWCP evaluation's axes.

The wrapped run is deterministic, so tests assert the recovered run's
final values are bit-identical to a failure-free run.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..graph.csr import Graph
from ..obs import MetricsRegistry, Tracer
from ..resilience import FaultInjector, Snapshot, SnapshotStore
from .engine import Aggregator, PregelEngine, VertexProgram

__all__ = ["FaultStats", "CheckpointedEngine"]

SNAPSHOT_TAG = "tlav"


@dataclass
class FaultStats:
    """Costs of one checkpointed (and possibly failing) run."""

    checkpoints_taken: int = 0
    checkpoint_bytes: int = 0
    failures: int = 0
    supersteps_executed: int = 0
    supersteps_replayed: int = 0


class CheckpointedEngine:
    """A Pregel engine with periodic checkpoints and crash recovery.

    Parameters beyond the classic ones:

    injector:
        Optional :class:`~repro.resilience.FaultInjector` consulted
        before every superstep; its ``fail_superstep`` faults crash the
        engine, which then restores the latest snapshot and replays.
    snapshots:
        Optional shared :class:`~repro.resilience.SnapshotStore`
        (private one if omitted) holding the ``tlav``-tagged
        checkpoints.
    obs / tracer:
        Shared observability; recoveries appear as
        ``resilience.recover`` spans with the replay distance.
    """

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        checkpoint_interval: int = 5,
        mode: str = "light",
        aggregators: Optional[Dict[str, Aggregator]] = None,
        max_supersteps: int = 100,
        injector: Optional[FaultInjector] = None,
        snapshots: Optional[SnapshotStore] = None,
        obs: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if mode not in ("light", "full"):
            raise ValueError("mode must be 'light' or 'full'")
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.mode = mode
        self.checkpoint_interval = checkpoint_interval
        self.obs = obs if obs is not None else MetricsRegistry()
        self.injector = injector
        self.snapshots = (
            snapshots if snapshots is not None else SnapshotStore(obs=self.obs)
        )
        self.tracer = tracer
        self.stats = FaultStats()
        self._engine = PregelEngine(
            graph,
            program,
            aggregators=aggregators,
            max_supersteps=max_supersteps,
            obs=self.obs,
        )
        self._checkpoint: Optional[Snapshot] = None
        self._take_checkpoint()  # superstep-0 baseline

    # -- checkpointing ------------------------------------------------------

    def _take_checkpoint(self) -> None:
        # LWCP: a real light checkpoint regenerates messages by replaying
        # the superstep that produced them; the simulation keeps the
        # engine's whole state (inbox included) so recovery stays exact,
        # and *bills* only what the chosen scheme would persist.
        state = self._engine.state()
        billed = {"values": state["values"], "halted": state["halted"]}
        if self.mode == "full":
            billed["inbox"] = state["inbox"]
        billed_bytes = len(pickle.dumps(billed))
        self._checkpoint = self.snapshots.save(
            SNAPSHOT_TAG, state["superstep"], state, billed_bytes=billed_bytes
        )
        self.stats.checkpoints_taken += 1
        self.stats.checkpoint_bytes += billed_bytes

    def _restore(self) -> None:
        self._engine.restore(self.snapshots.restore_latest(SNAPSHOT_TAG))

    # -- execution ------------------------------------------------------------

    def run(self) -> List[Any]:
        """Run to convergence, surviving any injected failures."""
        while True:
            if self.injector is not None and self.injector.take_superstep_failure(
                self._engine.superstep
            ):
                # Crash: lose all volatile state since the checkpoint.
                self.stats.failures += 1
                assert self._checkpoint is not None
                lost = self._engine.superstep - self._checkpoint.step
                self.stats.supersteps_replayed += lost
                if self.tracer is not None:
                    with self.tracer.span(
                        "resilience.recover",
                        engine="tlav",
                        superstep=self._engine.superstep,
                        replayed=lost,
                        mode=self.mode,
                    ):
                        self._restore()
                else:
                    self._restore()
                continue
            progressed = self._engine.step()
            if not progressed:
                return self._engine.values
            self.stats.supersteps_executed += 1
            if self._engine.superstep % self.checkpoint_interval == 0:
                self._take_checkpoint()

    @property
    def values(self) -> List[Any]:
        return self._engine.values

    @property
    def superstep(self) -> int:
        return self._engine.superstep
