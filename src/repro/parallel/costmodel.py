"""Calibrated backend selection for ``backend="auto"`` fan-outs.

The survey's recurring lesson is that no single execution strategy wins
across workloads: process pools amortize beautifully on big fan-outs and
drown small ones in spawn/pickle overhead.  :class:`CostModel` makes the
choice per call from a classical analytical model —

    cost(backend) = fixed setup not yet amortized        (pool spin-up,
                    + CSR publish for unshared graphs)    per-call share)
                    + items x per-item seconds            (work / speedup
                    + items x dispatch overhead           + task overhead)

— whose constants start from conservative priors and are **self-tuned
online**: every ``map_graph`` feeds the same busy/wall/warm-up numbers
it meters into the ``parallel.*`` registry back into the model, which
keeps exponentially-weighted moving averages per ``(fn, backend)`` pair.
The first call on an uncalibrated workload therefore runs serial (the
priors make parallel backends earn their keep), and subsequent calls
switch as soon as the measured rates justify it.

Everything here is pure arithmetic over recorded state: given the same
observation history, :meth:`choose` is deterministic (ties break toward
the cheaper backend in ``serial < thread < process`` order), which is
what the auto-mode determinism tests pin.

The work prior scales with the graph: ``num_edge_slots`` x a per-edge
constant plus a per-vertex constant, matching how every fan-out in the
library walks CSR ranges.  Calibration replaces the prior after one
observation per ``fn`` key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .chunking import default_chunk_size

__all__ = ["CostModel", "Decision", "default_cost_model", "reset_default_cost_model"]

#: Tie-break order: when estimates are equal, prefer the simpler backend.
BACKEND_ORDER = ("serial", "thread", "process")

#: Target wall seconds of work per chunk once calibrated — enough to
#: amortize dispatch, small enough to keep the makespan balanced.
TARGET_CHUNK_SECONDS = 2e-3


@dataclass(frozen=True)
class Decision:
    """One auto-mode choice: the winner plus the estimates behind it."""

    backend: str
    estimates: Dict[str, float] = field(default_factory=dict)
    calibrated: bool = False


class CostModel:
    """Per-backend cost estimates, self-tuned from fan-out telemetry."""

    #: Pool spin-up seconds when the pool is cold (EWMA-updated online).
    SPINUP = {"serial": 0.0, "thread": 2e-3, "process": 2.5e-1}
    #: Per-task dispatch overhead seconds (submit + pickle payload + IPC).
    CHUNK_OVERHEAD = {"serial": 2e-6, "thread": 2e-4, "process": 1.5e-3}
    #: Shared-memory publish throughput for unshared graphs (bytes/sec).
    SHARE_BYTES_PER_SECOND = 1.5e9
    #: Fraction of the work a backend can actually overlap (Amdahl knob):
    #: threads are GIL-bound outside numpy kernels, processes nearly not.
    PARALLEL_FRACTION = {"thread": 0.35, "process": 0.9}
    #: Work prior: seconds per CSR edge slot / per vertex before any
    #: observation exists for a fn key.
    SECONDS_PER_EDGE = 5e-8
    SECONDS_PER_VERTEX = 1e-7

    def __init__(self, alpha: float = 0.4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        #: (fn key, backend) -> EWMA wall seconds per work item (all-in:
        #: includes dispatch overhead at the chunking actually used).
        self._wall_per_item: Dict[Tuple[str, str], float] = {}
        #: fn key -> EWMA serial-equivalent compute seconds per work item.
        self._work_per_item: Dict[str, float] = {}
        #: Global per-item compute rate (chunk-size selection fallback).
        self._unit_cost: Optional[float] = None
        #: backend -> EWMA observed cold spin-up seconds.
        self._spinup: Dict[str, float] = dict(self.SPINUP)
        self.observations = 0

    # -- estimation --------------------------------------------------------

    def work_prior(self, num_vertices: int, num_edge_slots: int, items: int) -> float:
        """Prior per-item serial seconds from the graph's size.

        ``items`` is the number of work units the fan-out covers
        (vertices for span fan-outs, payloads otherwise); the prior
        spreads the whole-graph estimate across them.
        """
        total = (
            num_vertices * self.SECONDS_PER_VERTEX
            + num_edge_slots * self.SECONDS_PER_EDGE
        )
        return max(total / max(1, items), 1e-9)

    def estimate(
        self,
        key: str,
        backend: str,
        items: int,
        workers: int,
        *,
        work_prior: float,
        warm: bool = False,
        shared: bool = False,
        graph_bytes: int = 0,
    ) -> float:
        """Predicted wall seconds for running ``items`` on ``backend``."""
        measured = self._wall_per_item.get((key, backend))
        work = self._work_per_item.get(key, work_prior)
        fixed = 0.0
        if backend != "serial" and not warm:
            fixed += self._spinup[backend]
        if backend == "process" and not shared:
            fixed += graph_bytes / self.SHARE_BYTES_PER_SECOND
        if measured is not None:
            return fixed + items * measured
        if backend == "serial":
            return items * (work + self.CHUNK_OVERHEAD["serial"])
        frac = self.PARALLEL_FRACTION[backend]
        speedup_factor = (1.0 - frac) + frac / max(1, workers)
        per_item = work * speedup_factor + self.CHUNK_OVERHEAD[backend]
        return fixed + items * per_item

    def choose(
        self,
        key: str,
        items: int,
        workers: int,
        *,
        work_prior: float,
        graph_bytes: int = 0,
        warm: Sequence[str] = (),
        shared: bool = False,
        allowed: Sequence[str] = BACKEND_ORDER,
    ) -> Decision:
        """Deterministic argmin over the allowed backends."""
        estimates = {
            backend: self.estimate(
                key,
                backend,
                items,
                workers,
                work_prior=work_prior,
                warm=backend in warm,
                shared=shared,
                graph_bytes=graph_bytes,
            )
            for backend in BACKEND_ORDER
            if backend in allowed
        }
        winner = min(estimates, key=lambda b: (estimates[b], BACKEND_ORDER.index(b)))
        calibrated = any((key, b) in self._wall_per_item for b in estimates)
        return Decision(backend=winner, estimates=estimates, calibrated=calibrated)

    # -- calibration -------------------------------------------------------

    def _ewma(self, old: Optional[float], new: float) -> float:
        if old is None:
            return new
        return (1.0 - self.alpha) * old + self.alpha * new

    def observe(
        self,
        key: str,
        backend: str,
        items: int,
        busy: float,
        wall: float,
        warmup: float = 0.0,
        spinup: float = 0.0,
    ) -> None:
        """Fold one fan-out's telemetry into the model.

        ``wall`` minus ``warmup`` is the steady-state cost a *warm*
        repeat of this call would pay — that is what the per-(fn,
        backend) rate tracks.  ``busy`` (summed in-chunk compute
        seconds) calibrates the serial-equivalent work rate; thread
        chunks inflate busy with GIL contention, so only serial and
        process runs update it.
        """
        if items <= 0 or wall < 0:
            return
        steady = max(wall - warmup, 0.0)
        rate_key = (key, backend)
        self._wall_per_item[rate_key] = self._ewma(
            self._wall_per_item.get(rate_key), steady / items
        )
        if backend in ("serial", "process") and busy > 0:
            per_item = busy / items
            self._work_per_item[key] = self._ewma(
                self._work_per_item.get(key), per_item
            )
            self._unit_cost = self._ewma(self._unit_cost, per_item)
        if spinup > 0 and backend in self._spinup:
            self._spinup[backend] = self._ewma(self._spinup[backend], spinup)
        self.observations += 1

    # -- chunk-size selection ----------------------------------------------

    def auto_chunk_size(self, num_items: int, workers: int) -> Optional[int]:
        """Chunk size targeting ``TARGET_CHUNK_SECONDS`` of work per chunk.

        ``None`` until calibrated (callers fall back to the default
        oversubscription policy).  Never chunks finer than the default
        policy, never coarser than one chunk per worker — so balance
        survives, only dispatch overhead shrinks.
        """
        if self._unit_cost is None or num_items <= 0:
            return None
        base = default_chunk_size(num_items, workers)
        target = int(math.ceil(TARGET_CHUNK_SECONDS / max(self._unit_cost, 1e-12)))
        per_worker = -(-num_items // max(1, workers))
        return max(1, min(max(base, target), per_worker))

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Model state for debugging / the CLI profile JSON."""
        return {
            "observations": self.observations,
            "unit_cost": self._unit_cost,
            "spinup": dict(self._spinup),
            "work_per_item": dict(self._work_per_item),
            "wall_per_item": {
                f"{key}|{backend}": rate
                for (key, backend), rate in self._wall_per_item.items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostModel(observations={self.observations})"


# ----------------------------------------------------------------------
# Process-wide default: calibration persists across executors in a
# session, so a bench's fixed-backend passes teach auto mode.
# ----------------------------------------------------------------------

_DEFAULT: Optional[CostModel] = None


def default_cost_model() -> CostModel:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = CostModel()
    return _DEFAULT


def reset_default_cost_model() -> None:
    """Forget all calibration (tests; fresh-session semantics)."""
    global _DEFAULT
    _DEFAULT = None
