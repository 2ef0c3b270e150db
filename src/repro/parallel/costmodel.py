"""Measured backend selection for ``backend="auto"`` fan-outs.

The survey's recurring lesson is that no single execution strategy wins
across workloads: process pools amortize beautifully on big fan-outs and
drown small ones in spawn/pickle overhead.  :class:`CostModel` picks
between ``serial`` and ``process`` per call from measured rates alone:

1. a ``fn`` key with no serial measurement runs ``serial`` — the
   reference, free to try;
2. an unmeasured ``process`` rate is estimated as the serial rate
   divided by ``workers``, its best case, so the pool is tried once
   wherever it could win and is judged on its own rate after that;
3. a cold start is charged unless the pool is warm and the graph
   already shared: one EWMA of measured warm-up seconds (pool spawn +
   CSR publish), seeded by :data:`COLD_START`;
4. ties go to ``serial``.

Every ``map_spans`` feeds the wall and warm-up seconds it meters into
the ``parallel.*`` registry back into the model, which keeps
exponentially-weighted moving averages (weight :data:`ALPHA`) of wall
seconds per work item per ``(fn, backend)`` pair.  Given the same
observation history, :meth:`CostModel.choose` is deterministic, which is
what the auto-mode determinism tests pin.

The model picks a backend, never a chunk layout: the executor cuts its
spans from the item count, worker count and ``chunk_size`` alone, so
what the model has learned cannot change a fan-out's result bits.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

__all__ = ["CostModel", "default_cost_model", "reset_default_cost_model"]

#: Seconds a cold process start costs before one has been measured.
COLD_START = 0.25

#: EWMA weight of the newest observation.
ALPHA = 0.4


class CostModel:
    """Per-``(fn, backend)`` wall rates, learned from fan-out telemetry."""

    def __init__(self) -> None:
        #: (fn key, backend) -> EWMA steady-state wall seconds per item.
        self._wall_per_item: Dict[Tuple[str, str], float] = {}
        #: EWMA measured process warm-up seconds.
        self._cold_start = COLD_START
        self.observations = 0

    # -- selection ---------------------------------------------------------

    def choose(
        self,
        key: str,
        items: int,
        workers: int,
        *,
        cold: bool = True,
        allowed: Sequence[str] = ("serial", "process"),
    ) -> str:
        """``serial`` or ``process`` for ``items`` of ``key`` (see module doc)."""
        serial = self._wall_per_item.get((key, "serial"))
        if serial is None or "process" not in allowed:
            return "serial"
        process = self._wall_per_item.get((key, "process"), serial / max(1, workers))
        cost = items * process + (self._cold_start if cold else 0.0)
        return "process" if cost < items * serial else "serial"

    # -- calibration -------------------------------------------------------

    def _ewma(self, old: Optional[float], new: float) -> float:
        if old is None:
            return new
        return (1.0 - ALPHA) * old + ALPHA * new

    def observe(
        self,
        key: str,
        backend: str,
        items: int,
        wall: float,
        warmup: float = 0.0,
    ) -> None:
        """Fold one fan-out's telemetry into the model.

        ``wall`` minus ``warmup`` is the steady-state cost a *warm*
        repeat of this call would pay — that is what the per-(fn,
        backend) rate tracks; a process run's ``warmup`` itself updates
        the cold-start charge.
        """
        if items <= 0 or wall < 0:
            return
        steady = max(wall - warmup, 0.0)
        rate_key = (key, backend)
        self._wall_per_item[rate_key] = self._ewma(
            self._wall_per_item.get(rate_key), steady / items
        )
        if backend == "process" and warmup > 0:
            self._cold_start = self._ewma(self._cold_start, warmup)
        self.observations += 1

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Model state for debugging / the CLI profile JSON."""
        return {
            "observations": self.observations,
            "cold_start": self._cold_start,
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
