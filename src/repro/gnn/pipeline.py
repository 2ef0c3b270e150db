"""Operator scheduling and pipelining (ByteGNN / BGL / Dorylus).

Sampled GNN training is a pipeline of heterogeneous operators —
**sample** (CPU graph walk), **gather** (feature fetch, network), and
**compute** (dense math) — and the "Operator Scheduling" techniques of
Table 2 are about keeping all three resources busy:

* :func:`sequential_schedule` — the naive baseline: one mini-batch's
  stages run back to back; every resource idles 2/3 of the time;
* :func:`pipelined_schedule` — BGL's factored paradigm: each stage type
  runs on its own executor, batch ``i``'s compute overlaps batch
  ``i+1``'s gather and batch ``i+2``'s sample; throughput approaches
  the bottleneck stage's rate;
* :func:`two_level_schedule` — ByteGNN's refinement: with ``k``
  interleaved sampler instances per iteration (intra-iteration
  parallelism) the sample stage stops being the bottleneck.

All three consume per-batch stage durations (seconds or any unit) and
return a :class:`ScheduleResult` with makespan and per-resource
utilization — the quantities bench C9 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import numpy as np

from ..obs import StatsViewMixin
from ..sim import WorkerClocks

__all__ = [
    "StageTimes",
    "ScheduleResult",
    "sequential_schedule",
    "pipelined_schedule",
    "two_level_schedule",
    "measured_stage_times",
]


@dataclass
class StageTimes:
    """Durations of one mini-batch's three stages."""

    sample: float
    gather: float
    compute: float


@dataclass
class ScheduleResult(StatsViewMixin):
    """Outcome of scheduling a batch sequence."""

    makespan: float
    busy: Dict[str, float] = field(default_factory=dict)

    def utilization(self, stage: str) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.busy.get(stage, 0.0) / self.makespan

    @property
    def mean_utilization(self) -> float:
        if not self.busy:
            return 0.0
        return sum(self.utilization(s) for s in self.busy) / len(self.busy)

    def extra_dict(self) -> Dict[str, Any]:
        return {
            "utilization": {s: self.utilization(s) for s in self.busy},
            "mean_utilization": self.mean_utilization,
        }

    def merge(self, other: "ScheduleResult") -> "ScheduleResult":
        """Sequential composition: makespans and busy times add."""
        self.makespan += other.makespan
        for stage, t in other.busy.items():
            self.busy[stage] = self.busy.get(stage, 0.0) + t
        return self


def _busy(batches: Sequence[StageTimes]) -> Dict[str, float]:
    """Per-resource busy time: the same whatever the schedule."""
    busy = {"sample": 0.0, "gather": 0.0, "compute": 0.0}
    for b in batches:
        busy["sample"] += b.sample
        busy["gather"] += b.gather
        busy["compute"] += b.compute
    return busy


def sequential_schedule(batches: Sequence[StageTimes]) -> ScheduleResult:
    """Run each batch's sample -> gather -> compute back to back."""
    makespan = 0.0
    for b in batches:
        makespan += b.sample + b.gather + b.compute
    return ScheduleResult(makespan=makespan, busy=_busy(batches))


def pipelined_schedule(batches: Sequence[StageTimes]) -> ScheduleResult:
    """Three dedicated executors; stage ``k`` of batch ``i`` waits for
    stage ``k-1`` of batch ``i`` and stage ``k`` of batch ``i-1``."""
    return two_level_schedule(batches, samplers=1)


def two_level_schedule(
    batches: Sequence[StageTimes], samplers: int = 2
) -> ScheduleResult:
    """ByteGNN's two-level scheme: ``samplers`` concurrent sampler
    instances feed the gather/compute pipeline (inter-iteration pipeline
    plus intra-iteration operator parallelism)."""
    sampler_pool = WorkerClocks(max(samplers, 1))
    gather_free = compute_free = 0.0
    for b in batches:
        start, k = sampler_pool.pop()  # the earliest-free sampler
        s_end = start + b.sample
        sampler_pool.push(k, s_end)
        gather_free = max(s_end, gather_free) + b.gather
        compute_free = max(gather_free, compute_free) + b.compute
    return ScheduleResult(makespan=compute_free, busy=_busy(batches))


def measured_stage_times(
    num_batches: int,
    sample_cost: float = 1.0,
    gather_cost: float = 1.2,
    compute_cost: float = 0.8,
    jitter: float = 0.2,
    seed: int = 0,
) -> List[StageTimes]:
    """Synthetic per-batch stage durations with multiplicative jitter."""
    rng = np.random.default_rng(seed)

    def j() -> float:
        return 1.0 + jitter * (rng.random() - 0.5)

    return [
        StageTimes(
            sample=sample_cost * j(),
            gather=gather_cost * j(),
            compute=compute_cost * j(),
        )
        for _ in range(num_batches)
    ]
