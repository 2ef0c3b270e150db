"""Serverless GNN training economics (Dorylus).

Dorylus [39] splits GNN training between cheap CPU *graph servers*
(gather/scatter, which is memory-bound) and burstable **Lambda
threads** (the dense tensor ops), and argues this beats GPU instances
on *value per dollar*.  The headline numbers are an arithmetic over
cloud prices and measured op throughputs — exactly reproducible
offline.

:func:`estimate_costs` prices one training run under three deployments:

* ``gpu`` — GPU instances run everything;
* ``cpu`` — CPU instances run everything;
* ``cpu+lambda`` — CPU servers run graph ops; lambdas run tensor ops,
  overlapped with the graph stage (Dorylus's pipelining), with a
  per-invocation overhead.

Defaults approximate 2021 AWS prices (p3.2xlarge, c5.4xlarge, Lambda
GB-second) — the benches only use the *ratios*.  The GPU graph-op rate
is deliberately CPU-like: in Dorylus's setting the graph exceeds device
memory, so gathers pay host<->device transfer and are not accelerated.
Value-per-dollar = 1 / (makespan * dollars), Dorylus's metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..obs import MetricsRegistry, StatsViewMixin, merge_counters
from ..resilience import FaultInjector, RetryPolicy
from ..sim import WorkerClocks

__all__ = [
    "DeploymentCost",
    "FleetStats",
    "Workload",
    "estimate_costs",
    "simulate_fleet",
]


@dataclass
class Workload:
    """Per-epoch op counts of a training job.

    ``graph_ops``: gather/scatter element ops; ``tensor_flops``: dense
    math; ``epochs``: how many epochs to price.
    """

    graph_ops: float
    tensor_flops: float
    epochs: int = 100


@dataclass
class DeploymentCost:
    """Time and money for one deployment option."""

    name: str
    time_seconds: float
    dollars: float

    @property
    def value_per_dollar(self) -> float:
        """Dorylus's metric: throughput per dollar (higher is better)."""
        if self.time_seconds <= 0 or self.dollars <= 0:
            return float("inf")
        return 1.0 / (self.time_seconds * self.dollars)


def estimate_costs(
    workload: Workload,
    gpu_tensor_flops_per_s: float = 15e12,
    gpu_graph_ops_per_s: float = 2e9,
    gpu_dollars_per_hour: float = 3.06,
    cpu_tensor_flops_per_s: float = 0.6e12,
    cpu_graph_ops_per_s: float = 2e9,
    cpu_dollars_per_hour: float = 0.68,
    lambda_tensor_flops_per_s: float = 0.08e12,
    lambda_dollars_per_gb_second: float = 0.0000166667,
    lambda_gb: float = 2.0,
    lambda_parallelism: int = 64,
    lambda_overhead_s: float = 0.010,
    lambda_invocations_per_epoch: int = 32,
) -> Dict[str, DeploymentCost]:
    """Price the workload under gpu / cpu / cpu+lambda deployments."""
    e = workload.epochs

    # --- GPU instances do everything.
    gpu_time = e * (
        workload.tensor_flops / gpu_tensor_flops_per_s
        + workload.graph_ops / gpu_graph_ops_per_s
    )
    gpu_cost = gpu_time / 3600.0 * gpu_dollars_per_hour

    # --- CPU instances do everything.
    cpu_time = e * (
        workload.tensor_flops / cpu_tensor_flops_per_s
        + workload.graph_ops / cpu_graph_ops_per_s
    )
    cpu_cost = cpu_time / 3600.0 * cpu_dollars_per_hour

    # --- CPU graph servers + lambda tensor ops, pipelined: the epoch
    # time is the max of the two stages (Dorylus overlaps them), plus
    # the invocation overhead of the lambda fleet.
    graph_stage = workload.graph_ops / cpu_graph_ops_per_s
    lambda_stage = (
        workload.tensor_flops
        / (lambda_tensor_flops_per_s * lambda_parallelism)
        + lambda_overhead_s * lambda_invocations_per_epoch / lambda_parallelism
    )
    hybrid_time = e * max(graph_stage, lambda_stage)
    lambda_busy_s = e * lambda_stage * lambda_parallelism
    hybrid_cost = (
        hybrid_time / 3600.0 * cpu_dollars_per_hour
        + lambda_busy_s * lambda_gb * lambda_dollars_per_gb_second
    )

    return {
        "gpu": DeploymentCost("gpu", gpu_time, gpu_cost),
        "cpu": DeploymentCost("cpu", cpu_time, cpu_cost),
        "cpu+lambda": DeploymentCost("cpu+lambda", hybrid_time, hybrid_cost),
    }


@dataclass
class FleetStats(StatsViewMixin):
    """Outcome accounting of one simulated lambda-fleet stage.

    ``busy_seconds`` is productive compute, ``wasted_seconds`` is time
    burned by failed or killed attempts, ``backoff_seconds`` the summed
    retry delays — the cost Dorylus's tail-latency argument is about.
    """

    invocations: int = 0
    attempts: int = 0
    failures: int = 0
    stragglers: int = 0
    retries: int = 0
    exhausted: int = 0
    busy_seconds: float = 0.0
    wasted_seconds: float = 0.0
    backoff_seconds: float = 0.0
    makespan: float = 0.0

    def extra_dict(self) -> Dict[str, Any]:
        total = self.busy_seconds + self.wasted_seconds + self.backoff_seconds
        return {
            "goodput": self.busy_seconds / total if total > 0 else 1.0,
        }

    def merge(self, other: "FleetStats") -> "FleetStats":
        return merge_counters(
            self,
            other,
            sum_fields=(
                "invocations", "attempts", "failures", "stragglers",
                "retries", "exhausted", "busy_seconds", "wasted_seconds",
                "backoff_seconds",
            ),
            max_fields=("makespan",),
        )


def simulate_fleet(
    invocations: int,
    duration_s: float,
    parallelism: int,
    injector: Optional[FaultInjector] = None,
    retry: Optional[RetryPolicy] = None,
    straggler_factor: float = 8.0,
    overhead_s: float = 0.010,
    obs: Optional[MetricsRegistry] = None,
) -> FleetStats:
    """Simulate one lambda stage under faults, retries and stragglers.

    Each of ``invocations`` lambda calls runs ``duration_s`` of useful
    work on the earliest-free of ``parallelism`` slots.  The
    ``injector``'s ``fail_lambda`` plan decides each attempt's fate:

    * ``fail`` — the attempt dies halfway (detection costs the overhead
      plus half the duration); with a ``retry`` policy it is re-invoked
      after the deterministic backoff, otherwise (or past the attempt
      budget) the work is forced through once more and counted under
      ``exhausted`` — the fleet never loses gradients, it only pays.
    * ``straggler`` — with a ``retry`` policy the attempt is killed at
      the policy's ``timeout`` and re-invoked (Dorylus's tail cure);
      without one the slot crawls for ``duration_s * straggler_factor``.

    Everything is deterministic given the injector's seed, so the chaos
    suite can assert exact costs.  Counted under ``resilience.*`` when
    ``obs`` is given.
    """
    if invocations < 0:
        raise ValueError("invocations must be >= 0")
    stats = FleetStats(invocations=invocations)
    slots = WorkerClocks(parallelism)
    c_attempts = c_retries = c_backoff = None
    if obs is not None:
        c_attempts = obs.counter(
            "resilience.lambda_attempts", "lambda attempts, by outcome"
        )
        c_retries = obs.counter("resilience.retries", "retried operations, by op")
        c_backoff = obs.counter(
            "resilience.backoff_seconds", "summed (simulated) backoff delay"
        )
    max_attempts = retry.max_attempts if retry is not None else 1
    for inv in range(invocations):
        t, slot = slots.pop()  # the earliest-free slot
        attempt = 0
        while True:
            stats.attempts += 1
            outcome = (
                injector.lambda_outcome(inv, attempt)
                if injector is not None
                else "ok"
            )
            can_retry = retry is not None and attempt + 1 < max_attempts
            if outcome == "ok":
                t += overhead_s + duration_s
                stats.busy_seconds += duration_s
                if c_attempts is not None:
                    c_attempts.inc(outcome="ok")
                break
            if outcome == "fail":
                stats.failures += 1
                wasted = overhead_s + 0.5 * duration_s
                t += wasted
                stats.wasted_seconds += wasted
                if c_attempts is not None:
                    c_attempts.inc(outcome="fail")
                if not can_retry:
                    # Out of budget (or no policy): force the work
                    # through so no gradient is lost, but count it.
                    stats.exhausted += 1
                    t += overhead_s + duration_s
                    stats.busy_seconds += duration_s
                    break
            else:  # straggler
                stats.stragglers += 1
                if c_attempts is not None:
                    c_attempts.inc(outcome="straggler")
                if retry is None:
                    # No tail cure: the slot crawls to completion.
                    slow = overhead_s + duration_s * straggler_factor
                    t += slow
                    stats.busy_seconds += duration_s
                    stats.wasted_seconds += slow - duration_s - overhead_s
                    break
                # Kill at the per-attempt deadline and re-invoke.
                wasted = overhead_s + retry.timeout
                t += wasted
                stats.wasted_seconds += wasted
                if not can_retry:
                    stats.exhausted += 1
                    t += overhead_s + duration_s
                    stats.busy_seconds += duration_s
                    break
            attempt += 1
            stats.retries += 1
            pause = retry.delay(attempt, key=("lambda", inv))
            t += pause
            stats.backoff_seconds += pause
            if c_retries is not None:
                c_retries.inc(op="lambda")
                c_backoff.inc(pause)
        slots.push(slot, t)
    stats.makespan = float(slots.makespan)
    return stats
