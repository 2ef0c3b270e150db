"""Unified resilience: deterministic faults, retries, and checkpoints.

The surveyed systems are distributed by nature, and each family grew
its own fault-tolerance machinery: Pregel-family TLAV engines
checkpoint vertex state and replay (LWCP [48]), Dorylus [39] runs the
tensor stage on preemptible serverless lambdas and re-invokes the ones
that fail or straggle, and the task/GNN engines must survive worker
crashes and lossy links.  Before this package each corner modelled
failure ad hoc; ``repro.resilience``
gives the whole stack one substrate:

* :class:`FaultPlan` / :class:`FaultInjector` — a *seeded, deterministic*
  fault schedule (crash worker at chunk c, drop/duplicate/delay message
  k, fail superstep s, fail a lambda invocation with probability p)
  that every engine consumes.  Determinism is per-event: each fault
  decision hashes ``(seed, stream, event-key)``, so replaying or
  retransmitting never shifts another event's fate;
* :class:`RetryPolicy` — timeout + capped exponential backoff with
  deterministic jitter, wired into :class:`~repro.cluster.comm.Network`
  (ack/retransmit on a lossy link) and the serverless lambda fleet
  (re-invocation of failed/straggler lambdas);
* :class:`Snapshot` / :class:`SnapshotStore` — the checkpoint/restore
  protocol generalizing LWCP beyond TLAV: the TLAG engine snapshots its
  pending task queues, the GNN training loop its weights + optimizer
  state + epoch, and the multicore executor re-dispatches the spans a
  dead process worker leaves behind.

Everything reports through :mod:`repro.obs` under the ``resilience.*``
namespace (faults injected, retries, retransmitted bytes, re-dispatched
chunks, checkpoint/restore traffic) and is driveable end-to-end from
the ``repro chaos`` CLI subcommand.

The invariant every consumer is tested against: **with a fixed seed and
chunking, a run under a fault plan produces bit-identical results to
the failure-free run** — recovery changes the cost surface, never the
answer.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "faults": (
        "ENV_FAULT_SEED", "FaultError", "FaultInjector", "FaultPlan", "MessageFate",
        "resolve_fault_seed",
    ),
    "retry": ("RetryPolicy",),
    "snapshot": ("Snapshot", "SnapshotStore"),
})
