"""The TLAG task engine: DFS tasks, work stealing, task splitting.

This is the G-thinker [53, 54] execution model in simulation:

* every worker owns a deque of tasks; local execution pops from the back
  (LIFO ⇒ depth-first, bounded memory);
* an idle worker **steals** from the front of the most loaded worker's
  deque (FIFO end ⇒ the shallowest, largest tasks move, amortizing the
  steal);
* a task that exceeds the per-task budget stops recursing and *forks*
  its remaining branches as new tasks (timeout-based task splitting),
  which is what makes stealing effective on skewed inputs.

Time is simulated: each worker has a clock advanced by the ops its tasks
charge, and the engine always schedules the worker with the smallest
clock next.  ``EngineStats`` then reports makespan (max clock), total
work, per-worker busy time, steals and splits — exactly the load-balance
quantities the G-thinker/STMatch papers plot.

All counters live in a :class:`~repro.obs.MetricsRegistry` under the
``tlag.*`` namespace; ``EngineStats`` is a read view over it, so
``stats.steals`` etc. and any shared registry snapshot show the same
numbers.  The clocks and the deque protocol themselves are
:mod:`repro.sim`'s; this module adds task execution, splitting and
checkpointing.

Setting ``num_workers=1`` and ``task_budget=None`` degenerates to a
plain serial DFS solver, which tests use as the reference.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..graph.store.handle import as_handle
from ..obs import MetricsRegistry, StatsViewMixin, Tracer
from ..parallel.chunking import chunk_list
from ..resilience import FaultInjector, SnapshotStore
from ..sim import WorkStealing, balance, check_workers
from .task import Task, TaskContext, TaskProgram

__all__ = ["TaskEngine", "EngineStats"]

SNAPSHOT_TAG = "tlag"


class EngineStats(StatsViewMixin):
    """Observability surface of a :class:`TaskEngine` run.

    A view over ``tlag.*`` metrics in ``registry``; the engine writes
    through the ``record_*`` methods and readers see plain attributes.
    """

    def __init__(
        self,
        num_workers: int,
        registry: Optional[MetricsRegistry] = None,
        worker_busy: Optional[List[int]] = None,
    ) -> None:
        self.num_workers = num_workers
        self.registry = registry if registry is not None else MetricsRegistry()
        self._c_tasks = self.registry.counter(
            "tlag.tasks_executed", "tasks popped and processed"
        )
        self._c_forked = self.registry.counter(
            "tlag.tasks_forked", "tasks created by budget-triggered splits"
        )
        self._c_steals = self.registry.counter(
            "tlag.steals", "tasks stolen from another worker's deque"
        )
        self._c_ops = self.registry.counter(
            "tlag.total_ops", "simulated operations charged by tasks"
        )
        self._g_busy = self.registry.gauge(
            "tlag.worker_busy", "per-worker simulated clock (busy time)"
        )
        self._g_peak = self.registry.gauge(
            "tlag.peak_pending_tasks", "peak queued tasks across all workers"
        )
        self._h_task_ops = self.registry.histogram(
            "tlag.task_ops", "ops charged per task"
        )
        for w, busy in enumerate(worker_busy or []):
            self._g_busy.set(busy, worker=w)

    # -- write path (engine-only) ------------------------------------------

    def record_task(self, worker: int, ops: int, forked: int, clock: int) -> None:
        self._c_tasks.inc()
        self._c_ops.inc(ops)
        if forked:
            self._c_forked.inc(forked)
        self._g_busy.set(clock, worker=worker)
        self._h_task_ops.observe(ops)

    def record_steal(self) -> None:
        self._c_steals.inc()

    def record_pending(self, pending: int) -> None:
        self._g_peak.set_max(pending)

    # -- read path ---------------------------------------------------------

    @property
    def tasks_executed(self) -> int:
        return int(self._c_tasks.total)

    @property
    def tasks_forked(self) -> int:
        return int(self._c_forked.total)

    @property
    def steals(self) -> int:
        return int(self._c_steals.total)

    @property
    def total_ops(self) -> int:
        return int(self._c_ops.total)

    @property
    def peak_pending_tasks(self) -> int:
        return int(self._g_peak.value())

    @property
    def worker_busy(self) -> List[int]:
        by_worker = {
            int(dict(key)["worker"]): int(v)
            for key, v in self._g_busy.values().items()
        }
        return [by_worker.get(w, 0) for w in range(self.num_workers)]

    @property
    def makespan(self) -> int:
        """Simulated finish time: the busiest worker's clock."""
        busy = self.worker_busy
        return max(busy) if busy else 0

    @property
    def balance(self) -> float:
        """Makespan over ideal (total/num_workers); 1.0 is perfect."""
        return balance(self.makespan, self.total_ops, self.num_workers)

    # -- StatsView ----------------------------------------------------------

    def extra_dict(self) -> Dict[str, Any]:
        return {
            "num_workers": self.num_workers,
            "tasks_executed": self.tasks_executed,
            "tasks_forked": self.tasks_forked,
            "steals": self.steals,
            "total_ops": self.total_ops,
            "worker_busy": self.worker_busy,
            "peak_pending_tasks": self.peak_pending_tasks,
            "makespan": self.makespan,
            "balance": self.balance,
        }

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Combine runs: counters add, peaks/busy take per-worker max."""
        self.num_workers = max(self.num_workers, other.num_workers)
        for metric in (
            self._c_tasks, self._c_forked, self._c_steals, self._c_ops,
            self._g_busy, self._g_peak, self._h_task_ops,
        ):
            metric.merge(other.registry.get(metric.name))
        return self


class TaskEngine:
    """Simulated multi-worker executor for :class:`TaskProgram`.

    Parameters
    ----------
    graph:
        Data graph shared by all workers (read-only).
    program:
        The subgraph-centric program.
    num_workers:
        Simulated worker count.
    task_budget:
        Per-task ops budget; programs that honour ``ctx.over_budget()``
        fork their remaining work once past it.  ``None`` disables
        splitting.
    steal:
        Enable work stealing (disable to measure the imbalance it fixes).
    collect_results:
        Keep emitted results (disable for counting-only runs to avoid
        materialization — the G-thinker "no instance materialization"
        property).
    chunk_size:
        Unit of the initial task deal: contiguous chunks of this many
        spawned tasks go to workers round-robin (``None`` keeps the
        task-at-a-time deal).  This is the *same* chunking policy
        (:mod:`repro.parallel.chunking`) the multicore executor uses, so
        bench C4 and the real backend share one knob: bigger chunks mean
        cheaper scheduling but coarser stealing granularity.
    obs:
        Optional shared :class:`~repro.obs.MetricsRegistry`; the engine
        emits its ``tlag.*`` counters there (it creates a private one
        when omitted).
    tracer:
        Optional :class:`~repro.obs.Tracer`; :meth:`run` is recorded as
        a ``tlag.run`` span whose simulated clock is the makespan.
    injector:
        Optional :class:`~repro.resilience.FaultInjector`; its
        ``fail_task`` faults crash the engine just before the n-th task
        executes, losing every queue back to the last checkpoint.
    snapshots:
        Optional shared :class:`~repro.resilience.SnapshotStore` for the
        ``tlag``-tagged checkpoints (pending task queues + worker
        clocks + results so far).  A private one is created when an
        injector or cadence is given without a store.
    checkpoint_every:
        Tasks between checkpoints (``None`` keeps only the pre-run
        snapshot, i.e. recovery restarts the deal).
    """

    span_name = "tlag.run"

    def __init__(
        self,
        graph_or_handle,
        program: TaskProgram,
        num_workers: int = 4,
        task_budget: Optional[int] = None,
        steal: bool = True,
        collect_results: bool = True,
        obs: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        chunk_size: Optional[int] = None,
        injector: Optional[FaultInjector] = None,
        snapshots: Optional[SnapshotStore] = None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.graph = as_handle(graph_or_handle)
        self.program = program
        self.num_workers = check_workers(num_workers)
        self.task_budget = task_budget
        self.steal = steal
        self.chunk_size = chunk_size
        self.collect_results = collect_results
        self.results: List[Any] = []
        self.result_count = 0
        self.obs = obs if obs is not None else MetricsRegistry()
        self.tracer = tracer
        self.injector = injector
        self.checkpoint_every = checkpoint_every
        resilient = injector is not None or checkpoint_every is not None
        if snapshots is None and resilient:
            snapshots = SnapshotStore(obs=self.obs)
        self.snapshots = snapshots
        self.stats = EngineStats(
            num_workers, registry=self.obs, worker_busy=[0] * num_workers
        )
        #: The live :class:`~repro.sim.WorkStealing` schedule of :meth:`run`.
        self.schedule: Optional[WorkStealing] = None

    def run(self) -> List[Any]:
        """Execute to completion; returns collected results."""
        span = (
            self.tracer.span(self.span_name, workers=self.num_workers)
            if self.tracer is not None
            else None
        )
        try:
            return self._run()
        finally:
            if span is not None:
                span.set_sim(0, self.stats.makespan)
                span.set("tasks", self.stats.tasks_executed)
                span.__exit__(None, None, None)

    # -- what a subclass places, views and bills differently ---------------

    def _deal(self) -> None:
        """Initial placement: ``chunk_size`` tasks at a time, round-robin."""
        spawned = list(self.program.spawn(self.graph))
        self.schedule.deal(chunk_list(spawned, self.chunk_size or 1))

    def _view(self, w: int) -> Any:
        """The graph worker ``w``'s tasks read."""
        return self.graph

    def _on_steal(self, victim: int, w: int, task: Task) -> None:
        self.stats.record_steal()

    def _run(self) -> List[Any]:
        sched = self.schedule = WorkStealing(
            self.num_workers, self.steal, self._on_steal
        )
        self._deal()
        executed = 0  # monotonic task index, the fail_task coordinate
        if self.snapshots is not None:
            self._checkpoint(executed)

        while True:
            slot = sched.take()
            if slot is None:
                return self.results
            w, now, task = slot
            if self.injector is not None and self.injector.take_task_failure(
                executed
            ):
                # Crash: every deque, clock and partial result is volatile;
                # fall back to the last checkpoint and re-execute from there.
                executed = self._recover(executed)
                continue
            ctx = TaskContext(self._view(w), budget=self.task_budget)
            ctx.collect_results = self.collect_results
            self.program.process(task, ctx)
            finish = now + max(ctx.ops, 1)
            self.stats.record_task(w, ctx.ops, len(ctx.forked), finish)
            self.result_count += ctx.result_count
            if self.collect_results:
                self.results.extend(ctx.results)
            sched.done(w, finish, ctx.forked)
            self.stats.record_pending(sched.pending)
            executed += 1
            if (
                self.snapshots is not None
                and self.checkpoint_every is not None
                and executed % self.checkpoint_every == 0
            ):
                self._checkpoint(executed)

    # -- checkpoint/restore (unified Snapshot protocol, tag "tlag") ---------

    def _checkpoint(self, executed: int) -> None:
        assert self.snapshots is not None
        state = {
            "schedule": self.schedule.state(),
            "executed": executed,
            "results": self.results,
            "result_count": self.result_count,
        }
        self.snapshots.save(SNAPSHOT_TAG, executed, state)

    def _recover(self, executed: int) -> int:
        """Roll the schedule and the results back; returns the task
        index execution resumes from."""
        assert self.snapshots is not None
        state = self.snapshots.restore_latest(SNAPSHOT_TAG)
        if self.tracer is not None:
            with self.tracer.span(
                "resilience.recover",
                engine="tlag",
                task=executed,
                replayed=executed - state["executed"],
            ):
                pass
        self.results = state["results"]
        self.result_count = state["result_count"]
        self.schedule.restore(state["schedule"])
        return state["executed"]
