"""Interactive subgraph querying (the G-thinkerQ model).

G-thinker runs one offline job at a time; G-thinkerQ [63] extends the
task-based model to *online* querying, where users continually submit
subgraph queries and the system multiplexes all of their tasks over the
same workers.  The practical win is scheduling: a short query's tasks
interleave with a long-running query's tasks instead of waiting behind
them, so mean response time drops — the classic shared-server argument.

:class:`QueryServer` reproduces this: queries are compiled to anchored
matching tasks (one per candidate of the first order vertex, as in
:class:`~repro.tlag.programs.MatchProgram`), and the simulated workers
pick the next task from the *least-served* live query (fair sharing).
``serve()`` returns per-query results whose ``response_time`` is
``completion_time - arrival`` in simulated ops; ``run_sequentially()``
is the baseline that runs the same queries back to back.  Bench C15
compares the two.  The server reports through :mod:`repro.obs`
(``tlag.query.*`` counters/histograms and a ``tlag.query.serve`` span
via :class:`QueryServerStats`), and the multi-tenant front door in
:mod:`repro.serve` exposes this query model as its ``tlag`` endpoint
family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..graph.csr import Graph
from ..matching.backtrack import MatchStats, match
from ..matching.pattern import PatternGraph, symmetry_breaking_restrictions
from ..matching.plan import GraphStats, Planner
from ..obs import MetricsRegistry, StatsViewMixin, Tracer
from ..sim import WorkerClocks, check_workers

__all__ = ["Query", "QueryResult", "QueryServer", "QueryServerStats"]


@dataclass
class Query:
    """One subgraph query: a pattern plus an optional matching order."""

    pattern: PatternGraph
    order: Optional[Sequence[int]] = None
    arrival: int = 0  # simulated ops timestamp of submission


@dataclass
class QueryResult:
    """Outcome of one query."""

    query_id: int
    embeddings: int
    completion_time: int  # simulated ops clock when the last task finished
    work: int  # total ops spent on this query
    arrival: int = 0  # when the query was submitted

    @property
    def response_time(self) -> int:
        """What the user waited: completion minus submission time."""
        return self.completion_time - self.arrival


@dataclass
class _QueryState:
    query: Query
    tasks: List[int] = field(default_factory=list)  # pending anchor vertices
    work_done: int = 0
    embeddings: int = 0
    completed_at: int = 0


class QueryServerStats(StatsViewMixin):
    """Registry view over the ``tlag.query.*`` metrics one server emits."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._c_submitted = self.registry.counter(
            "tlag.query.submitted", "queries registered with the server"
        )
        self._c_completed = self.registry.counter(
            "tlag.query.completed", "queries fully answered, by mode"
        )
        self._c_tasks = self.registry.counter(
            "tlag.query.tasks", "anchored matching tasks executed"
        )
        self._c_work = self.registry.counter(
            "tlag.query.work_ops", "simulated ops spent matching"
        )
        self._h_response = self.registry.histogram(
            "tlag.query.response_ops",
            "per-query response time (completion - arrival), simulated ops",
        )

    def record_submit(self) -> None:
        self._c_submitted.inc()

    def record_task(self, ops: int) -> None:
        self._c_tasks.inc()
        self._c_work.inc(ops)

    def record_completion(self, result: "QueryResult", mode: str) -> None:
        self._c_completed.inc(mode=mode)
        self._h_response.observe(result.response_time, mode=mode)

    @property
    def submitted(self) -> int:
        return int(self._c_submitted.total)

    @property
    def completed(self) -> int:
        return int(self._c_completed.total)

    @property
    def tasks_executed(self) -> int:
        return int(self._c_tasks.total)

    @property
    def total_work(self) -> int:
        return int(self._c_work.total)

    def mean_response(self, mode: str) -> float:
        return self._h_response.mean(mode=mode)


class QueryServer:
    """Multiplexes concurrent subgraph queries over shared workers."""

    def __init__(
        self,
        graph: Graph,
        num_workers: int = 4,
        obs: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.graph = graph
        self.num_workers = check_workers(num_workers)
        self.obs = obs if obs is not None else MetricsRegistry()
        self.tracer = tracer
        self.stats = QueryServerStats(self.obs)
        self._planner = Planner(GraphStats.of(graph))
        self._queries: List[_QueryState] = []

    def submit(self, query: Query) -> int:
        """Register a query; returns its id."""
        if query.order is None:
            query.order = self._planner.plan(query.pattern).order
        self.stats.record_submit()
        state = _QueryState(query=query)
        first = query.order[0]
        want = query.pattern.label(first)
        for v in self.graph.vertices():
            if (
                self.graph.vertex_labels is None
                or self.graph.vertex_label(v) == want
            ):
                state.tasks.append(v)
        self._queries.append(state)
        return len(self._queries) - 1

    def _run_task(self, state: _QueryState, anchor: int) -> int:
        stats = MatchStats()
        restrictions = symmetry_breaking_restrictions(state.query.pattern)
        count = match(
            self.graph,
            state.query.pattern,
            order=state.query.order,
            restrictions=restrictions,
            stats=stats,
            anchor=(state.query.order[0], anchor),
        )
        state.embeddings += count
        ops = max(stats.candidates_scanned, 1)
        state.work_done += ops
        self.stats.record_task(ops)
        return ops

    def serve(self) -> List[QueryResult]:
        """Fair-shared execution of all submitted queries.

        Workers always take the next task of the live query with the
        least work done so far (max-min fairness), which is what lets
        short queries overtake long ones.
        """
        clocks = WorkerClocks(self.num_workers)
        pending = set()
        for i, s in enumerate(self._queries):
            if s.tasks:
                pending.add(i)
            else:
                s.completed_at = s.query.arrival  # nothing to match: done on arrival
        while pending:
            clock, w = clocks.pop()
            # Least-served live query whose arrival time has passed.
            eligible = [i for i in pending if self._queries[i].query.arrival <= clock]
            if not eligible:
                # Jump the worker's clock to the next arrival.
                clocks.push(
                    w, min(self._queries[i].query.arrival for i in pending)
                )
                continue
            qid = min(eligible, key=lambda i: self._queries[i].work_done)
            state = self._queries[qid]
            finish = clock + self._run_task(state, state.tasks.pop())
            if not state.tasks:
                state.completed_at = finish
                pending.discard(qid)
            clocks.push(w, finish)
        return self._finalize("shared")

    def run_sequentially(self) -> List[QueryResult]:
        """Baseline: finish each query entirely before starting the next."""
        clock = 0
        for state in self._queries:
            clock = max(clock, state.query.arrival)
            workers = WorkerClocks(self.num_workers)
            while state.tasks:
                start, w = workers.pop()
                workers.push(w, start + self._run_task(state, state.tasks.pop()))
            clock += workers.makespan
            state.completed_at = clock
        return self._finalize("sequential")

    def _results(self) -> List[QueryResult]:
        return [
            QueryResult(
                query_id=i,
                embeddings=s.embeddings,
                completion_time=s.completed_at,
                work=s.work_done,
                arrival=s.query.arrival,
            )
            for i, s in enumerate(self._queries)
        ]

    def _finalize(self, mode: str) -> List[QueryResult]:
        results = self._results()
        for result in results:
            self.stats.record_completion(result, mode)
        if self.tracer is not None and results:
            with self.tracer.span(
                "tlag.query.serve", mode=mode, queries=len(results),
                workers=self.num_workers,
            ) as span:
                span.set_sim(0, max(r.completion_time for r in results))
        return results
