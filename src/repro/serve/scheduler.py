"""The request lifecycle: admission, fair scheduling, dispatch, completion.

:class:`Server` is a discrete-event simulation over
:class:`repro.sim.WorkerClocks`, like every simulated schedule here:
clocks advance by the simulated-ops *cost* each engine call reports, so
latency distributions (and therefore every p50/p95/p99 this layer
quotes) are deterministic at a fixed seed while the engine calls
themselves run for real and return real answers.

The lifecycle of one request:

1. **Admission** — at its arrival time the request enters the bounded
   queue; if the queue already holds ``queue_bound`` requests it is
   **shed** immediately (backpressure beats unbounded latency).
2. **Expiry** — a queued request whose deadline passes before dispatch
   is dropped as ``expired`` (a deadline miss without wasted work).
3. **Selection** — the free worker picks from the highest occupied
   **priority lane**; inside the lane, the tenant with the least work
   served so far (max-min fairness, generalizing QueryServer's
   least-served-query policy); inside the tenant, FIFO.
4. **Cache** — a hit on the versioned result cache completes in one
   simulated op without touching an engine.
5. **Batching** — on a miss the worker may wait out the batch window
   and coalesces compatible queued requests into one engine call.
6. **Execution** — the engine call runs under the
   :class:`~repro.resilience.RetryPolicy` (transient errors retry with
   deterministic backoff; exhausted retries yield an ``error``
   response).  When the endpoint declares a ``timeout_ops`` budget, an
   execution that costs more is treated as a timeout failure and the
   scheduler fires **one deterministic hedged retry** before giving
   up.  Completing after the deadline still returns the answer but
   counts a **deadline miss**.
7. **Degradation** (opt-in via ``degrade=True``) — when the
   endpoint's circuit breaker is open, admission is shedding, or the
   hedged execution still failed, the scheduler answers from the
   epoch-versioned cache in stale-while-revalidate mode: the response
   carries ``degraded=True`` plus its staleness in epochs instead of
   failing outright.

Accounting keeps the ledger invariant the ``serve.queue_accounting``
oracle enforces: ``admitted == completed + shed + expired + degraded
+ in_flight`` at every instant, with ``in_flight == 0`` once
:meth:`Server.run` drains — every request lands in **exactly one**
terminal status (:class:`ServeStats` raises on a double terminal).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..obs import MetricsRegistry, StatsViewMixin, Tracer
from ..obs.metrics import BoundCounter, BoundHistogram
from ..resilience import FaultInjector, RetryPolicy
from ..sim import WorkerClocks
from .batcher import MicroBatcher
from .breaker import BreakerBoard, BreakerConfig
from .cache import ResultCache
from .endpoints import EndpointRegistry, GraphRegistry, builtin_endpoints

__all__ = ["Request", "Response", "ServeStats", "Server"]

#: Simulated ops a cache hit costs (lookup + serialization, not an engine).
CACHE_HIT_COST = 1

OK = "ok"
SHED = "shed"
EXPIRED = "expired"
ERROR = "error"
DEGRADED = "degraded"
STATUSES = (OK, SHED, EXPIRED, ERROR, DEGRADED)


@dataclass
class Request:
    """One tenant request against a served endpoint."""

    endpoint: str
    params: Dict[str, Any] = field(default_factory=dict)
    graph: str = "default"
    tenant: str = "default"
    priority: int = 0  # higher = more urgent lane
    arrival: int = 0  # simulated-ops submission time
    deadline: Optional[int] = None  # absolute simulated-ops deadline
    id: int = -1  # assigned at submit()
    # The endpoint's canonical form of ``params``, computed once at
    # submit(): cache keys, batch compatibility and stale lookups read it.
    canon: Optional[Tuple] = field(default=None, compare=False, repr=False)


@dataclass
class Response:
    """Terminal outcome of one request."""

    request: Request
    status: str  # ok | shed | expired | error | degraded
    value: Any = None
    dispatched: Optional[int] = None
    completed: int = 0
    cost: int = 0
    cache_hit: bool = False
    batch_size: int = 1
    deadline_missed: bool = False
    error: Optional[str] = None
    staleness: int = 0  # epochs behind current, for degraded answers
    degraded_reason: Optional[str] = None  # breaker_open | shed | failure

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def degraded(self) -> bool:
        return self.status == DEGRADED

    @property
    def latency(self) -> int:
        """Response time in simulated ops (completion − arrival)."""
        return self.completed - self.request.arrival

    @property
    def queue_wait(self) -> int:
        start = self.dispatched if self.dispatched is not None else self.completed
        return start - self.request.arrival

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.request.id,
            "endpoint": self.request.endpoint,
            "tenant": self.request.tenant,
            "status": self.status,
            "latency": self.latency,
            "queue_wait": self.queue_wait,
            "cost": self.cost,
            "cache_hit": self.cache_hit,
            "batch_size": self.batch_size,
            "deadline_missed": self.deadline_missed,
            "degraded": self.degraded,
            "staleness": self.staleness,
        }


class _EndpointHandles:
    """The bound series one endpoint's responses write (ServeStats)."""

    __slots__ = ("requests", "latency", "deadline_miss")

    def __init__(self, stats: "ServeStats", endpoint: str) -> None:
        self.requests: Dict[str, BoundCounter] = {
            status: stats._c_requests.labels(endpoint=endpoint, status=status)
            for status in STATUSES
        }
        self.latency: BoundHistogram = stats._h_latency.labels(endpoint=endpoint)
        self.deadline_miss: BoundCounter = stats._c_deadline_miss.labels(
            endpoint=endpoint
        )


class ServeStats(StatsViewMixin):
    """Registry view over the ``serve.*`` metrics one server emits.

    The per-request writes go through handles bound once per endpoint
    (:meth:`repro.obs.Counter.labels`), so a response records without
    rebuilding a label key.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._c_requests = self.registry.counter(
            "serve.requests", "terminal responses, by endpoint and status"
        )
        self._c_admitted = self.registry.counter(
            "serve.admitted", "requests accepted into the system"
        )
        self._c_deadline_miss = self.registry.counter(
            "serve.deadline_miss", "completed responses that finished late"
        )
        self._c_degraded = self.registry.counter(
            "serve.degraded.responses",
            "stale-while-revalidate answers, by endpoint and reason",
        )
        self._h_staleness = self.registry.histogram(
            "serve.degraded.staleness", "epochs behind current, per degraded answer",
            buckets=[0, 1, 2, 4, 8, 16],
        )
        self._c_batches = self.registry.counter(
            "serve.batches", "engine calls that served a coalesced batch"
        )
        self._c_batched_requests = self.registry.counter(
            "serve.batched_requests", "requests that rode in a batch of >= 2"
        )
        self._c_engine_ops = self.registry.counter(
            "serve.engine_ops", "simulated ops charged by engine calls"
        )
        self._g_queue_depth = self.registry.gauge(
            "serve.queue_depth", "peak admission-queue occupancy"
        )
        self._g_in_flight = self.registry.gauge(
            "serve.in_flight", "peak requests admitted but not yet terminal"
        )
        self._h_latency = self.registry.histogram(
            "serve.latency_ops", "response time in simulated ops, by endpoint"
        )
        self._h_queue_wait = self.registry.histogram(
            "serve.queue_wait_ops", "simulated ops spent queued before dispatch"
        )
        self._h_batch_size = self.registry.histogram(
            "serve.batch_size", "requests per engine call",
            buckets=[1, 2, 4, 8, 16, 32],
        )
        self._admitted = self._c_admitted.labels()
        self._queue_wait = self._h_queue_wait.labels()
        self._peak_queue_depth = self._g_queue_depth.labels()
        self._peak_in_flight = self._g_in_flight.labels()
        self._by_endpoint: Dict[str, _EndpointHandles] = {}
        # Admitted, not yet terminal: bounded by in-flight requests.
        self._open_ids: Set[int] = set()

    # -- write path (server-only) ------------------------------------------

    def record_admitted(self, rid: int) -> None:
        self._admitted.inc()
        self._open_ids.add(rid)

    def record_response(self, response: Response) -> None:
        request = response.request
        rid = request.id
        if rid >= 0:
            # Terminal statuses are mutually exclusive by construction:
            # a request that already landed cannot land again (a second
            # terminal would double-count the queue ledger).
            if rid not in self._open_ids:
                raise RuntimeError(
                    f"request {rid} already recorded a terminal status; "
                    f"refusing second terminal {response.status!r}"
                )
            self._open_ids.remove(rid)
        handles = self._by_endpoint.get(request.endpoint)
        if handles is None:
            handles = self._by_endpoint[request.endpoint] = _EndpointHandles(
                self, request.endpoint
            )
        status = response.status
        handles.requests[status].inc()
        if status == OK or status == ERROR or status == DEGRADED:
            handles.latency.observe(response.latency)
            self._queue_wait.observe(response.queue_wait)
            if response.deadline_missed:
                handles.deadline_miss.inc()
        if status == DEGRADED:
            self._c_degraded.inc(
                endpoint=request.endpoint,
                reason=response.degraded_reason or "unknown",
            )
            self._h_staleness.observe(response.staleness)

    def record_batch(self, size: int, cost: int) -> None:
        self._c_batches.inc()
        self._c_engine_ops.inc(cost)
        self._h_batch_size.observe(size)
        if size >= 2:
            self._c_batched_requests.inc(size)

    def record_queue_depth(self, depth: int) -> None:
        self._peak_queue_depth.set_max(depth)

    def record_in_flight(self, count: int) -> None:
        self._peak_in_flight.set_max(count)

    # -- read path ---------------------------------------------------------

    def _status_total(self, status: str) -> int:
        return int(self._c_requests.total_where(status=status))

    @property
    def admitted(self) -> int:
        return int(self._c_admitted.total)

    @property
    def completed(self) -> int:
        return self._status_total(OK) + self._status_total(ERROR)

    @property
    def shed(self) -> int:
        return self._status_total(SHED)

    @property
    def expired(self) -> int:
        return self._status_total(EXPIRED)

    @property
    def degraded(self) -> int:
        return self._status_total(DEGRADED)

    @property
    def late_completions(self) -> int:
        """Responses that returned an answer past their deadline."""
        return int(self._c_deadline_miss.total)

    @property
    def deadline_misses(self) -> int:
        """Expired in queue or finished late (each counted once — the
        underlying columns are mutually exclusive)."""
        return self.late_completions + self.expired

    @property
    def in_flight(self) -> int:
        """Admitted but not yet terminal — zero once a run drains."""
        return (
            self.admitted - self.completed - self.shed - self.expired
            - self.degraded
        )

    @property
    def peak_queue_depth(self) -> int:
        return int(self._g_queue_depth.value())

    def latency_percentile(self, q: float, endpoint: str) -> float:
        return self._h_latency.percentile(q, endpoint=endpoint)

    def extra_dict(self) -> Dict[str, Any]:
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "expired": self.expired,
            "degraded": self.degraded,
            "in_flight": self.in_flight,
            "deadline_misses": self.deadline_misses,
            "late_completions": self.late_completions,
            "peak_queue_depth": self.peak_queue_depth,
        }


class Server:
    """Multi-tenant front door over the endpoint and graph registries."""

    def __init__(
        self,
        graphs: GraphRegistry,
        endpoints: Optional[EndpointRegistry] = None,
        num_workers: int = 4,
        queue_bound: int = 64,
        batch_window: int = 0,
        max_batch: int = 8,
        cache_capacity: int = 256,
        enable_cache: bool = True,
        retry: Optional[RetryPolicy] = None,
        executor=None,
        obs: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        breaker: Optional[BreakerConfig] = None,
        degrade: bool = False,
        max_stale_epochs: int = 8,
        default_timeout_ops: Optional[int] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if queue_bound < 1:
            raise ValueError("queue_bound must be >= 1")
        if default_timeout_ops is not None and default_timeout_ops < 1:
            raise ValueError("default_timeout_ops must be >= 1")
        self.graphs = graphs
        self.endpoints = endpoints if endpoints is not None else builtin_endpoints()
        self._clocks = WorkerClocks(num_workers)  # persists across run()s
        self.num_workers = num_workers
        self.queue_bound = queue_bound
        self.batcher = MicroBatcher(window=batch_window, max_batch=max_batch)
        self.obs = obs if obs is not None else MetricsRegistry()
        self.tracer = tracer
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=2)
        self.executor = executor
        self.degrade = bool(degrade)
        self.default_timeout_ops = default_timeout_ops
        self.injector = injector
        self.breakers: Optional[BreakerBoard] = (
            BreakerBoard(breaker, obs=self.obs, tracer=tracer)
            if breaker is not None else None
        )
        self.stats = ServeStats(self.obs)
        self.cache: Optional[ResultCache] = (
            ResultCache(
                cache_capacity, obs=self.obs,
                max_stale_epochs=max_stale_epochs if degrade else 0,
            ).attach(graphs)
            if enable_cache else None
        )
        self._arrivals: List[Tuple[int, int, Request]] = []  # heap
        self._queue: List[Request] = []
        self._next_id = 0
        self._tenant_work: Dict[str, int] = {}

    # -- submission --------------------------------------------------------

    def submit(self, request: Request) -> int:
        """Queue a request for the next :meth:`run`; returns its id.

        The request's params are fixed at submit: their canonical form
        is computed here, once, into ``request.canon``, and every later
        step (cache key, batch compatibility, stale fallback) reads that
        value.  Do not change ``request.params`` once submitted.
        """
        if request.endpoint not in self.endpoints:
            raise KeyError(f"unknown endpoint {request.endpoint!r}")
        if request.graph not in self.graphs:
            raise KeyError(f"unknown graph {request.graph!r}")
        request.canon = self.endpoints.get(request.endpoint).canonicalize(
            request.params
        )
        request.id = self._next_id
        self._next_id += 1
        heapq.heappush(
            self._arrivals, (request.arrival, request.id, request)
        )
        self.stats.record_admitted(request.id)
        return request.id

    # -- the event loop ----------------------------------------------------

    def run(
        self,
        feedback: Optional[Callable[[Response], Optional[Request]]] = None,
    ) -> List[Response]:
        """Drain every submitted request; returns responses in id order.

        ``feedback`` implements closed loops: called on each terminal
        response, it may return the follow-up request (arrival no
        earlier than the completion it reacts to).
        """
        responses: List[Response] = []

        def finish(response: Response) -> None:
            self.stats.record_response(response)
            if self.tracer is not None:
                with self.tracer.span(
                    "serve.request",
                    endpoint=response.request.endpoint,
                    tenant=response.request.tenant,
                    status=response.status,
                    cache_hit=response.cache_hit,
                ) as span:
                    span.set_sim(response.request.arrival, response.completed)
            responses.append(response)
            if feedback is not None:
                follow = feedback(response)
                if follow is not None:
                    if follow.arrival < response.completed:
                        follow.arrival = response.completed
                    self.submit(follow)

        clocks = self._clocks
        # Every worker starts on the clock at the time it last reached (a
        # run that raised left its worker off it).
        clocks.restore({"times": clocks.times, "retired": []})

        while self._arrivals or self._queue:
            clock, w = clocks.pop()
            self._absorb(clock, finish)
            self._expire(clock, finish)
            if not self._queue:
                if not self._arrivals:
                    clocks.push(w, clock)
                    break
                # Idle worker: jump to the next arrival, and every other
                # waiting worker below it with it -- nothing can reach
                # the queue before that arrival, so popping each of them
                # in turn would only repeat this jump.
                arrival = self._arrivals[0][0]
                clocks.push(w, max(clock, arrival))
                clocks.jump(arrival)
                continue
            self.stats.record_in_flight(
                len(self._queue) + clocks.busy(clock) + 1
            )
            clocks.push(w, self._dispatch(clock, finish))

        responses.sort(key=lambda r: r.request.id)
        return responses

    # -- internals ---------------------------------------------------------

    def _absorb(
        self, clock: int, finish: Callable[[Response], None]
    ) -> None:
        """Admit (or shed) every arrival up to ``clock``, in order.

        With ``degrade=True`` a request the bounded queue would shed is
        first offered a stale-cache answer (degradation ladder rung 1:
        backpressure becomes staleness, not an outright drop).
        """
        while self._arrivals and self._arrivals[0][0] <= clock:
            _, _, request = heapq.heappop(self._arrivals)
            if len(self._queue) >= self.queue_bound:
                stale = self._degraded_response(
                    request, reason="shed", dispatched=request.arrival,
                    completed=request.arrival + CACHE_HIT_COST,
                )
                if stale is not None:
                    self._charge(request.tenant, CACHE_HIT_COST)
                    finish(stale)
                    continue
                finish(Response(
                    request=request, status=SHED, completed=request.arrival,
                ))
                continue
            self._queue.append(request)
            self.stats.record_queue_depth(len(self._queue))

    def _expire(
        self, clock: int, finish: Callable[[Response], None]
    ) -> None:
        """Drop queued requests whose deadline already passed."""
        live: List[Request] = []
        for request in self._queue:
            if request.deadline is not None and request.deadline < clock:
                finish(Response(
                    request=request, status=EXPIRED, completed=clock,
                    deadline_missed=True,
                ))
            else:
                live.append(request)
        self._queue = live

    def _select(self) -> int:
        """Queue position of the next request: priority lane, then
        least-served tenant, then FIFO."""
        queue = self._queue
        if len(queue) == 1:
            return 0
        lane = max(r.priority for r in queue)
        tenant = min(
            (self._tenant_work.get(r.tenant, 0), r.tenant)
            for r in queue if r.priority == lane
        )[1]
        return next(
            i for i, r in enumerate(queue)
            if r.priority == lane and r.tenant == tenant
        )

    def _dispatch(
        self, clock: int, finish: Callable[[Response], None]
    ) -> int:
        """Serve one head request (possibly a batch); returns the new
        worker clock."""
        position = self._select()
        head = self._queue[position]
        endpoint = self.endpoints.get(head.endpoint)
        record = self.graphs.get(head.graph)

        if self.cache is not None:
            key = ResultCache.key(
                head.endpoint, head.graph, record.epoch, head.canon
            )
            hit, value = self.cache.lookup(key)
            if hit:
                del self._queue[position]
                completed = clock + CACHE_HIT_COST
                self._charge(head.tenant, CACHE_HIT_COST)
                finish(Response(
                    request=head, status=OK, value=value, dispatched=clock,
                    completed=completed, cost=CACHE_HIT_COST, cache_hit=True,
                    deadline_missed=(
                        head.deadline is not None and completed > head.deadline
                    ),
                ))
                return completed

        breaker = (
            self.breakers.get(head.endpoint)
            if self.breakers is not None else None
        )
        if breaker is not None and breaker.allow(clock) == "reject":
            # Ladder rung 2: an open breaker answers from the stale
            # cache without touching the engine at all.
            del self._queue[position]
            completed = clock + CACHE_HIT_COST
            self._charge(head.tenant, CACHE_HIT_COST)
            stale = self._degraded_response(
                head, reason="breaker_open", dispatched=clock,
                completed=completed,
            )
            if stale is not None:
                finish(stale)
            else:
                finish(Response(
                    request=head, status=ERROR, dispatched=clock,
                    completed=completed, cost=CACHE_HIT_COST,
                    deadline_missed=(
                        head.deadline is not None and completed > head.deadline
                    ),
                    error=f"BreakerOpen: {head.endpoint} is failing fast",
                ))
            return completed

        t_dispatch = self.batcher.dispatch_time(clock, head.arrival)
        if t_dispatch > clock:
            # Waiting out the batch window lets later arrivals join (at
            # the back of the queue: ``position`` still names the head).
            self._absorb(t_dispatch, finish)
        batch = self.batcher.collect(head, self._queue, endpoint, record.epoch)
        if len(batch) == 1:
            del self._queue[position]
        else:
            members = {id(request) for request in batch}
            self._queue = [r for r in self._queue if id(r) not in members]

        timeout = (
            endpoint.timeout_ops
            if endpoint.timeout_ops is not None else self.default_timeout_ops
        )
        error: Optional[str] = None
        values: List[Any] = [None] * len(batch)
        cost = 0
        for attempt in range(2):  # attempt 1 is the single hedged retry
            if self.injector is not None and self.injector.endpoint_outcome(
                head.endpoint, head.id, attempt
            ) == "fail":
                cost += timeout if timeout is not None else CACHE_HIT_COST
                error = (
                    f"FaultError: injected failure on {head.endpoint} "
                    f"(attempt {attempt})"
                )
                continue
            try:
                values, attempt_cost = self.retry.call(
                    self.batcher.execute, endpoint, record, batch,
                    executor=self.executor, key=("serve", head.id, attempt),
                    obs=self.obs, op=f"serve:{head.endpoint}",
                )
            except Exception as exc:  # exhausted retries: an error response
                values = [None] * len(batch)
                cost += CACHE_HIT_COST
                error = f"{type(exc).__name__}: {exc}"
                break  # organic errors already retried; no hedge
            if timeout is not None and attempt_cost > timeout:
                values = [None] * len(batch)
                cost += timeout  # the hedge fires at the timeout bound
                error = (
                    f"TimeoutError: {head.endpoint} cost {attempt_cost} ops "
                    f"over budget {timeout} (attempt {attempt})"
                )
                continue
            cost += attempt_cost
            error = None
            break

        completed = t_dispatch + cost
        if breaker is not None:
            if error is None:
                breaker.record_success(completed)
            else:
                breaker.record_failure(completed)
        self.stats.record_batch(len(batch), cost)
        share = max(1, cost // len(batch))
        for request, value in zip(batch, values):
            self._charge(request.tenant, share)
            if self.cache is not None and error is None:
                self.cache.put(
                    ResultCache.key(
                        request.endpoint, request.graph, record.epoch,
                        request.canon,
                    ),
                    value,
                    partitions=endpoint.partitions_read(record, request.params),
                )
            if error is not None:
                # Ladder rung 3: a failed (or timed-out, post-hedge)
                # execution falls back to the stale cache per request.
                stale = self._degraded_response(
                    request, reason="failure", dispatched=t_dispatch,
                    completed=completed, cost=share, batch_size=len(batch),
                )
                if stale is not None:
                    finish(stale)
                    continue
            finish(Response(
                request=request,
                status=ERROR if error is not None else OK,
                value=value, dispatched=t_dispatch, completed=completed,
                cost=share, batch_size=len(batch),
                deadline_missed=(
                    request.deadline is not None and completed > request.deadline
                ),
                error=error,
            ))
        return completed

    def _degraded_response(
        self,
        request: Request,
        *,
        reason: str,
        dispatched: int,
        completed: int,
        cost: int = CACHE_HIT_COST,
        batch_size: int = 1,
    ) -> Optional[Response]:
        """Stale-while-revalidate answer for ``request``, or ``None``.

        Only available when the server runs with ``degrade=True``, the
        endpoint is degradable, and the cache retains an entry for these
        params at an epoch within ``max_stale_epochs`` of current.
        """
        if not self.degrade or self.cache is None:
            return None
        endpoint = self.endpoints.get(request.endpoint)
        if not endpoint.degradable:
            return None
        record = self.graphs.get(request.graph)
        found, value, staleness = self.cache.lookup_stale(
            request.endpoint, request.graph, record.epoch, request.canon
        )
        if not found:
            return None
        return Response(
            request=request, status=DEGRADED, value=value,
            dispatched=dispatched, completed=completed, cost=cost,
            batch_size=batch_size, staleness=staleness,
            degraded_reason=reason,
            deadline_missed=(
                request.deadline is not None and completed > request.deadline
            ),
        )

    def _charge(self, tenant: str, ops: int) -> None:
        self._tenant_work[tenant] = self._tenant_work.get(tenant, 0) + ops

    # -- readings ----------------------------------------------------------

    @property
    def tenant_work(self) -> Dict[str, int]:
        """Simulated ops served per tenant (the fairness ledger)."""
        return dict(self._tenant_work)

    @property
    def clock(self) -> int:
        """The latest simulated time any worker has reached."""
        return self._clocks.makespan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Server(workers={self.num_workers}, "
            f"endpoints={len(self.endpoints)}, "
            f"queue_bound={self.queue_bound})"
        )
