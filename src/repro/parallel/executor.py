"""The executor abstraction: one fan-out API, two backends + auto.

``ParallelExecutor.map_spans(fn, graph, num_items, *args)`` cuts
``range(num_items)`` into contiguous ``(lo, hi)`` spans, applies a
module-level function ``fn(graph, (lo, hi, *args))`` to every span and
returns the results in span order.  The backend decides what that costs:

* ``serial`` — a plain loop in the calling process (the reference
  semantics the process backend must reproduce bit-for-bit);
* ``process`` — a ``ProcessPoolExecutor`` where the graph is shared
  zero-copy through :mod:`repro.parallel.shm`: workers attach the CSR
  segments once and every task ships only its payload (a chunk
  descriptor, not the graph);
* ``auto`` (the default) — a
  :class:`~repro.parallel.costmodel.CostModel` picks ``serial`` or
  ``process`` per call from measured per-item wall rates, charging a
  measured cold start unless the pool is warm and the graph already
  shared.

The pool and its shared graphs are *long-lived*: every executor borrows
the process's one :class:`~repro.parallel.pool.WorkerPool`, which has
one pinned worker per usable CPU, so worker spawn and the CSR copy into
shared memory happen once per session, not once per fan-out.
``workers`` does not size that pool: it only sets how many spans a
fan-out is cut into.  Each graph is published to shared memory exactly
once per (pool, graph) pair and reused across ``map_spans`` calls;
segments are torn down through the shm ``_LIVE``/atexit hygiene.

Determinism contract: the executor cuts its spans with
:func:`~repro.parallel.chunking.chunk_spans` from ``(num_items,
workers, chunk_size)`` alone — never from what the cost model has
learned — and callers reduce results *in span order*.  Because the span
layout, not the backend or the session's history, fixes the
computation graph, both backends and ``auto`` produce identical output
(see DESIGN.md).

The executor meters itself into a :class:`~repro.obs.MetricsRegistry`
(``parallel.*``): per-worker busy seconds, chunk latency histogram,
pool warm-up seconds (spawn + CSR publish, counted separately), and the
``parallel.efficiency`` gauge ``busy / ((wall - warmup) * p)``, where
``p`` is the processes that can run at once, ``min(pool size, spans)``
(1 under ``serial``) — 1.0 means perfect scaling of the steady state;
one-time setup no longer drags the gauge below 1.
``parallel.cpu_seconds`` sums the CPU time the chunks got
(``time.thread_time``) beside their wall ``busy_seconds``:
under the process backend, ``busy / cpu`` well above 1 means the workers
time-shared a CPU, which the efficiency gauge cannot see.

Crash tolerance: chunks are pure functions of ``(graph, payload)``, so
a dead worker costs work, never answers.  When a process worker dies —
organically (``BrokenProcessPool``) or under an injected
:class:`~repro.resilience.FaultPlan` — the executor rebuilds the pool's
futures executor (shared segments stay mapped, so no re-copy) and
re-dispatches the unfinished ``(lo, hi)`` spans to the survivors; after
:data:`MAX_POOL_FAILURES` pool losses in one fan-out it runs the
unfinished spans serially, in span order, and degrades to ``serial``
for the rest of its life (auto mode allows only ``serial`` from then
on).  Shared segments for the failing graph are unlinked on every
exception path.  Recovery is metered under ``resilience.*``
(re-dispatched chunks, pool failures, degradations) and traced as
``resilience.recover`` spans.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor
from typing import Any, Callable, List, Optional, Tuple

from ..graph.csr import Graph
from ..obs import MetricsRegistry, Tracer
from ..resilience import FaultInjector
from .chunking import chunk_spans
from .costmodel import CostModel, default_cost_model
from .pool import available_workers, get_pool, live_pool
from .shm import SharedGraph, attach_graph

__all__ = [
    "BACKENDS",
    "ParallelExecutor",
    "resolve_backend",
    "resolve_workers",
]

#: The executable backends; ``auto`` resolves to one of these per call.
BACKENDS = ("serial", "process")

#: Pool losses tolerated within one fan-out before the executor
#: degrades to ``serial`` for the rest of its life.
MAX_POOL_FAILURES = 2

#: Environment knobs: ``REPRO_BACKEND`` picks the default backend,
#: ``REPRO_WORKERS`` the default worker count.
ENV_BACKEND = "REPRO_BACKEND"
ENV_WORKERS = "REPRO_WORKERS"


def resolve_backend(backend: Optional[str] = None) -> str:
    """Explicit argument, else ``$REPRO_BACKEND``, else ``auto``."""
    if backend is None:
        backend = os.environ.get(ENV_BACKEND) or "auto"
    backend = backend.lower()
    if backend != "auto" and backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS + ('auto',)}"
        )
    return backend


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else ``$REPRO_WORKERS``, else the usable CPUs."""
    if workers is None:
        env = os.environ.get(ENV_WORKERS)
        try:
            workers = int(env) if env else available_workers()
        except ValueError:
            raise ValueError(f"${ENV_WORKERS} must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError("need at least one worker")
    return workers


def _timed(fn: Callable[[Graph, Any], Any], graph: Graph, payload: Any):
    """Run one chunk: ``(result, wall seconds, CPU seconds of this thread)``."""
    start = time.perf_counter()
    cpu_start = time.thread_time()
    result = fn(graph, payload)
    cpu = time.thread_time() - cpu_start
    return result, time.perf_counter() - start, cpu


def _fn_key(fn: Callable) -> str:
    """Stable per-function calibration key for the cost model."""
    module = getattr(fn, "__module__", "?")
    name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", repr(fn))
    return f"{module}.{name}"


def _process_task(handle, fn, payload, crash=False):
    """Process-backend task: reattach the shared graph, run the chunk.

    ``crash=True`` is the injected worker death: the child exits hard
    (no exception back, no cleanup), which surfaces in the parent as the
    genuine ``BrokenProcessPool`` a production failure produces.
    """
    if crash:
        os._exit(3)
    graph = attach_graph(handle)
    return _timed(fn, graph, payload)


class ParallelExecutor:
    """Backend-selectable fan-out over an immutable graph.

    Two backends, ``serial`` and ``process``, plus ``auto``, which picks
    one of them per call.  After :data:`MAX_POOL_FAILURES` pool losses
    in one fan-out the executor degrades to ``serial`` for good.

    Parameters
    ----------
    backend:
        ``serial`` / ``process`` / ``auto``; ``None``
        consults ``$REPRO_BACKEND`` and defaults to ``auto``.
    workers:
        How many workers' spans a fan-out is cut into; ``None`` consults
        ``$REPRO_WORKERS`` then the usable CPU count.  It does not size
        the pool, which always has one worker per usable CPU.  The
        serial backend always reports 1.
    chunk_size:
        Span size for :meth:`map_spans`; ``None`` derives one from the
        item count and worker count (the shared chunking policy), for
        every backend alike.
    obs:
        Optional shared :class:`~repro.obs.MetricsRegistry` receiving the
        ``parallel.*`` metrics (private registry when omitted).
    injector:
        Optional :class:`~repro.resilience.FaultInjector`; its
        ``crash_worker(chunk=c)`` faults kill the worker executing
        span index ``c`` (a real ``os._exit`` under the process
        backend, a re-dispatched attempt under serial).
    tracer:
        Optional :class:`~repro.obs.Tracer`; every recovery wave is
        recorded as a ``resilience.recover`` span.
    cost_model:
        The :class:`CostModel` behind ``auto``; ``None`` uses the
        process-wide default, so calibration persists across executors
        within a session.
    """

    def __init__(
        self,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        obs: Optional[MetricsRegistry] = None,
        injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.backend = resolve_backend(backend)
        self.workers = 1 if self.backend == "serial" else resolve_workers(workers)
        self.chunk_size = chunk_size
        self.obs = obs if obs is not None else MetricsRegistry()
        self.injector = injector
        self.tracer = tracer
        self.cost_model = cost_model if cost_model is not None else default_cost_model()
        self._degraded = False
        self._warmup = 0.0
        self._last_backend = "serial" if self.backend == "auto" else self.backend
        self._c_maps = self.obs.counter("parallel.maps", "map_spans fan-outs issued")
        self._c_chunks = self.obs.counter("parallel.chunks", "chunk tasks executed")
        self._c_busy = self.obs.counter(
            "parallel.busy_seconds", "summed in-chunk compute seconds"
        )
        self._c_cpu = self.obs.counter(
            "parallel.cpu_seconds",
            "summed in-chunk CPU seconds; process busy/cpu above 1 means time-sharing",
        )
        self._c_wall = self.obs.counter(
            "parallel.wall_seconds", "wall seconds spent inside map_spans"
        )
        self._c_warmup = self.obs.counter(
            "parallel.warmup_seconds",
            "one-time setup seconds (pool spawn + CSR publish), kept out "
            "of the efficiency gauge",
        )
        self._c_cold_starts = self.obs.counter(
            "parallel.pool_cold_starts", "futures pools spawned from cold"
        )
        self._c_shm_shares = self.obs.counter(
            "parallel.shm_shares", "CSR copies published to shared memory"
        )
        self._c_shm_reuses = self.obs.counter(
            "parallel.shm_reuses", "fan-outs served by an already-shared CSR"
        )
        self._c_auto = self.obs.counter(
            "parallel.auto_decisions", "auto-mode backend choices"
        )
        self._h_chunk = self.obs.histogram(
            "parallel.chunk_seconds",
            "per-chunk latency (seconds)",
            buckets=tuple(10.0 ** e for e in range(-6, 3)),
        )
        self._g_workers = self.obs.gauge("parallel.workers", "configured workers")
        self._g_efficiency = self.obs.gauge(
            "parallel.efficiency",
            "busy / ((wall - warmup) * min(pool size, spans)) of the last fan-out",
        )
        self._g_shared = self.obs.gauge(
            "parallel.shared_bytes", "bytes of CSR state in shared memory"
        )
        self._c_redispatched = self.obs.counter(
            "resilience.redispatched_chunks",
            "chunk spans re-dispatched after a worker death",
        )
        self._c_pool_failures = self.obs.counter(
            "resilience.pool_failures", "process pools lost and rebuilt"
        )
        self._g_degraded = self.obs.gauge(
            "resilience.degraded",
            "1 once the executor fell back to a weaker backend",
        )
        self._g_workers.set(self.workers, backend=self.backend)

    # -- fan-out -----------------------------------------------------------

    def map_spans(
        self,
        fn: Callable[[Graph, Tuple], Any],
        graph: Graph,
        num_items: int,
        *args: Any,
    ) -> List[Any]:
        """Apply ``fn(graph, (lo, hi, *args))`` per span; results in span order.

        The spans are ``chunk_spans(num_items, chunk_size, workers)``, so
        the layout — and with it the bits of any order-sensitive fold
        over the results — is the same under every backend and whatever
        ran before.  ``fn`` must be a module-level function for the
        process backend (it is pickled by reference; the graph never is).
        """
        payloads = [
            (lo, hi, *args)
            for lo, hi in chunk_spans(num_items, self.chunk_size, self.workers)
        ]
        if not payloads:
            return []
        key = _fn_key(fn)
        backend = self._select_backend(key, graph, num_items)
        self._warmup = 0.0
        wall_start = time.perf_counter()
        try:
            if backend == "process":
                timed = self._map_process(fn, graph, payloads)
            else:
                timed = self._map_serial(fn, graph, payloads)
        except BaseException:
            # Failure path: never leave this graph's shared segments
            # behind, whatever the caller does with the exception.
            self._discard_shared(graph)
            raise
        wall = time.perf_counter() - wall_start
        # A process fan-out that degraded finished serially; its wall
        # holds the pool losses, so it is metered as serial but teaches
        # the cost model nothing.
        degraded = backend == "process" and self._degraded
        if degraded:
            backend = "serial"
        self._record(backend, len(payloads), timed, wall)
        if not degraded:
            self.cost_model.observe(
                key, backend, items=num_items, wall=wall, warmup=self._warmup
            )
        return [r for r, _, _ in timed]

    # -- auto-mode selection -----------------------------------------------

    def _select_backend(self, key: str, graph: Graph, items: int) -> str:
        if self.backend != "auto":
            return self.backend
        pool = live_pool()
        backend = self.cost_model.choose(
            key,
            items,
            self.workers,
            cold=pool is None or not pool.warm or not pool.is_shared(graph),
            allowed=("serial",) if self._degraded else ("serial", "process"),
        )
        self._c_auto.inc(backend=backend)
        return backend

    # -- resilient fan-out paths -------------------------------------------

    def _attempt_chunk(
        self, fn: Callable[[Graph, Any], Any], graph: Graph, payload: Any, index: int
    ) -> Tuple[Tuple[Any, float, float], int]:
        """Run one chunk, re-dispatching past injected worker deaths.

        Serial analogue of the process backend's pool rebuild:
        a crashed attempt costs nothing but time, the chunk is simply
        run again.  Returns ``(_timed(...), redispatches)``.
        """
        redispatches = 0
        while self.injector is not None and self.injector.take_worker_crash(index):
            redispatches += 1
        return _timed(fn, graph, payload), redispatches

    def _map_serial(
        self, fn: Callable[[Graph, Any], Any], graph: Graph, payloads: List[Any]
    ) -> List[Tuple[Any, float, float]]:
        attempts = [self._attempt_chunk(fn, graph, p, i) for i, p in enumerate(payloads)]
        redispatched = sum(n for _, n in attempts)
        if redispatched:
            self._c_redispatched.inc(redispatched, backend="serial")
            self._recover_span(redispatched, rebuilt_pool=False)
        return [t for t, _ in attempts]

    def _map_process(
        self, fn: Callable[[Graph, Any], Any], graph: Graph, payloads: List[Any]
    ) -> List[Tuple[Any, float, float]]:
        n = len(payloads)
        timed: List[Optional[Tuple[Any, float, float]]] = [None] * n
        remaining = list(range(n))
        pool_losses = 0
        pool = get_pool()
        while remaining:
            handle = self._share(graph).handle
            fpool = pool.executor()
            if pool.last_spinup_seconds:
                self._warmup += pool.last_spinup_seconds
                self._c_cold_starts.inc(backend="process")
            futures: List[Tuple[int, Any]] = []
            failed: List[int] = []
            try:
                for i in remaining:
                    crash = (
                        self.injector is not None
                        and self.injector.take_worker_crash(i)
                    )
                    futures.append(
                        (i, fpool.submit(_process_task, handle, fn, payloads[i], crash))
                    )
            except BrokenExecutor:
                failed.extend(i for i in remaining
                              if i not in {j for j, _ in futures})
            for i, fut in futures:
                try:
                    timed[i] = fut.result()
                except BrokenExecutor:
                    failed.append(i)
            if not failed:
                break
            # A worker died and took the futures pool with it: respawn
            # the workers (the shared CSR stays mapped — rebuild never
            # re-copies) and re-dispatch the unfinished spans.
            pool_losses += 1
            self._c_pool_failures.inc()
            self._c_redispatched.inc(len(failed), backend="process")
            pool.rebuild()
            failed.sort()
            if pool_losses >= MAX_POOL_FAILURES:
                self._degrade()
                self._recover_span(len(failed), rebuilt_pool=False, degraded=True)
                for i in failed:
                    timed[i] = self._attempt_chunk(fn, graph, payloads[i], i)[0]
                break
            self._recover_span(len(failed), rebuilt_pool=True)
            remaining = failed
        assert all(t is not None for t in timed)
        return timed  # type: ignore[return-value]

    def _recover_span(
        self, redispatched: int, rebuilt_pool: bool, degraded: bool = False
    ) -> None:
        if self.tracer is None:
            return
        with self.tracer.span(
            "resilience.recover",
            engine="executor",
            backend=self.backend,
            redispatched=redispatched,
            rebuilt_pool=rebuilt_pool,
            degraded=degraded,
        ):
            pass

    def _degrade(self) -> None:
        """Give up on process workers; run serially from now on.

        ``workers`` stays as it was, so :meth:`map_spans` keeps cutting
        the same spans and results keep their bits.
        """
        self._degraded = True
        if self.backend == "process":
            self.backend = "serial"
        self._g_degraded.set(1, to="serial")
        self._g_workers.set(self.workers, backend=self.backend)

    # -- backend plumbing --------------------------------------------------

    def _share(self, graph: Graph) -> SharedGraph:
        """Publish ``graph`` to shared memory (once per pool + graph)."""
        pool = get_pool()
        already = pool.is_shared(graph)
        shared = pool.share(graph)
        if already:
            self._c_shm_reuses.inc()
        else:
            self._warmup += pool.last_share_seconds
            self._c_shm_shares.inc()
        self._g_shared.set(pool.shared_bytes)
        return shared

    def _discard_shared(self, graph: Graph) -> None:
        pool = live_pool()
        if pool is not None:
            pool.discard(graph)
            self._g_shared.set(pool.shared_bytes)

    def _record(
        self,
        backend: str,
        chunks: int,
        timed: List[Tuple[Any, float, float]],
        wall: float,
    ) -> None:
        """Meter one fan-out under ``parallel.*``."""
        busy = sum(sec for _, sec, _ in timed)
        warmup = self._warmup
        self._c_maps.inc()
        self._c_chunks.inc(chunks, backend=backend)
        self._c_busy.inc(busy, backend=backend)
        self._c_cpu.inc(sum(cpu for _, _, cpu in timed), backend=backend)
        self._c_wall.inc(wall, backend=backend)
        if warmup > 0:
            self._c_warmup.inc(warmup, backend=backend)
        for _, sec, _ in timed:
            self._h_chunk.observe(sec, backend=backend)
        running = 1 if backend == "serial" else min(get_pool().workers, chunks)
        steady = max(wall - warmup, 0.0)
        if steady > 0:
            self._g_efficiency.set(
                min(1.0, busy / (steady * running)), backend=backend
            )
        self._last_backend = backend

    @property
    def efficiency(self) -> float:
        """The ``parallel.efficiency`` gauge for the last backend used."""
        return float(self._g_efficiency.value(backend=self._last_backend))

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Nothing to release: the executor only borrows the process's pool.

        The pool stays warm on purpose — that is the amortization; its
        atexit hook (and the shm ``_LIVE`` sweep) guarantee teardown at
        interpreter exit.  Kept so executors work as context managers.
        """

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelExecutor(backend={self.backend!r}, workers={self.workers}, "
            f"chunk_size={self.chunk_size})"
        )
