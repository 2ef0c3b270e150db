"""The process's one warm worker pool and the graphs it has put in shm.

A fresh ``ProcessPoolExecutor`` plus a CSR re-publish per executor makes
every fan-out pay the full spawn + copy bill, and the process backend
then loses to serial.  :class:`WorkerPool` amortizes both:

* the process pool is created once and *kept warm* across
  ``map_spans`` calls and executors: :func:`get_pool` hands every
  executor the same pool, whatever its ``workers`` (which only cuts
  spans);
* each graph's CSR is copied into ``multiprocessing.shared_memory``
  exactly once per (pool, graph) pair.  The registry is an LRU of
  :data:`~repro.parallel.shm.MAX_SHARED_GRAPHS` entries keyed by graph
  *identity* (with a strong reference held, so a collected graph's id
  cannot be reused to serve a different graph); evicted, discarded and
  closed entries unlink their segments through its one callback.

Teardown rides the existing hygiene machinery: every
:class:`~repro.parallel.shm.SharedGraph` a pool owns is registered in
``shm._LIVE``, so the shm ``atexit`` sweep unlinks segments even if the
pool never reaches :meth:`WorkerPool.close`; a second ``atexit`` hook
(:func:`shutdown_pools`) closes the pool itself on interpreter exit.
Crash recovery composes: :meth:`WorkerPool.rebuild` replaces only the
broken futures pool and keeps the shared segments, so a re-dispatch
after ``BrokenProcessPool`` does not re-copy the graph.

The pool has one worker per usable CPU (:func:`available_workers`) and
pins worker k to the k-th CPU of the parent's affinity set as it starts
(every futures pool, :meth:`WorkerPool.rebuild` included).  After an
idle spell the kernel tends to wake unpinned workers on the same CPU,
where they time-share it and each chunk costs about twice its serial
time; the cost model then learns ``process`` as slower than ``serial``
and ``auto`` stops choosing it.  To run a session on fewer CPUs, narrow
its affinity mask (e.g. ``taskset``): the pool follows the mask.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence, Tuple

from ..graph.csr import Graph
from ..lru import LRU
from .shm import MAX_SHARED_GRAPHS, SharedGraph

__all__ = [
    "WorkerPool",
    "available_workers",
    "get_pool",
    "live_pool",
    "shutdown_pools",
]


def _usable_cpus() -> Tuple[int, ...]:
    """The parent's affinity set in order; empty where there is none."""
    if not hasattr(os, "sched_setaffinity"):
        return ()
    return tuple(sorted(os.sched_getaffinity(0)))


def available_workers() -> int:
    """Usable CPUs: the affinity mask where the platform has one."""
    return len(_usable_cpus()) or os.cpu_count() or 1


def _spinup_probe(seconds: float) -> bool:
    """No-op task used to force a cold process pool to spawn its workers."""
    time.sleep(seconds)
    return True


def _pin_worker(cpus: Sequence[int], claimed) -> None:
    """Process-pool initializer: bind this worker to the next free CPU.

    ``claimed`` is a shared counter, fresh per futures pool; the k-th
    worker to start takes ``cpus[k]``.  With ``cpus`` empty (no
    affinity support) the worker stays unpinned.
    """
    with claimed.get_lock():
        k = claimed.value
        claimed.value += 1
    if k < len(cpus):
        os.sched_setaffinity(0, {cpus[k]})


class WorkerPool:
    """One warm process pool plus the graphs it has published to shm.

    ``workers`` is the usable CPU count, read again at every spawn; at
    most :data:`~repro.parallel.shm.MAX_SHARED_GRAPHS` graphs are shared
    at once.
    """

    def __init__(self) -> None:
        self.workers = available_workers()
        self._pool: Optional[ProcessPoolExecutor] = None
        # id(graph) -> (graph, shared); the strong graph reference keeps
        # the id from being recycled while the entry lives.
        self._graphs = LRU(MAX_SHARED_GRAPHS, on_evict=lambda _, e: e[1].close())
        self.cold_starts = 0
        self.last_spinup_seconds = 0.0
        self.last_share_seconds = 0.0

    # -- futures pool ------------------------------------------------------

    @property
    def warm(self) -> bool:
        """True when the futures pool is already spawned."""
        return self._pool is not None

    def executor(self) -> ProcessPoolExecutor:
        """The live process pool, spawning (and pre-warming) it when cold.

        A cold pool is forced to fork all its workers *now* via a barrier
        of no-op tasks, so spawn cost lands in the measured warm-up
        (``last_spinup_seconds``) instead of inflating the first
        fan-out's chunk latencies.  Each worker pins itself to its own
        CPU as it starts (see the module docstring).
        """
        if self._pool is not None:
            self.last_spinup_seconds = 0.0
            return self._pool
        start = time.perf_counter()
        self.workers = available_workers()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_pin_worker,
            initargs=(_usable_cpus(), multiprocessing.Value("i", 0)),
        )
        barrier = [self._pool.submit(_spinup_probe, 0.001) for _ in range(self.workers)]
        for fut in barrier:
            fut.result()
        self.cold_starts += 1
        self.last_spinup_seconds = time.perf_counter() - start
        return self._pool

    def rebuild(self) -> None:
        """Replace a broken futures pool; shared segments stay mapped.

        The crash-recovery path: after ``BrokenProcessPool`` the futures
        pool is garbage but the shm segments (owned by *this* process)
        are intact, so re-dispatch only pays worker respawn, not a CSR
        re-copy.  The respawned workers are pinned again.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- shm registry ------------------------------------------------------

    shares = property(lambda self: self._graphs.misses, doc="CSR copies made")
    share_hits = property(lambda self: self._graphs.hits, doc="copies reused")

    def is_shared(self, graph: Graph) -> bool:
        return id(graph) in self._graphs

    def share(self, graph: Graph) -> SharedGraph:
        """Publish ``graph`` to shared memory once per (pool, graph) pair.

        Repeat calls with the same graph object are registry hits: they
        return the existing :class:`SharedGraph` without copying a byte
        (``last_share_seconds`` reads 0).
        """
        entry = self._graphs.get(id(graph))
        if entry is not None:
            self.last_share_seconds = 0.0
            return entry[1]
        start = time.perf_counter()
        shared = SharedGraph(graph)
        self._graphs.put(id(graph), (graph, shared))
        self.last_share_seconds = time.perf_counter() - start
        return shared

    def discard(self, graph: Graph) -> None:
        """Unlink one graph's segments (failure paths; idempotent)."""
        self._graphs.pop(id(graph))

    @property
    def shared_bytes(self) -> int:
        """Total shm bytes currently held for this pool's graphs."""
        return sum(self._graphs.peek(key)[1].nbytes for key in self._graphs)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the futures pool down and unlink every segment (idempotent)."""
        self.rebuild()
        self._graphs.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerPool(workers={self.workers}, warm={self.warm}, "
            f"shared_graphs={len(self._graphs)})"
        )


# ----------------------------------------------------------------------
# The process's one pool: executors borrow it instead of owning one.
# ----------------------------------------------------------------------

_POOL: Optional[WorkerPool] = None


def get_pool() -> WorkerPool:
    """The process's pool, created on first use."""
    global _POOL
    if _POOL is None:
        _POOL = WorkerPool()
    return _POOL


def live_pool() -> Optional[WorkerPool]:
    """The process's pool if one exists; never creates it."""
    return _POOL


def shutdown_pools() -> None:
    """Close the process's pool and forget it (idempotent)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


atexit.register(shutdown_pools)
