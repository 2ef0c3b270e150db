"""Long-lived worker pools with a per-(pool, graph) shared-memory registry.

A fresh ``ProcessPoolExecutor`` plus a CSR re-publish per executor makes
every fan-out pay the full spawn + copy bill, and the process backend
then loses to serial.  :class:`WorkerPool` amortizes both:

* the process pool is created once and *kept warm* across
  ``map_spans`` calls, executors, and — through the module-level
  registry, keyed by worker count — across independent call sites that
  agree on ``workers``;
* each graph's CSR is copied into ``multiprocessing.shared_memory``
  exactly once per (pool, graph) pair.  The registry is an LRU of
  :data:`MAX_SHARED_GRAPHS` entries keyed by graph *identity* (with a
  strong reference held, so a collected graph's id cannot be reused to
  serve a different graph); evicted, discarded and closed entries
  unlink their segments through its one callback.

Teardown rides the existing hygiene machinery: every
:class:`~repro.parallel.shm.SharedGraph` a pool owns is registered in
``shm._LIVE``, so the shm ``atexit`` sweep unlinks segments even if the
pool never reaches :meth:`WorkerPool.close`; a second ``atexit`` hook
(:func:`shutdown_pools`) drains the pool registry itself on interpreter
exit.  Crash recovery composes: :meth:`WorkerPool.rebuild` replaces only
the broken futures pool and keeps the shared segments, so a re-dispatch
after ``BrokenProcessPool`` does not re-copy the graph.

Process workers are pinned one per CPU when there is one worker per CPU.
After an idle spell the kernel tends to wake a pool's workers on the
same CPU, where they time-share it and each chunk costs about twice its
serial time; the cost model then learns ``process`` as slower than
``serial`` and ``auto`` stops choosing it.  So when the pool has exactly
as many workers as the parent has usable CPUs, worker k binds itself to
the k-th CPU of the parent's affinity set as it starts (every futures
pool, :meth:`WorkerPool.rebuild` included).  With any other worker
count, or without ``os.sched_setaffinity``, the workers stay unpinned
and the scheduler places them: pinning fewer workers would put worker k
of every pool alive at once on the same low CPU.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional, Sequence, Tuple

from ..graph.csr import Graph
from ..lru import LRU
from .shm import SharedGraph

__all__ = [
    "MAX_SHARED_GRAPHS",
    "WorkerPool",
    "get_pool",
    "pool_registry",
    "shutdown_pools",
]

#: Shared-memory CSR copies one pool keeps live at once.  Benchmarks and
#: the check harness alternate between a handful of graphs; beyond that
#: the least-recently-shared graph's segments are unlinked.
MAX_SHARED_GRAPHS = 4


def _spinup_probe(seconds: float) -> bool:
    """No-op task used to force a cold process pool to spawn its workers."""
    time.sleep(seconds)
    return True


def _pin_cpus(workers: int) -> Tuple[int, ...]:
    """The CPUs ``workers`` process workers claim, one each.

    Empty (leave the scheduler in charge) when the platform cannot set
    affinities or the worker count differs from the usable CPU count.
    """
    if not hasattr(os, "sched_setaffinity"):
        return ()
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    return cpus if workers == len(cpus) else ()


def _pin_worker(cpus: Sequence[int], claimed) -> None:
    """Process-pool initializer: bind this worker to the next free CPU.

    ``claimed`` is a shared counter, fresh per futures pool; the k-th
    worker to start takes ``cpus[k]``.  A worker started beyond the list
    (every worker when ``cpus`` is empty) stays unpinned.
    """
    with claimed.get_lock():
        k = claimed.value
        claimed.value += 1
    if k < len(cpus):
        os.sched_setaffinity(0, {cpus[k]})


class WorkerPool:
    """One warm process pool plus the graphs it has published to shm.

    ``workers`` is fixed for the pool's lifetime; at most
    :data:`MAX_SHARED_GRAPHS` graphs are shared at once.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
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
        fan-out's chunk latencies.  With one worker per usable CPU, each
        worker pins itself to its own CPU as it starts (see the module
        docstring).
        """
        if self._pool is not None:
            self.last_spinup_seconds = 0.0
            return self._pool
        start = time.perf_counter()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_pin_worker,
            initargs=(_pin_cpus(self.workers), multiprocessing.Value("i", 0)),
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
        re-copy.  The respawned workers are pinned again, by the same rule.
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
# Process-wide registry: executors borrow pools instead of owning them.
# ----------------------------------------------------------------------

_POOLS: Dict[int, WorkerPool] = {}


def get_pool(workers: int) -> WorkerPool:
    """The shared pool for ``workers``, created on first use."""
    workers = int(workers)
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = WorkerPool(workers)
    return pool


def pool_registry() -> Dict[int, WorkerPool]:
    """A snapshot view of the live pool registry (introspection/tests)."""
    return dict(_POOLS)


def shutdown_pools() -> None:
    """Close every registered pool and empty the registry (idempotent)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)
