"""Real multicore execution: executors, shared-memory CSR, chunking.

Until this package the library *simulated* parallelism (the TLAG engine
advances virtual worker clocks).  ``repro.parallel`` runs the same
workloads on actual cores:

* :class:`ParallelExecutor` — one ``map_spans(fn, graph, num_items, *args)``
  fan-out API over the ``serial`` and ``process`` backends plus the
  measured ``auto`` default, selectable per call site or globally via
  ``$REPRO_BACKEND`` / ``$REPRO_WORKERS``; an executor that keeps
  losing its pool degrades to ``serial``;
* :mod:`~repro.parallel.pool` — the process's one long-lived
  :class:`WorkerPool`: one pinned worker per usable CPU and
  once-per-graph shared-memory CSR copies, amortized across fan-outs
  and executors (an executor's ``workers`` only cuts its spans);
* :mod:`~repro.parallel.costmodel` — the :class:`CostModel` behind
  ``backend="auto"``: picks ``serial`` or ``process`` per call from
  per-item wall rates measured online from fan-out telemetry;
* :mod:`~repro.parallel.shm` — the process backend shares the immutable
  CSR arrays zero-copy through ``multiprocessing.shared_memory`` instead
  of pickling the graph into every task;
* :mod:`~repro.parallel.chunking` — the chunking policy shared with the
  TLAG task engine (one knob for bench C4 and the real backend).

Hot paths accept an ``executor=``:
``repro.matching.count_matches`` / ``triangle_count`` fan out over root
chunks, and ``repro.tlav.vectorized.pagerank_dense`` partitions vertex
ranges per superstep.  Results are backend-independent by construction
(chunk-deterministic reduction; see DESIGN.md, *Parallel execution*).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "chunking": ("chunk_list", "chunk_spans", "default_chunk_size"),
    "costmodel": (
        "CostModel", "default_cost_model", "reset_default_cost_model",
    ),
    "executor": (
        "BACKENDS", "ParallelExecutor", "resolve_backend", "resolve_workers",
    ),
    "pool": (
        "WorkerPool", "available_workers", "get_pool", "live_pool", "shutdown_pools",
    ),
    "shm": ("SharedGraph", "SharedGraphHandle", "attach_graph"),
})
