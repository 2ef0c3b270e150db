"""Real multicore execution: executors, shared-memory CSR, chunking.

Until this package the library *simulated* parallelism (the TLAG engine
advances virtual worker clocks).  ``repro.parallel`` runs the same
workloads on actual cores:

* :class:`ParallelExecutor` — one ``map_graph(fn, graph, payloads)``
  fan-out API over ``serial`` / ``thread`` / ``process`` backends plus
  the calibrated ``auto`` default, selectable per call site or globally
  via ``$REPRO_BACKEND`` / ``$REPRO_WORKERS``;
* :mod:`~repro.parallel.pool` — long-lived :class:`WorkerPool` registry:
  warm futures pools and once-per-(pool, graph) shared-memory CSR
  copies, amortized across fan-outs and executors;
* :mod:`~repro.parallel.costmodel` — the :class:`CostModel` behind
  ``backend="auto"``: per-backend overhead constants x a work estimate
  from vertex/edge counts, self-tuned online from fan-out telemetry;
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
        "CostModel", "Decision", "default_cost_model", "reset_default_cost_model",
    ),
    "executor": (
        "BACKENDS", "ParallelExecutor", "available_workers", "resolve_backend",
        "resolve_workers",
    ),
    "pool": ("WorkerPool", "get_pool", "pool_registry", "shutdown_pools"),
    "shm": ("SharedGraph", "SharedGraphHandle", "attach_graph"),
})
