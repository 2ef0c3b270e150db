"""Multi-tenant serving layer over every engine family.

The tutorial's interactive-query thread (G-thinkerQ's shared-server
argument, reproduced for subgraph matching in
:mod:`repro.tlag.query`) and the GNN-systems survey's convergence of
graph-processing schedulers with DL serving both call for the same
missing piece: a *front door* that multiplexes concurrent requests
from many tenants across all of the repository's engines.  This
package is that front door:

* :mod:`~repro.serve.endpoints` — the **endpoint registry** exposing
  one named handler per engine family (TLAV analytics, subgraph
  matching, GNN node inference, TLAG subgraph queries) plus the
  **graph registry** whose *epoch* bumps whenever a graph is mutated
  or replaced;
* :mod:`~repro.serve.scheduler` — the request lifecycle: bounded
  admission queues with backpressure shedding, per-tenant fair sharing
  (generalizing :class:`repro.tlag.query.QueryServer`'s least-served
  policy), priority lanes, and deadline enforcement, all on the same
  simulated-ops clock the engines use;
* :mod:`~repro.serve.batcher` — the **micro-batcher** that coalesces
  compatible queued requests (same endpoint + graph epoch + canonical
  params, or mergeable GNN inference) into one engine call;
* :mod:`~repro.serve.cache` — the **versioned result cache** keyed by
  ``(endpoint, graph, epoch, canonical_params)``, invalidated by
  construction when the graph registry bumps an epoch;
* :mod:`~repro.serve.loadgen` — deterministic closed-loop and
  open-loop (seeded Poisson) load generators and the named scenarios
  behind ``python -m repro serve --scenario ...``;
* :mod:`~repro.serve.breaker` — **per-endpoint circuit breakers**
  (closed/open/half-open on a failure-rate window, cooldowns in
  simulated ops) that drive the degradation ladder: an open breaker or
  a shedding queue answers from the epoch-versioned cache in
  stale-while-revalidate mode (``degraded=True`` + staleness);
* :mod:`~repro.serve.soak` — the storage-aware chaos soak behind
  ``python -m repro chaos --scenario serve-soak``: injected endpoint
  failures, worker crashes, and store I/O faults against the seeded
  load generator, with ledger and clean-vs-chaos equivalence checks;
  plus the **mutate soak** (``--scenario mutate-soak``) that streams
  seeded edge-update batches through ``GraphRegistry.apply_updates``
  interleaved with query waves, holding incremental PageRank/WCC/BFS
  maintainers in lockstep and checking them against from-scratch
  recompute, served-answer currency, and cache-index consistency;
* :mod:`~repro.serve.checks` — serve-path oracles for
  ``repro check --subsystem serve``: served == direct, cache hit ==
  cold miss, batched == unbatched, the admission ledger invariant,
  and the soak's degraded-ledger/equivalence oracles.

Everything reports through :mod:`repro.obs`: per-endpoint latency
histograms (p50/p95/p99 in simulated ops), queue-depth and in-flight
gauges, cache hit rates, shed and deadline-miss counters, and one
``serve.request`` span per request.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "batcher": ("MicroBatcher",),
    "breaker": ("BreakerBoard", "BreakerConfig", "CircuitBreaker"),
    "cache": ("ResultCache",),
    "endpoints": (
        "Endpoint", "EndpointRegistry", "GraphRecord", "GraphRegistry",
        "builtin_endpoints", "canonical_params",
    ),
    "loadgen": (
        "SCENARIOS", "ClosedLoop", "open_loop", "run_scenario", "scenario_requests",
        "update_stream",
    ),
    "scheduler": ("Request", "Response", "Server", "ServeStats"),
    "soak": ("run_mutate_soak", "run_serve_soak"),
})
