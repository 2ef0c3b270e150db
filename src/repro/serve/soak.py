"""The storage-aware chaos soak: graceful degradation, end to end.

``python -m repro chaos --scenario serve-soak`` drives one seeded
workload through the whole resilience stack twice — once clean, once
under a deterministic fault plan (injected endpoint failures, a worker
crash inside the parallel executor, and store I/O faults against the
chunked ingest pipeline) — and checks the graceful-degradation
contract the hard way:

* **degraded ledger** — every admitted request lands in exactly one
  terminal column: ``admitted == completed + shed + expired +
  degraded`` with nothing in flight (the ``serve.soak.degraded_ledger``
  oracle);
* **breakers reopen** — the failing endpoint's circuit breaker opens,
  cools down into half-open, and the failing probe reopens it (state
  transitions read back from the ``serve.breaker.transitions`` series);
* **clean-vs-chaos equivalence** — every ``ok`` response in the chaos
  run is **bit-identical** to the clean run's answer for the same
  request id, and every degraded answer's staleness is within the
  configured bound (the ``serve.soak.clean_vs_chaos`` oracle);
* **crash-consistent store** — a chunked ingest crashed at the first,
  middle, and last chunk boundary (plus a torn spill write) resumes to
  a store **byte-identical** to the uninterrupted build; a scheduled
  shard-write I/O error is absorbed by the deterministic retry; and a
  flipped byte in a shard is caught by ``verify_store`` and moved to
  quarantine by ``repair_store``.

Everything is pure-deterministic at a fixed seed: the report this
module returns is reproducible bit-for-bit, which is what lets CI pin
it as an artifact.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..graph.delta import random_edge_updates
from ..graph.generators import barabasi_albert
from ..graph.partition import hash_partition
from ..graph.store import InMemoryGraph, ingest_edge_stream, repair_store, verify_store
from ..graph.store.format import tree_digest
from ..obs import MetricsRegistry, Tracer, json_safe
from ..resilience import FaultError, FaultPlan, resolve_fault_seed
from .breaker import BreakerConfig
from .endpoints import GraphRegistry, builtin_endpoints
from .loadgen import MixEntry, open_loop, summarize
from .scheduler import Request, Response, Server

__all__ = ["run_serve_soak", "run_mutate_soak"]


# ----------------------------------------------------------------------
# Serve soak: clean run vs chaos run over the same seeded workload
# ----------------------------------------------------------------------


def _soak_mix(n: int) -> List[MixEntry]:
    """A mix over a small parameter pool, so wave 1 warms a cache entry
    for (nearly) every computation wave 2 will ask for — the degradation
    ladder needs a stale answer to exist before it can serve one."""
    return [
        MixEntry(
            "tlav.pagerank",
            lambda r: {"iterations": int(r.integers(3, 7))},
            weight=2.5,
        ),
        MixEntry(
            "tlav.bfs", lambda r: {"source": int(r.integers(6))}, weight=2.0
        ),
        MixEntry(
            "matching.count",
            lambda r: {"pattern": str(r.choice(["triangle", "diamond"]))},
            weight=1.5,
        ),
        MixEntry(
            "gnn.predict", lambda r: {"nodes": [int(r.integers(6))]}, weight=2.0
        ),
    ]


def _waves(seed: int) -> Tuple[List, List]:
    """(warm wave, fault wave) — regenerated per run so request ids and
    params are identical across the clean and chaos servers."""
    mix = _soak_mix(90)
    warm = open_loop(
        mix, num_requests=36, mean_interarrival=400,
        tenants=("alice", "bob"), seed=seed,
    )
    last = warm[-1].arrival if warm else 0
    # Deterministic coverage tail: one request per parameter the storm
    # can draw, so every storm computation has a warm cache entry to
    # degrade to regardless of what the seeded warm wave happened to hit.
    coverage = (
        [{"endpoint": "tlav.pagerank", "params": {"iterations": i}}
         for i in range(3, 7)]
        + [{"endpoint": "tlav.bfs", "params": {"source": s}} for s in range(6)]
        + [{"endpoint": "matching.count", "params": {"pattern": p}}
           for p in ("triangle", "diamond")]
        + [{"endpoint": "gnn.predict", "params": {"nodes": [v]}}
           for v in range(6)]
    )
    for spec in coverage:
        last += 150
        warm.append(Request(
            endpoint=spec["endpoint"], params=spec["params"],
            tenant="warmup", arrival=last,
        ))
    storm = open_loop(
        mix, num_requests=80, mean_interarrival=180,
        tenants=("alice", "bob", "carol"), seed=seed + 1,
        start=last + 1_000,
    )
    return warm, storm


def _run_waves(
    server: Server,
    graphs: GraphRegistry,
    waves: Tuple[List, List],
    storm_injector=None,
) -> List[Response]:
    """Warm wave, epoch bump, storm wave.

    The bump is what makes wave-2 degradation *stale*: every warm entry
    is now exactly one epoch behind.  ``storm_injector`` arms endpoint
    faults only for the storm — the warm wave must populate the cache
    cleanly or there is nothing stale to degrade to."""
    warm, storm = waves
    responses: List[Response] = []
    for request in warm:
        server.submit(request)
    responses.extend(server.run())
    graphs.replace("default", barabasi_albert(90, 3, seed=12))
    if storm_injector is not None:
        server.injector = storm_injector
    for request in storm:
        server.submit(request)
    responses.extend(server.run())
    return responses


def _canonical_value(value: Any) -> str:
    return json.dumps(json_safe(value), sort_keys=True)


def _breaker_transitions(obs: MetricsRegistry) -> Dict[str, int]:
    transitions = obs.counter("serve.breaker.transitions")
    return {
        state: int(transitions.total_where(to=state))
        for state in ("closed", "open", "half_open")
    }


def run_serve_part(
    seed: int,
    workers: int = 2,
    backend: Optional[str] = None,
    obs: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    max_stale_epochs: int = 8,
) -> Dict[str, Any]:
    """Clean run vs chaos run of the same workload; returns the report."""
    from ..parallel import ParallelExecutor

    clean_obs = MetricsRegistry()
    chaos_obs = obs if obs is not None else MetricsRegistry()
    server_kwargs = dict(
        num_workers=2, queue_bound=64, batch_window=32, max_batch=4,
    )

    # -- clean reference (executor attached so both runs take the same
    #    engine implementations; no injector, so values are fault-free)
    graphs = GraphRegistry()
    graphs.register("default", barabasi_albert(90, 3, seed=11))
    with ParallelExecutor(
        backend=backend, workers=workers, obs=clean_obs
    ) as executor:
        clean_server = Server(
            graphs, endpoints=builtin_endpoints(), obs=clean_obs,
            executor=executor, **server_kwargs,
        )
        clean = _run_waves(clean_server, graphs, _waves(seed))

    # -- chaos run: endpoint failures + a worker crash + the ladder on.
    # pagerank fails on every attempt, so the half-open probe fails too
    # and reopens the breaker whatever the seed draws.
    plan = (
        FaultPlan(seed=seed)
        .fail_endpoint("tlav.pagerank", 1.0)
        .fail_endpoint("matching.count", 0.35)
        .crash_worker(chunk=1, times=2)
    )
    injector = plan.build(chaos_obs)
    graphs = GraphRegistry()
    graphs.register("default", barabasi_albert(90, 3, seed=11))
    with ParallelExecutor(
        backend=backend, workers=workers, obs=chaos_obs, injector=injector,
        tracer=tracer,
    ) as executor:
        chaos_server = Server(
            graphs, endpoints=builtin_endpoints(), obs=chaos_obs,
            tracer=tracer, executor=executor,
            breaker=BreakerConfig(
                window=6, failure_threshold=0.5, min_samples=3,
                open_ops=1_500, half_open_probes=1,
            ),
            degrade=True, max_stale_epochs=max_stale_epochs,
            default_timeout_ops=3_000,
            **server_kwargs,
        )
        chaos = _run_waves(
            chaos_server, graphs, _waves(seed), storm_injector=injector
        )

    # -- assertions --------------------------------------------------------
    stats = chaos_server.stats
    ledger_ok = (
        stats.in_flight == 0
        and stats.admitted
        == stats.completed + stats.shed + stats.expired + stats.degraded
    )
    transitions = _breaker_transitions(chaos_obs)
    breakers_reopened = (
        transitions["open"] >= 2 and transitions["half_open"] >= 1
    )
    clean_values = {r.request.id: _canonical_value(r.value) for r in clean}
    chaos_ok = [r for r in chaos if r.ok]
    ok_match = all(
        _canonical_value(r.value) == clean_values.get(r.request.id)
        for r in chaos_ok
    )
    degraded = [r for r in chaos if r.degraded]
    staleness_bounded = all(
        1 <= r.staleness <= max_stale_epochs for r in degraded
    )
    assertions = {
        "ledger_ok": ledger_ok,
        "clean_all_ok": all(r.ok for r in clean),
        "breakers_reopened": breakers_reopened,
        "ok_matches_clean": ok_match,
        "degraded_seen": len(degraded) > 0,
        "staleness_bounded": staleness_bounded,
    }
    makespan = max((r.completed for r in chaos), default=0) - min(
        (r.request.arrival for r in chaos), default=0
    )
    reasons: Dict[str, int] = {}
    for r in degraded:
        key = r.degraded_reason or "unknown"
        reasons[key] = reasons.get(key, 0) + 1
    return {
        "ok": all(assertions.values()),
        "assertions": assertions,
        "requests": len(chaos),
        "clean": {
            "ok": sum(1 for r in clean if r.ok),
            "errors": sum(1 for r in clean if r.status == "error"),
        },
        "chaos": {
            k: v for k, v in summarize(chaos, chaos_server, makespan)[
                "overall"
            ].items()
        },
        "degraded_reasons": reasons,
        "breaker_transitions": transitions,
        "max_staleness": max((r.staleness for r in degraded), default=0),
        "endpoint_faults": int(
            chaos_obs.counter("resilience.faults_injected").total_where(
                kind="endpoint_failure"
            )
        ),
    }


# ----------------------------------------------------------------------
# Store soak: crash/resume byte-identity + integrity quarantine
# ----------------------------------------------------------------------


def _soak_edges(seed: int) -> List[Tuple[int, int]]:
    """A deterministic shuffled undirected edge list (one pair per edge)."""
    graph = barabasi_albert(300, 3, seed=7)
    pairs = []
    for u in range(graph.num_vertices):
        for v in graph.indices[graph.indptr[u]: graph.indptr[u + 1]]:
            if u < int(v):
                pairs.append((u, int(v)))
    order = np.random.default_rng(seed).permutation(len(pairs))
    return [pairs[i] for i in order]


def run_store_part(
    seed: int,
    obs: Optional[MetricsRegistry] = None,
    workdir: Optional[str] = None,
) -> Dict[str, Any]:
    """Crash the chunked ingest at chosen boundaries; resume; compare."""
    obs = obs if obs is not None else MetricsRegistry()
    edges = _soak_edges(seed)
    chunk_edges = 120
    n_chunks = -(-2 * len(edges) // (2 * chunk_edges))
    kwargs = dict(
        num_vertices=300, partition="hash", num_parts=3, seed=seed,
        chunk_edges=chunk_edges, name="soak",
    )
    own_dir = workdir is None
    root = workdir or tempfile.mkdtemp(prefix="repro-soak-")
    try:
        ref_dir = os.path.join(root, "ref")
        ingest_edge_stream(iter(edges), path=ref_dir, **kwargs)
        ref_digest = tree_digest(ref_dir)

        crash_points = [0, n_chunks // 2, n_chunks - 1]
        resume_identical: Dict[str, bool] = {}
        for point in crash_points:
            dest = os.path.join(root, f"crash{point}")
            injector = FaultPlan(seed=seed).crash_at_chunk(point).build(obs)
            try:
                ingest_edge_stream(
                    iter(edges), path=dest, injector=injector, **kwargs
                )
                crashed = False
            except FaultError:
                crashed = True
            ingest_edge_stream(iter(edges), path=dest, resume=True, **kwargs)
            resume_identical[f"chunk{point}"] = (
                crashed and tree_digest(dest) == ref_digest
            )

        torn_dir = os.path.join(root, "torn")
        injector = FaultPlan(seed=seed).torn_write(chunk=1).build(obs)
        try:
            ingest_edge_stream(
                iter(edges), path=torn_dir, injector=injector, **kwargs
            )
            torn = False
        except FaultError:
            torn = True
        ingest_edge_stream(iter(edges), path=torn_dir, resume=True, **kwargs)
        torn_identical = torn and tree_digest(torn_dir) == ref_digest

        io_dir = os.path.join(root, "io")
        injector = FaultPlan(seed=seed).fail_write("part1/indices.npy").build(obs)
        ingest_edge_stream(iter(edges), path=io_dir, injector=injector, **kwargs)
        io_retried = (
            injector.faults_injected >= 1
            and tree_digest(io_dir) == ref_digest
        )

        # -- integrity drill: flip a byte, detect, quarantine ---------------
        bad_dir = os.path.join(root, "bad")
        shutil.copytree(ref_dir, bad_dir)
        victim = os.path.join(bad_dir, "part0", "indices.npy")
        with open(victim, "r+b") as handle:
            handle.seek(-8, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-8, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0xFF]))
        detected = verify_store(bad_dir)
        try:
            repair_store(bad_dir)
            quarantined: List[str] = []
        except Exception as exc:
            quarantined = list(getattr(exc, "paths", []))
        quarantine_ok = (
            not detected.ok
            and detected.corrupt == ["part0/indices.npy"]
            and quarantined == ["part0/indices.npy"]
            and os.path.exists(
                os.path.join(bad_dir, "_quarantine", "part0", "indices.npy")
            )
            and verify_store(ref_dir).ok
        )

        assertions = {
            "crashes_fired": True,
            **{f"resume_identical_{k}": v for k, v in resume_identical.items()},
            "torn_write_identical": torn_identical,
            "io_error_retried": io_retried,
            "quarantine_ok": quarantine_ok,
        }
        return {
            "ok": all(assertions.values()),
            "assertions": assertions,
            "edges": len(edges),
            "chunks": n_chunks,
            "crash_points": crash_points,
            "ref_digest": ref_digest,
        }
    finally:
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# Mutate soak: streaming updates + incremental engines + cache accounting
# ----------------------------------------------------------------------


def run_mutate_soak(
    seed: Optional[int] = None,
    obs: Optional[MetricsRegistry] = None,
    num_batches: int = 30,
) -> Dict[str, Any]:
    """Interleave query waves with a seeded edge-update stream and check
    the dynamic-graph contract at every epoch:

    * **incremental ≡ recompute** — the incremental PageRank / WCC / BFS
      maintainers, fed the same batches in lockstep with the registry,
      match a from-scratch solve on the final graph (WCC and BFS
      bit-identical, PageRank within the push tolerance of an exact
      linear solve, every residual at most ``tol``);
    * **served answers are current** — every ``graph.neighbors`` response
      in the wave after a batch reflects that batch's inserts/deletes;
    * **cache accounting** — the per-graph secondary index stays
      consistent with the entry table at every epoch, promotions only
      happen for entries whose footprint missed the dirty partitions,
      and the admission ledger balances.
    """
    from ..tlav import bfs as scratch_bfs
    from ..tlav import wcc as scratch_wcc
    from ..tlav.checks import exact_pagerank
    from ..tlav.incremental import (
        IncrementalBFS,
        IncrementalPageRank,
        IncrementalWCC,
    )

    seed = resolve_fault_seed(seed)
    obs = obs if obs is not None else MetricsRegistry()
    base = barabasi_albert(240, 3, seed=11)
    n = base.num_vertices
    graphs = GraphRegistry()
    graphs.register(
        "default",
        InMemoryGraph(base, partition=hash_partition(base, 32), name="default"),
    )
    server = Server(
        graphs, endpoints=builtin_endpoints(), obs=obs,
        num_workers=2, queue_bound=64, batch_window=64, max_batch=4,
        max_stale_epochs=4,
    )
    inc_pr = IncrementalPageRank(base, tol=1e-10)
    inc_wcc = IncrementalWCC(base)
    inc_bfs = IncrementalBFS(base, source=0)
    batches = random_edge_updates(
        base, num_batches, edge_fraction=0.01, seed=seed + 3
    )
    mix = [
        MixEntry(
            "graph.neighbors",
            lambda r: {"node": int(r.integers(48))},
            weight=5.0,
        ),
        MixEntry("tlav.bfs", lambda r: {"source": 0}, weight=1.0),
        MixEntry("tlav.wcc", lambda r: {}, weight=1.0),
    ]

    responses: List[Response] = []
    index_ok = True
    answers_current = True
    epochs = 0
    for i, (ins, dels) in enumerate(batches):
        delta = graphs.apply_updates("default", inserts=ins, deletes=dels)
        inc_pr.apply(ins, dels)
        inc_wcc.apply(ins, dels)
        inc_bfs.apply(ins, dels)
        epochs += 1
        index_ok = index_ok and server.cache.index_consistent()
        live = graphs.get("default").graph
        wave = open_loop(
            mix, num_requests=8, mean_interarrival=300,
            tenants=("alice", "bob"), seed=seed + 100 + i,
        )
        for request in wave:
            server.submit(request)
        wave_responses = server.run()
        responses.extend(wave_responses)
        for r in wave_responses:
            if r.ok and r.request.endpoint == "graph.neighbors":
                node = int(r.request.params.get("node", 0)) % n
                expect = [int(w) for w in live.neighbors(node)]
                answers_current = answers_current and r.value == expect
        index_ok = index_ok and server.cache.index_consistent()

    final = graphs.get("default").graph.to_graph()
    pr_err = float(np.max(np.abs(inc_pr.scores() - exact_pagerank(final))))
    wcc_match = bool(np.array_equal(inc_wcc.labels, scratch_wcc(final)))
    bfs_match = bool(np.array_equal(inc_bfs.levels, scratch_bfs(final, source=0)))

    stats = server.stats
    cache = server.cache.as_dict()
    assertions = {
        "ledger_ok": (
            stats.in_flight == 0
            and stats.admitted
            == stats.completed + stats.shed + stats.expired + stats.degraded
        ),
        "index_consistent": index_ok,
        "answers_current": answers_current,
        "incremental_pagerank_matches": pr_err < 1e-6,
        "incremental_pagerank_residual_within_tol": (
            inc_pr.as_dict()["residual"] <= inc_pr.tol
        ),
        "incremental_wcc_matches": wcc_match,
        "incremental_bfs_matches": bfs_match,
        "epoch_advanced_per_batch": graphs.get("default").epoch == num_batches,
        "promotions_seen": cache["promoted"] > 0,
    }
    return {
        "ok": all(assertions.values()),
        "assertions": assertions,
        "batches": epochs,
        "requests": len(responses),
        "final_epoch": int(graphs.get("default").epoch),
        "pagerank_max_err": pr_err,
        "incremental": {
            "pagerank": inc_pr.as_dict(),
            "wcc": inc_wcc.as_dict(),
            "bfs": inc_bfs.as_dict(),
        },
        "cache": cache,
    }


# ----------------------------------------------------------------------
# The whole soak
# ----------------------------------------------------------------------


def run_serve_soak(
    seed: Optional[int] = None,
    workers: int = 2,
    backend: Optional[str] = None,
    obs: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    workdir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the full serve + store chaos soak; returns the JSON report.

    Deterministic at a fixed ``seed`` (default: ``REPRO_FAULT_SEED``).
    ``workdir`` keeps the store artifacts around for inspection; by
    default they live in a temp directory that is removed on exit.
    """
    seed = resolve_fault_seed(seed)
    obs = obs if obs is not None else MetricsRegistry()
    serve_report = run_serve_part(
        seed, workers=workers, backend=backend, obs=obs, tracer=tracer
    )
    store_report = run_store_part(seed, obs=obs, workdir=workdir)
    return {
        "scenario": "serve-soak",
        "fault_seed": seed,
        "workers": workers,
        "ok": serve_report["ok"] and store_report["ok"],
        "serve": serve_report,
        "store": store_report,
    }
