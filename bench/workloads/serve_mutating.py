"""``serve_mutating`` — request waves the cache serves vs waves after mutation.

The only workload where ``serve.scheduler``/``batcher``/``cache``,
``graph.delta`` and ``tlav.incremental`` run.  Hot and mutating are the
same layer used two ways: in hot waves the ``ResultCache`` does the work,
in mutating waves every epoch bump sends the requests back to the
engines.  The server advances a simulated-ops clock: the seeded arrival
stamps decide batching and queueing deterministically but do not pace
the wall clock, so speed is wall seconds per wave of ``Server.run`` and
simulated-ops latencies are reported as modelled counts only.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

import inputs
from harness import Phase
from repro.graph.csr import Graph
from repro.graph.partition import hash_partition
from repro.graph.store import InMemoryGraph, build_store
from repro.serve import (
    ClosedLoop, Endpoint, EndpointRegistry, GraphRegistry, Server,
    builtin_endpoints, open_loop,
)
from repro.serve.loadgen import MixEntry
from repro.tlav.incremental import IncrementalPageRank, IncrementalWCC
from repro.tlav.vectorized import wcc_dense

SIZES = {
    "full": {"n": 2_000, "out_degree": 3, "alpha": 0.25, "feature_dim": 8,
             "mem_parts": 32, "stored_parts": 8, "update_fraction": 0.01,
             "batches_per_wave": 3,
             "hot_open": 1_000, "hot_closed": 100, "hot_waves_max": 100,
             "wave_open": 60, "wave_closed": 10,
             "pagerank_tol": 1e-8, "served_sample": 12,
             "trace_passes": {"hot": 10, "mutating": 8}},
    "smoke": {"n": 300, "out_degree": 3, "alpha": 0.6, "feature_dim": 8,
              "mem_parts": 8, "stored_parts": 2, "update_fraction": 0.02,
              "batches_per_wave": 2,
              "hot_open": 40, "hot_closed": 5, "hot_waves_max": 20,
              "wave_open": 36, "wave_closed": 2,
              "pagerank_tol": 1e-8, "served_sample": 6,
              "trace_passes": {"hot": 2, "mutating": 2}},
}
SHARES = {"hot": 0.3, "mutating": 0.7}
ALIASES = {"main_pass_s": "mutating_wave_s (80 requests / serve_mutating_rps)",
           "twin_pass_s": "hot_wave_s (1200 requests / serve_hot_rps)",
           "side_rate": "update_edges_per_s (edge ops / update_batch_ms)"}
OPEN_TENANTS = ("alice", "bob", "carol")
CLOSED_CLIENTS = ("dan", "erin")
ENDPOINTS = ("graph.neighbors", "tlav.bfs", "tlav.pagerank", "tlav.wcc",
             "matching.count", "tlag.subgraph_query", "gnn.predict")


def _pools(n):
    """``(endpoint, weight, params pool)`` — every engine family, small pools."""
    node_sets = [sorted((7 * k + j * 31) % n for j in range(4)) for k in range(8)]
    return [
        ("graph.neighbors", 4.0, [{"node": k} for k in range(16)]),
        ("tlav.bfs", 2.0, [{"source": k} for k in range(4)]),
        ("tlav.pagerank", 1.0, [{"iterations": 5}]),
        ("tlav.wcc", 1.0, [{}]),
        ("matching.count", 1.5, [{"pattern": p} for p in ("triangle", "diamond")]),
        ("tlag.subgraph_query", 1.5,
         [{"pattern": p} for p in ("triangle", "tailed-triangle")]),
        ("gnn.predict", 3.0, [{"nodes": nodes} for nodes in node_sets]),
    ]


def _mix(pools, graph):
    return [
        MixEntry(endpoint, lambda r, pool=pool: dict(pool[int(r.integers(len(pool)))]),
                 weight=weight, graph=graph)
        for endpoint, weight, pool in pools
    ]


def _spanned_endpoints(run):
    """Bench-side registry: the built-ins with a span around run/run_batch."""
    registry = EndpointRegistry()
    for inner in builtin_endpoints():
        def call(record, params, executor, inner=inner):
            with run.span(f"serve.endpoint.{inner.name}", layer="serve.endpoint"):
                return inner.run(record, params, executor)

        def call_batch(record, params_list, executor, inner=inner):
            with run.span(f"serve.endpoint.{inner.name}", layer="serve.endpoint"):
                return inner.run_batch(record, params_list, executor)

        registry.register(Endpoint(
            inner.name, inner.family, call,
            run_batch=call_batch if inner.merge_batch else None,
            description=inner.description, timeout_ops=inner.timeout_ops,
            degradable=inner.degradable, footprint=inner.partitions_read,
        ))
    return registry


def _wave(run, state, mix, open_requests, closed_requests, seed):
    """Generate one open+closed-loop wave (untimed); returns a runner.

    The open loop is the repo's seeded Poisson stream; a seeded choice of
    its slots is overwritten so that every (endpoint, params) of the
    pools occurs at least once — each wave then costs the engines the
    same work, whatever the draw.
    """
    server = state["server"]
    start = server.clock
    requests = open_loop(
        mix, num_requests=open_requests, mean_interarrival=300,
        tenants=OPEN_TENANTS, seed=seed, start=start,
    )
    distinct = [(e, p) for e, _, pool in state["pools"] for p in pool]
    slots = np.random.default_rng(seed).permutation(open_requests)
    for slot, (endpoint, params) in zip(slots, distinct):
        requests[slot].endpoint, requests[slot].params = endpoint, dict(params)
    closed = ClosedLoop(
        mix, clients=CLOSED_CLIENTS, requests_per_client=closed_requests,
        think_ops=400, seed=seed + 1, start=start,
    )
    requests += closed.initial_requests()

    def serve():
        with run.span("serve.run", layer="serve.scheduler"):
            for request in requests:
                server.submit(request)
            return server.run(feedback=closed.feedback)

    return serve


def _account(run, responses):
    """Every request is an attempted operation; a non-OK answer failed."""
    bad = [r for r in responses if not r.ok]
    run.attempted += len(responses)
    run.failed += len(bad)
    run.failures.extend(f"serve.{r.status}:{r.request.endpoint}" for r in bad[:3])


def setup(run):
    sz = run.sizes
    rng = np.random.default_rng(run.seed)
    pairs = inputs.power_law_edges(sz["n"], sz["out_degree"], sz["alpha"], rng)
    indptr, indices = inputs.csr_from_edges(pairs, sz["n"])
    graph = Graph(indptr, indices)
    features = rng.normal(size=(sz["n"], sz["feature_dim"]))
    store_dir = os.path.join(run.workdir, "stored")
    build_store(graph, store_dir, partition="hash", num_parts=sz["stored_parts"],
                features=features, name="stored")
    graphs = GraphRegistry()
    graphs.register("mem", InMemoryGraph(
        graph, features=features,
        partition=hash_partition(graph, sz["mem_parts"]), name="mem",
    ))
    graphs.register("stored", store_dir)
    server = Server(
        graphs,
        endpoints=_spanned_endpoints(run) if run.trace else builtin_endpoints(),
        num_workers=4, queue_bound=100_000, batch_window=128, executor=None,
    )
    pools = _pools(sz["n"])
    state = {
        "graphs": graphs, "server": server, "store_dir": store_dir,
        # Hot waves only ask about the stored graph, which is never mutated:
        # its cached answers stay valid while the in-memory graph changes, so
        # hot and mutating waves can interleave over the whole time box.
        "pools": pools,
        "hot_mix": _mix(pools, "stored"),
        "mutating_mix": _mix(pools, "mem"),
        "pagerank": IncrementalPageRank(graph, tol=sz["pagerank_tol"]),
        "wcc": IncrementalWCC(graph),
        "updates": inputs.update_batches(
            pairs, sz["n"], max(1, int(sz["update_fraction"] * pairs.shape[0])), rng
        ),
    }
    # Fill the result cache: hot waves measure the cache, not the first miss.
    _account(run, _wave(run, state, state["hot_mix"], sz["hot_open"],
                        sz["hot_closed"], seed=run.seed * 100_003)())
    return state


def teardown(run, state):
    state["graphs"].get("stored").graph.close()
    shutil.rmtree(state["store_dir"], ignore_errors=True)


def _equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def run(run, state):
    sz, fixed = run.sizes, run.sizes["trace_passes"]
    server, graphs = state["server"], state["graphs"]
    cache, tracer = server.cache, run.tracer
    inc_pr, inc_wcc = state["pagerank"], state["wcc"]
    base_seed = run.seed * 100_003
    pushes0 = inc_pr.pushes
    tally = {
        name: {"hits": 0, "misses": 0, "batched": 0, "responses": 0}
        for name in ("hot", "mutating")
    }
    sim_latencies = []  # mutating waves only: simulated ops, a modelled count
    last = {}

    def serve_wave(name, serve):
        hits, misses = cache.hits, cache.misses
        with run.timed(name):
            responses = serve()
        _account(run, responses)
        t = tally[name]
        t["hits"] += cache.hits - hits
        t["misses"] += cache.misses - misses
        t["batched"] += sum(r.batch_size for r in responses)
        t["responses"] += len(responses)
        return responses

    def hot(i):
        serve_wave("hot", _wave(
            run, state, state["hot_mix"], sz["hot_open"], sz["hot_closed"],
            seed=base_seed + 10 + 2 * i,
        ))

    def mutating(i):
        # A trickle of batches (one epoch bump each) between two waves: three
        # update samples per wave keep the update timing's lower decile steady.
        for _ in range(sz["batches_per_wave"]):
            inserts, deletes = next(state["updates"])
            last["edge_ops"] = inserts.shape[0] + deletes.shape[0]
            with run.timed("update"):
                with run.span("graph.delta.apply_updates", layer="graph.delta"):
                    graphs.apply_updates("mem", inserts=inserts, deletes=deletes)
                with run.span("tlav.incremental.pagerank", layer="tlav.incremental"):
                    inc_pr.apply(inserts, deletes)
                with run.span("tlav.incremental.wcc", layer="tlav.incremental"):
                    inc_wcc.apply(inserts, deletes)
        last["responses"] = serve_wave("mutating", _wave(
            run, state, state["mutating_mix"], sz["wave_open"], sz["wave_closed"],
            seed=base_seed + 1_000 + 2 * i,
        ))
        sim_latencies.extend(r.latency for r in last["responses"])

    run.measure([
        Phase(mutating, SHARES["mutating"], fixed["mutating"],
              alternate=True),
        # The server remembers every request id it ever finished, so its
        # memory grows with the requests served.  Capping the hot waves keeps
        # ``peak_rss_mb`` a function of the workload, not of how fast it ran.
        Phase(hot, SHARES["hot"], fixed["hot"], min_passes=5,
              max_passes=sz["hot_waves_max"]),
    ])

    # -- gates at the final epoch (untimed) --------------------------------
    direct = builtin_endpoints()
    seen = set()
    served_ok = True
    for response in reversed(last["responses"]):
        request = response.request
        key = (request.endpoint, repr(sorted(request.params.items())))
        if key in seen or len(seen) >= sz["served_sample"]:
            continue
        seen.add(key)
        value, _ = direct.get(request.endpoint).run(
            graphs.get(request.graph), request.params
        )
        served_ok = served_ok and _equal(response.value, value)
    run.check("serve.served_equals_direct", served_ok)
    final = graphs.get("mem").graph.to_graph()
    run.check("incremental.wcc_equals_scratch",
              np.array_equal(inc_wcc.labels, wcc_dense(final)))
    scratch = IncrementalPageRank(final, tol=sz["pagerank_tol"]).scores()
    run.check("incremental.pagerank_within_tolerance",
              float(np.max(np.abs(inc_pr.scores() - scratch))) < 1e-6)
    stats = server.stats
    run.check("serve.ledger_balances", stats.in_flight == 0 and stats.admitted
              == stats.completed + stats.shed + stats.expired + stats.degraded)
    run.check("serve.cache_index_consistent", cache.index_consistent())

    if not run.trace:
        run.timing("main_pass_s", of="mutating")
        run.timing("twin_pass_s", of="hot")
        run.metric("side_rate", last["edge_ops"] / run.fast("update"), of="update")
        return

    # -- per-layer numbers (traced run only) -------------------------------
    def phase_of(span):
        while span[4] >= 0:
            span = tracer.spans[span[4]]
        return span[0]

    def seconds(phase, name=None, layer=None):
        return sum(
            s[3] - s[2] for s in tracer.spans
            if (s[0] == name or s[1] == layer) and phase_of(s) == phase
        )

    waves = len(run.samples["mutating"])
    for endpoint in ENDPOINTS:
        run.metric(
            f"serve.busy_s.{endpoint}",
            seconds("bench.mutating", name=f"serve.endpoint.{endpoint}") / waves,
        )
    run.metric(
        "serve.scheduler_self_s",
        (seconds("bench.hot", name="serve.run")
         - seconds("bench.hot", layer="serve.endpoint")) / len(run.samples["hot"]),
    )
    for name, t in tally.items():
        run.metric(f"serve.cache_hit_ratio_{name}",
                   t["hits"] / max(1, t["hits"] + t["misses"]), exact=True)
    run.metric(
        "serve.mean_batch",
        sum(t["batched"] for t in tally.values())
        / sum(t["responses"] for t in tally.values()), exact=True,
    )
    counts = cache.as_dict()
    run.metric("serve.cache_promoted", counts["promoted"], exact=True)
    run.metric("serve.cache_invalidated", counts["invalidated"], exact=True)
    run.metric("serve.shed", stats.shed, exact=True)
    run.metric("serve.expired", stats.expired, exact=True)
    latencies = sorted(sim_latencies)
    run.metric("serve.sim_p95_ops", latencies[int(0.95 * (len(latencies) - 1))],
               exact=True)
    run.metric("delta.apply_updates_ms",
               1e3 * run.span_fast("graph.delta.apply_updates"))
    run.metric("incremental.pagerank_apply_ms",
               1e3 * run.span_fast("tlav.incremental.pagerank"))
    run.metric("incremental.wcc_apply_ms",
               1e3 * run.span_fast("tlav.incremental.wcc"))
    run.metric("incremental.pagerank_pushes", inc_pr.pushes - pushes0, exact=True)
    run.metric("bench.trace_overhead_frac", run.trace_overhead("mutating"))
