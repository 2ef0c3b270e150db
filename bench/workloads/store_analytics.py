"""``store_analytics`` — edge stream -> chunked ingest -> paged vs resident TLAV.

``graph.store`` + ``tlav.vectorized`` + ``graph.kernels`` do all the
work; GNN, serve and the parallel pools are idle.  A write (ingest) sits
beside reads, and a working set twice the ShardCache budget (paged)
beside one that fits (unbounded store, in-memory ``Graph``).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

import inputs
from harness import Phase
from repro.graph.csr import Graph
from repro.graph.kernels import edge_array, scatter_add_ordered
from repro.graph.store import build_store, ingest_edge_stream, open_store
from repro.obs import MetricsRegistry
from repro.tlav.vectorized import bfs_dense, pagerank_dense, wcc_dense

SIZES = {
    "full": {"n": 64_000, "out_degree": 8, "alpha": 0.8, "parts": 8,
             "chunk_edges": 50_000, "pagerank_iterations": 10,
             "trace_passes": {"ingest": 5, "paged": 6, "unbounded": 5,
                              "resident": 20, "kernel": 10}},
    "smoke": {"n": 2_000, "out_degree": 4, "alpha": 0.8, "parts": 4,
              "chunk_edges": 1_000, "pagerank_iterations": 3,
              "trace_passes": {"ingest": 1, "paged": 1, "unbounded": 1,
                               "resident": 1, "kernel": 1}},
}
SHARES = {"ingest": 0.3, "paged": 0.4, "resident": 0.3}
ALIASES = {"main_pass_s": "paged_analytics_s",
           "twin_pass_s": "resident_analytics_s",
           "side_rate": "ingest_edges_per_s"}


def setup(run):
    sz = run.sizes
    rng = np.random.default_rng(run.seed)
    pairs = inputs.power_law_edges(sz["n"], sz["out_degree"], sz["alpha"], rng)
    indptr, indices = inputs.csr_from_edges(pairs, sz["n"])
    state = {
        "pairs": pairs,
        # What an ingest client hands over: an iterable of python int pairs.
        "stream": list(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())),
        "graph": Graph(indptr, indices),
        "oneshot_dir": os.path.join(run.workdir, "oneshot"),
        "ingest_dir": os.path.join(run.workdir, "ingested"),
    }
    t0 = time.perf_counter()
    state["oneshot"] = build_store(
        state["graph"], state["oneshot_dir"], partition="range",
        num_parts=sz["parts"],
    )
    state["build_s"] = time.perf_counter() - t0
    return state


def teardown(run, state):
    shutil.rmtree(state["oneshot_dir"], ignore_errors=True)
    shutil.rmtree(state["ingest_dir"], ignore_errors=True)


def _checksums(manifest):
    return sorted(
        (entry.path, entry.nbytes, entry.crc32)
        for part in manifest.partitions for entry in part.files.values()
    )


def _analytics(run, handle, tag, iterations, obs=None):
    with run.span(f"tlav.pagerank_{tag}"):
        ranks = pagerank_dense(handle, iterations=iterations, obs=obs)
    with run.span(f"tlav.wcc_{tag}"):
        labels = wcc_dense(handle)
    with run.span(f"tlav.bfs_{tag}"):
        levels = bfs_dense(handle, source=0)
    return ranks, labels, levels


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def run(run, state):
    sz, fixed = run.sizes, run.sizes["trace_passes"]
    graph, stream = state["graph"], state["stream"]
    iters = sz["pagerank_iterations"]
    reference = _analytics(run, graph, "reference", iters)  # untimed oracle
    obs = MetricsRegistry()
    seen = {}  # last manifest, first paged cache stats

    def ingest(i):
        shutil.rmtree(state["ingest_dir"], ignore_errors=True)
        with run.timed("ingest"), run.span("store.ingest"):
            seen["manifest"] = ingest_edge_stream(
                stream, sz["n"], state["ingest_dir"], partition="range",
                num_parts=sz["parts"], chunk_edges=sz["chunk_edges"],
            )
        if i == 0:
            run.check(
                "store.ingest_equals_oneshot_build",
                _checksums(seen["manifest"]) == _checksums(state["oneshot"]),
            )

    def stored_pass(name, tag, budget):
        with run.timed(name):
            with run.span(f"store.open_{tag}", layer="store"):
                stored = open_store(state["ingest_dir"], cache_budget=budget)
            result = _analytics(run, stored, tag, iters)
        stats = stored.cache_stats()
        stored.close()
        return result, stats

    def paged(i):
        result, stats = stored_pass(
            "paged", "paged", seen["manifest"].shard_bytes // 2
        )
        if i == 0:
            seen["paged_stats"] = stats
            run.check("store.paged_equals_resident", _same(result, reference))
        run.check("store.paging_forced", stats["evictions"] > 0)

    def unbounded(i):
        result, _ = stored_pass("unbounded", "unbounded", None)
        if i == 0:
            run.check("store.unbounded_equals_resident", _same(result, reference))

    def resident(i):
        with run.timed("resident"):
            result = _analytics(run, graph, "resident", iters, obs=obs)
        if i == 0:
            run.check("tlav.resident_repeatable", _same(result, reference))

    _, dst = edge_array(graph.indptr, graph.indices)
    values = np.ones(dst.size, dtype=np.float64)

    def scatter(i):
        out = np.zeros(sz["n"], dtype=np.float64)
        with run.timed("scatter"), run.span("kernels.scatter_add_ordered"):
            scatter_add_ordered(out, dst, values)

    run.measure([
        Phase(ingest, SHARES["ingest"], fixed["ingest"]),
        Phase(paged, SHARES["paged"], fixed["paged"], alternate=True),
        Phase(resident, SHARES["resident"], fixed["resident"],
              min_passes=10),
        Phase(unbounded, 0.0, fixed["unbounded"]),
        Phase(scatter, 0.0, fixed["kernel"]),
    ])

    edges = state["pairs"].shape[0]
    if not run.trace:
        run.timing("main_pass_s", of="paged")
        run.timing("twin_pass_s", of="resident")
        run.metric("side_rate", edges / run.fast("ingest"), of="ingest")
        return

    manifest, paged_stats = seen["manifest"], seen["paged_stats"]
    run.timing("store.ingest_s", of="ingest")
    run.metric("store.open_s", run.span_fast("store.open_paged"))
    run.metric("store.cache_misses", paged_stats["misses"], exact=True)
    run.metric("store.cache_evictions", paged_stats["evictions"], exact=True)
    run.metric("store.bytes_paged", paged_stats["bytes_paged"], exact=True)
    run.metric(
        "store.cache_hit_ratio",
        paged_stats["hits"] / max(1, paged_stats["pages_requested"]), exact=True,
    )
    run.timing("store.unbounded_analytics_s", of="unbounded")
    run.metric("store.paging_overhead_s", run.fast("paged") - run.fast("unbounded"))
    run.metric("store.build_s", state["build_s"])
    run.metric(
        "store.bytes_per_edge_slot", manifest.shard_bytes / manifest.num_edge_slots,
        exact=True,
    )
    for algo in ("pagerank", "wcc", "bfs"):
        for tag in ("paged", "resident"):
            run.metric(f"tlav.{algo}_{tag}_s", run.span_fast(f"tlav.{algo}_{tag}"))
    processed = obs.counter("tlav.dense.edges_processed").total
    run.metric(
        "tlav.edges_per_s",
        processed / len(run.samples["resident"])
        / run.span_fast("tlav.pagerank_resident"),
    )
    run.timing("kernels.scatter_add_ordered_s", of="scatter")
    run.metric("bench.trace_overhead_frac", run.trace_overhead("paged"))
