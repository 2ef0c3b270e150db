"""``structure_parallel`` — triangles, 4-cliques and diamonds, pooled vs serial.

The structure-analytics path: ``matching`` + ``parallel`` (pools, shm,
cost model) dominate; store, GNN and serve are idle.  The serial twin
bypasses ``parallel``, so a pool/shm/cost-model change must move
``main_pass_s`` only and a matcher/kernel change both.
"""

from __future__ import annotations

import os
import time

import numpy as np

import inputs
from harness import Phase
from repro.graph.csr import Graph
from repro.graph.kernels import intersect_count
from repro.matching import (
    clique_pattern, compiled_count, count_matches, diamond_pattern, triangle_count,
)
from repro.parallel import (
    ParallelExecutor, reset_default_cost_model, shutdown_pools,
)
from repro.tlav.vectorized import pagerank_dense

SIZES = {
    "full": {"n": 3_000, "out_degree": 8, "alpha": 0.6, "intersect_pairs": 20_000,
             "trace_passes": {"auto": 6, "serial": 6, "codegen": 6,
                              "pagerank": 10, "intersect": 5}},
    "smoke": {"n": 300, "out_degree": 4, "alpha": 0.8, "intersect_pairs": 500,
              "trace_passes": {"auto": 1, "serial": 1, "codegen": 1,
                               "pagerank": 1, "intersect": 1}},
}
SHARES = {"auto": 0.45, "serial": 0.4, "codegen": 0.15}
ALIASES = {"main_pass_s": "structure_auto_s",
           "twin_pass_s": "structure_serial_s",
           "side_rate": "codegen_k4_vertices_per_s"}
WORKERS = os.cpu_count() or 1


def _counts(run, graph, executor, layer):
    """The three structure queries; spans are named after ``layer``."""
    with run.span(f"{layer}.triangles"):
        triangles = triangle_count(graph, executor=executor)
    with run.span(f"{layer}.k4"):
        k4 = count_matches(graph, clique_pattern(4), executor=executor)
    with run.span(f"{layer}.diamond"):
        diamonds = count_matches(graph, diamond_pattern(), executor=executor)
    return triangles, k4, diamonds


def setup(run):
    sz = run.sizes
    rng = np.random.default_rng(run.seed)
    pairs = inputs.power_law_edges(sz["n"], sz["out_degree"], sz["alpha"], rng)
    indptr, indices = inputs.csr_from_edges(pairs, sz["n"])
    graph = Graph(indptr, indices)
    # Pool warm-up: spawn the process pool, publish the CSR to shared
    # memory and show the (process-wide) cost model one process and one
    # serial fan-out of every query, so ``auto`` chooses from measured
    # rates of both backends instead of its conservative priors.
    process = ParallelExecutor(backend="process", workers=WORKERS)
    t0 = time.perf_counter()
    triangle_count(graph, executor=process)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    triangle_count(graph, executor=process)
    warm = time.perf_counter() - t0
    count_matches(graph, clique_pattern(4), executor=process)
    count_matches(graph, diamond_pattern(), executor=process)
    serial = ParallelExecutor(backend="serial")
    expected = _counts(run, graph, serial, "warmup")
    return {"graph": graph, "expected": expected, "serial": serial,
            "auto": ParallelExecutor(backend="auto", workers=WORKERS),
            "pool_cold_s": cold - warm}


def teardown(run, state):
    state["auto"].close()
    shutdown_pools()
    reset_default_cost_model()


def run(run, state):
    sz, fixed = run.sizes, run.sizes["trace_passes"]
    graph, expected, auto = state["graph"], state["expected"], state["auto"]
    efficiency = []

    def pooled(i):
        with run.timed("auto"):
            counts = _counts(run, graph, auto, "parallel")
        efficiency.append(auto.efficiency)
        run.check("parallel.counts_equal_serial", counts == expected)

    def serial(i):
        with run.timed("serial"):
            counts = _counts(run, graph, state["serial"], "matching")
        run.check("matching.counts_repeatable", counts == expected)

    def codegen(i):
        with run.timed("codegen"), run.span("matching.codegen_k4"):
            k4 = compiled_count(graph, clique_pattern(4))
        run.check("matching.codegen_equals_backtrack", k4 == expected[1])

    # Traced-run extras.  They get their own executor so the auto-decision
    # counter of the measured one covers the three structure queries only.
    plain = pagerank_dense(graph, iterations=10)
    extra = ParallelExecutor(backend="auto", workers=WORKERS)

    def pagerank(i):
        with run.timed("pagerank_executor"), run.span("tlav.pagerank_executor"):
            ranks = pagerank_dense(graph, iterations=10, executor=extra)
        if i == 0:
            run.check("tlav.executor_pagerank_close", np.allclose(ranks, plain))

    rng = np.random.default_rng(run.seed + 1)
    us = rng.integers(sz["n"], size=sz["intersect_pairs"])
    vs = rng.integers(sz["n"], size=sz["intersect_pairs"])
    lists = [graph.neighbors(v) for v in range(sz["n"])]

    def intersect(i):
        with run.timed("intersect"), run.span("kernels.intersect_count"):
            for u, v in zip(us, vs):
                intersect_count(lists[u], lists[v])

    run.measure([
        Phase(pooled, SHARES["auto"], fixed["auto"], alternate=True),
        Phase(serial, SHARES["serial"], fixed["serial"]),
        Phase(codegen, SHARES["codegen"], fixed["codegen"], min_passes=5),
        Phase(pagerank, 0.0, fixed["pagerank"]),
        Phase(intersect, 0.0, fixed["intersect"]),
    ])

    if not run.trace:
        run.timing("main_pass_s", of="auto")
        run.timing("twin_pass_s", of="serial")
        run.metric("side_rate", sz["n"] / run.fast("codegen"), of="codegen")
        return

    decisions = auto.obs.counter("parallel.auto_decisions").series()
    run.metric("parallel.triangles_s", run.span_fast("parallel.triangles"))
    run.metric("parallel.k4_s", run.span_fast("parallel.k4"))
    run.metric("parallel.diamond_s", run.span_fast("parallel.diamond"))
    run.metric("parallel.efficiency", float(np.median(efficiency)))
    run.metric("parallel.speedup", run.fast("serial") / run.fast("auto"))
    run.metric(
        "parallel.auto_process_share",
        sum(v for k, v in decisions.items() if "process" in k)
        / max(1, sum(decisions.values())),
    )
    run.metric("parallel.pool_cold_s", state["pool_cold_s"])
    run.metric("matching.triangles_s", run.span_fast("matching.triangles"))
    run.metric("matching.k4_s", run.span_fast("matching.k4"))
    run.metric("matching.diamond_s", run.span_fast("matching.diamond"))
    run.timing("matching.codegen_k4_s", of="codegen")
    run.metric("matching.count_triangles", expected[0], exact=True)
    run.metric("matching.count_k4", expected[1], exact=True)
    run.metric("matching.count_diamond", expected[2], exact=True)
    run.timing("tlav.pagerank_executor_s", of="pagerank_executor")
    run.timing("kernels.intersect_count_s", of="intersect")
    run.metric("bench.trace_overhead_frac", run.trace_overhead("auto"))
