"""Differential checks for the real-multicore backend.

The design contract of :mod:`repro.parallel` is *backend independence*:
with the same chunking, the serial and process backends produce the
same bits, and per-worker stats folded with ``merge`` equal the serial
run's stats exactly (all counters are additive integers).  These checks
enforce that contract on random workloads, plus the chunk-span policy
invariant both the executor and the TLAG engine rely on.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..check.invariants import bounded_error, same_bits, same_stats, same_values
from ..check.registry import BIT_IDENTICAL, invariant, pair
from ..check.workloads import gen_graph_params, make_graph
from ..matching.backtrack import MatchStats, count_matches
from ..matching.pattern import triangle_pattern
from ..matching.triangles import triangle_count
from ..tlav.vectorized import pagerank_dense
from .chunking import chunk_spans
from .costmodel import CostModel
from .executor import ParallelExecutor


def _gen_parallel(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 64))
    params["workers"] = int(rng.integers(2, 5))
    params["chunk_size"] = int(rng.integers(1, 9))
    return params


@pair(
    "parallel.matching.process_vs_serial", "parallel", BIT_IDENTICAL,
    gen=_gen_parallel, floors={"n": 4, "workers": 2, "chunk_size": 1},
    description="Matching over strided root sets on the process "
    "backend: same count and *exactly* the same merged work counters "
    "as the serial run (additive integers, no tolerance).",
)
def _check_matching_process(params: Dict) -> List[str]:
    graph = make_graph(params)
    pattern = triangle_pattern()
    serial_stats = MatchStats()
    serial = count_matches(graph, pattern, stats=serial_stats)
    with ParallelExecutor(
        backend="process",
        workers=int(params["workers"]),
        chunk_size=int(params["chunk_size"]),
    ) as executor:
        pooled_stats = MatchStats()
        pooled = count_matches(graph, pattern, executor=executor, stats=pooled_stats)
    out = same_values(serial, pooled, "count")
    out += same_stats(serial_stats, pooled_stats, "match_stats")
    return out


def _gen_pagerank(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 80))
    params["workers"] = int(rng.integers(2, 5))
    params["chunk_size"] = int(rng.integers(4, 33))
    params["iterations"] = int(rng.integers(1, 13))
    return params


@pair(
    "parallel.pagerank_dense.process_vs_serial", "parallel", BIT_IDENTICAL,
    gen=_gen_pagerank,
    floors={"n": 4, "workers": 2, "chunk_size": 1, "iterations": 1},
    description="Chunk-deterministic scatter reduction: with the same "
    "chunk_size, the process backend reproduces the serial backend's "
    "bits exactly (partial vectors fold in chunk order); against the "
    "*unchunked* single-scatter path the sums re-associate, so that "
    "comparison is bounded-error only.",
)
def _check_pagerank_process(params: Dict) -> List[str]:
    graph = make_graph(params)
    iters = int(params["iterations"])
    chunk = int(params["chunk_size"])
    with ParallelExecutor(backend="serial", chunk_size=chunk) as serial:
        reference = pagerank_dense(graph, iterations=iters, executor=serial)
    with ParallelExecutor(
        backend="process", workers=int(params["workers"]), chunk_size=chunk
    ) as process:
        pooled = pagerank_dense(graph, iterations=iters, executor=process)
    out = same_bits(reference, pooled, "pagerank")
    out += bounded_error(
        pagerank_dense(graph, iterations=iters), pooled, atol=1e-12,
        label="pagerank_vs_unchunked",
    )
    return out


def _gen_process(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(16, 64))
    params["workers"] = 2
    params["chunk_size"] = int(rng.integers(4, 17))
    return params


@pair(
    "parallel.triangles.process_vs_serial", "parallel", BIT_IDENTICAL,
    gen=_gen_process, floors={"n": 4, "workers": 2, "chunk_size": 1},
    description="The process backend (shared-memory CSR, pickled "
    "payloads) counts the same triangles as serial.",
)
def _check_triangles_process(params: Dict) -> List[str]:
    graph = make_graph(params)
    reference = triangle_count(graph)
    with ParallelExecutor(
        backend="process",
        workers=int(params["workers"]),
        chunk_size=int(params["chunk_size"]),
    ) as executor:
        parallel = triangle_count(graph, executor=executor)
    return same_values(reference, parallel, "triangles")


def _gen_auto(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 64))
    params["workers"] = int(rng.integers(2, 5))
    params["chunk_size"] = int(rng.integers(1, 9))
    params["repeats"] = int(rng.integers(2, 5))
    return params


@pair(
    "parallel.matching.auto_vs_serial", "parallel", BIT_IDENTICAL,
    gen=_gen_auto,
    floors={"n": 4, "workers": 2, "chunk_size": 1, "repeats": 2},
    description="backend='auto' keeps the backend-independence "
    "contract: whichever backend the cost model picks (and however "
    "calibration shifts the pick across repeated calls), counts and "
    "merged work counters equal the serial run's exactly.",
)
def _check_matching_auto(params: Dict) -> List[str]:
    graph = make_graph(params)
    pattern = triangle_pattern()
    workers = int(params["workers"])
    chunk = int(params["chunk_size"])
    serial_stats = MatchStats()
    serial = count_matches(graph, pattern, stats=serial_stats)
    # One explicit process count warms the pool and shares the graph, so
    # the fresh model's second call finds no cold start and tries the
    # pool; the oracle then covers both backends under auto.
    with ParallelExecutor(
        backend="process", workers=workers, chunk_size=chunk
    ) as process:
        pooled_stats = MatchStats()
        pooled = count_matches(graph, pattern, executor=process, stats=pooled_stats)
    out = same_values(serial, pooled, "count[process]")
    out += same_stats(serial_stats, pooled_stats, "match_stats[process]")
    # A fresh model per case: the oracle must hold from the uncalibrated
    # first call onward, not depend on ambient session history.
    with ParallelExecutor(
        backend="auto", workers=workers, chunk_size=chunk, cost_model=CostModel(),
    ) as executor:
        for rep in range(int(params["repeats"])):
            auto_stats = MatchStats()
            auto = count_matches(
                graph, pattern, executor=executor, stats=auto_stats
            )
            out += same_values(serial, auto, f"count[{rep}]")
            out += same_stats(serial_stats, auto_stats, f"match_stats[{rep}]")
    return out


def _gen_spans(rng: np.random.Generator) -> Dict:
    return {
        "num_items": int(rng.integers(0, 200)),
        "chunk_size": int(rng.integers(1, 17)),
        "workers": int(rng.integers(1, 9)),
    }


@invariant(
    "parallel.chunking.spans_cover", "parallel", gen=_gen_spans,
    floors={"num_items": 0, "chunk_size": 1, "workers": 1},
    description="chunk_spans partitions range(num_items) exactly: "
    "contiguous, disjoint, in order, nothing dropped — the property "
    "both the executor and crash re-dispatch assume.",
)
def _check_spans(params: Dict) -> List[str]:
    num_items = int(params["num_items"])
    spans = chunk_spans(
        num_items,
        chunk_size=int(params["chunk_size"]),
        workers=int(params["workers"]),
    )
    out: List[str] = []
    cursor = 0
    for lo, hi in spans:
        if lo != cursor:
            out.append(f"spans: gap or overlap at {lo} (expected {cursor})")
            break
        if hi <= lo:
            out.append(f"spans: empty or inverted span ({lo}, {hi})")
            break
        cursor = hi
    if not out and cursor != num_items:
        out.append(f"spans: cover {cursor} of {num_items} items")
    return out
