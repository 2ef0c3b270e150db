"""Differential checks for the TLAV engine family.

The in-memory :class:`~repro.tlav.engine.PregelEngine` is the reference;
the vectorized, out-of-core and distributed engines each promise a
declared relation against it:

* vectorized (``*_dense``) — bit-identical (same float operations in
  the same order, just whole-frontier at a time);
* stored (on-disk shards paged through the shard cache, any budget
  including 0: re-page every superstep) — bit-identical (paging changes
  *where* state lives, never what is computed).  The random-walk pair
  descends from the one that flushed out the legacy out-of-core
  ``neighbors()``-returns-a-list contract violation;
* distributed — BFS/WCC bit-identical (min combiners are
  order-insensitive), PageRank bounded-error (per-worker combining
  re-associates float sums).

Plus the paging-accounting invariant (the successor of the retired
``tlav.ooc`` spill oracle): the shard cache's ledger must balance —
misses minus evictions equals residents, an unbounded budget pages each
shard exactly once, and a zero budget re-pages the structure every
superstep.

The incremental maintainers are checked at every epoch of a seeded
update stream: WCC and BFS bit-identical to a scratch solve, delta
PageRank bounded against an exact dense linear solve (not against a
second push run, which would share any push bug), and its residual
state against the invariant it maintains.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Callable, Dict, List

import numpy as np

from ..check.invariants import bounded_error, same_bits, same_values
from ..check.registry import BIT_IDENTICAL, BOUNDED_ERROR, invariant, pair
from ..check.workloads import gen_graph_params, make_graph
from ..graph.csr import Graph
from ..graph.partition import hash_partition, metis_like_partition
from ..graph.store import build_store, open_store
from .algorithms import (
    PageRankProgram,
    bfs,
    pagerank,
    random_walks,
    wcc,
)
from .distributed import run_distributed
from .engine import Aggregator, PregelEngine
from .vectorized import bfs_dense, pagerank_dense, wcc_dense


def _gen_graph(rng: np.random.Generator) -> Dict:
    return gen_graph_params(rng, n_range=(8, 80))


def _gen_pagerank(rng: np.random.Generator) -> Dict:
    params = _gen_graph(rng)
    params["iterations"] = int(rng.integers(1, 13))
    return params


def _gen_source(rng: np.random.Generator) -> Dict:
    params = _gen_graph(rng)
    params["source"] = int(rng.integers(1 << 16))
    return params


def _build_stored(graph, tmp: str, num_parts: int, cache_budget):
    """Write ``graph`` to a store directory and reopen it paging."""
    path = os.path.join(tmp, "store")
    build_store(graph, path, partition="hash", num_parts=max(1, num_parts))
    return open_store(path, cache_budget=cache_budget)


# ----------------------------------------------------------------------
# Engine vs vectorized
# ----------------------------------------------------------------------


@pair(
    "tlav.pagerank.engine_vs_dense", "tlav", BIT_IDENTICAL,
    gen=_gen_pagerank, floors={"n": 4, "iterations": 1},
)
def _check_pr_dense(params: Dict) -> List[str]:
    graph = make_graph(params)
    iters = int(params["iterations"])
    return same_bits(
        pagerank(graph, iterations=iters),
        pagerank_dense(graph, iterations=iters),
        "pagerank",
    )


@pair(
    "tlav.bfs.engine_vs_dense", "tlav", BIT_IDENTICAL,
    gen=_gen_source, floors={"n": 4, "source": 0},
)
def _check_bfs_dense(params: Dict) -> List[str]:
    graph = make_graph(params)
    source = int(params["source"]) % graph.num_vertices
    return same_bits(bfs(graph, source), bfs_dense(graph, source), "bfs")


@pair(
    "tlav.wcc.engine_vs_dense", "tlav", BIT_IDENTICAL,
    gen=_gen_graph, floors={"n": 4},
)
def _check_wcc_dense(params: Dict) -> List[str]:
    graph = make_graph(params)
    return same_bits(wcc(graph), wcc_dense(graph), "wcc")


# ----------------------------------------------------------------------
# Engine vs stored (on-disk shards paged through the shard cache)
# ----------------------------------------------------------------------


def _gen_stored(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 48))
    params["iterations"] = int(rng.integers(1, 9))
    params["num_parts"] = int(rng.integers(1, 5))
    # Deliberately tiny budgets (often 0): constant re-paging is the point.
    params["cache_budget"] = int(rng.integers(0, 3)) * 256
    return params


@pair(
    "tlav.pagerank.engine_vs_stored", "tlav", BIT_IDENTICAL,
    gen=_gen_stored,
    floors={"n": 4, "iterations": 1, "num_parts": 1, "cache_budget": 0},
    description="Running the engine over on-disk shards with any cache "
    "budget (including 0: every superstep re-pages the structure) is "
    "bit-identical to the in-memory engine.",
)
def _check_pr_stored(params: Dict) -> List[str]:
    graph = make_graph(params)
    iters = int(params["iterations"])
    with tempfile.TemporaryDirectory(prefix="check-stored-") as tmp:
        with _build_stored(
            graph, tmp, int(params["num_parts"]), int(params["cache_budget"])
        ) as stored:
            got = np.asarray(pagerank(stored, iterations=iters), dtype=np.float64)
    return same_bits(pagerank(graph, iterations=iters), got, "pagerank")


def _gen_walks(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(6, 32))
    params["walk_length"] = int(rng.integers(2, 7))
    params["walks_per_vertex"] = int(rng.integers(1, 3))
    params["walk_seed"] = int(rng.integers(1 << 16))
    params["num_parts"] = int(rng.integers(1, 4))
    return params


@pair(
    "tlav.random_walks.engine_vs_stored", "tlav", BIT_IDENTICAL,
    gen=_gen_walks,
    floors={"n": 4, "walk_length": 2, "walks_per_vertex": 1, "num_parts": 1},
    description="Random walks must not depend on where the adjacency "
    "lives — the paging handle must honor the ndarray ``neighbors()`` "
    "contract (the predecessor pair caught the legacy out-of-core "
    "context handing programs a plain list; zero-budget paging keeps "
    "that contract pinned).",
)
def _check_walks_stored(params: Dict) -> List[str]:
    graph = make_graph(params)
    length = int(params["walk_length"])
    per_vertex = int(params["walks_per_vertex"])
    seed = int(params.get("walk_seed", 0))
    reference = random_walks(
        graph, walk_length=length, walks_per_vertex=per_vertex, seed=seed
    )
    with tempfile.TemporaryDirectory(prefix="check-stored-") as tmp:
        with _build_stored(graph, tmp, int(params["num_parts"]), 0) as stored:
            got = random_walks(
                stored, walk_length=length, walks_per_vertex=per_vertex, seed=seed
            )
    return same_values(reference, got, "walks")


def _gen_paging(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 40))
    params["iterations"] = int(rng.integers(1, 6))
    params["num_parts"] = int(rng.integers(1, 5))
    return params


@invariant(
    "tlav.stored.paging_accounting", "tlav", gen=_gen_paging,
    floors={"n": 4, "iterations": 1, "num_parts": 1},
    description="Shard-cache I/O ledger under the engine (successor of "
    "the retired tlav.ooc spill oracle): misses minus evictions equal "
    "resident entries, an unbounded budget pages every touched shard "
    "exactly once (bytes_paged == resident bytes, no evictions), and a "
    "zero budget keeps at most one shard resident while re-paging at "
    "least one full structure pass per message-sending superstep (the "
    "halting superstep reads no adjacency).",
)
def _check_paging_accounting(params: Dict) -> List[str]:
    graph = make_graph(params)
    iters = int(params["iterations"])
    parts = int(params["num_parts"])
    out: List[str] = []

    def run_engine(stored):
        engine = PregelEngine(
            stored,
            PageRankProgram(0.85, iters),
            aggregators={
                "dangling": Aggregator(reduce=lambda a, b: a + b, initial=0.0)
            },
            max_supersteps=iters + 2,
        )
        engine.run()

    with tempfile.TemporaryDirectory(prefix="check-stored-") as tmp:
        with _build_stored(graph, tmp, parts, None) as unbounded:
            run_engine(unbounded)
            stats = unbounded.cache.stats
            if stats.misses - stats.evictions != len(unbounded.cache):
                out.append(
                    f"paging: ledger broken — {stats.misses} misses, "
                    f"{stats.evictions} evictions, "
                    f"{len(unbounded.cache)} residents"
                )
            if stats.evictions != 0:
                out.append(
                    f"paging: unbounded budget evicted {stats.evictions} shards"
                )
            if stats.bytes_paged != unbounded.cache.resident_bytes:
                out.append(
                    f"paging: unbounded budget paged {stats.bytes_paged} bytes "
                    f"but holds {unbounded.cache.resident_bytes}"
                )
            one_pass = stats.bytes_paged
        with _build_stored(graph, tmp + "-zero", parts, 0) as zero:
            run_engine(zero)
            stats = zero.cache.stats
            if stats.misses - stats.evictions != len(zero.cache):
                out.append(
                    f"paging: zero-budget ledger broken — {stats.misses} "
                    f"misses, {stats.evictions} evictions, "
                    f"{len(zero.cache)} residents"
                )
            if len(zero.cache) > 1:
                out.append(
                    f"paging: zero budget holds {len(zero.cache)} shards"
                )
            # PageRank sends along every edge in supersteps 1..iters and
            # halts in iters + 1 without reading adjacency.
            floor = iters * one_pass
            if stats.bytes_paged < floor:
                out.append(
                    f"paging: zero budget paged {stats.bytes_paged} bytes in "
                    f"{iters} message supersteps; expected >= {floor}"
                )
    return out


# ----------------------------------------------------------------------
# Engine vs distributed
# ----------------------------------------------------------------------


def _gen_distributed(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 64))
    params["num_parts"] = int(rng.integers(2, 6))
    params["part_seed"] = int(rng.integers(1 << 16))
    params["metis"] = int(rng.integers(2))
    params["source"] = int(rng.integers(1 << 16))
    params["iterations"] = int(rng.integers(1, 9))
    return params


def _partition_for(graph, params: Dict):
    parts = max(1, int(params["num_parts"]))
    seed = int(params.get("part_seed", 0))
    if int(params.get("metis", 0)):
        return metis_like_partition(graph, parts, seed=seed)
    return hash_partition(graph, parts, seed=seed)


@pair(
    "tlav.bfs.engine_vs_distributed", "tlav", BIT_IDENTICAL,
    gen=_gen_distributed,
    floors={"n": 4, "num_parts": 2, "source": 0, "metis": 0},
    description="BFS under per-worker min-combining is exact: min is "
    "associative/commutative/idempotent, so worker boundaries cannot "
    "change any level.",
)
def _check_bfs_distributed(params: Dict) -> List[str]:
    graph = make_graph(params)
    source = int(params["source"]) % graph.num_vertices
    from .algorithms import BFSProgram

    engine = PregelEngine(
        graph, BFSProgram(source), max_supersteps=graph.num_vertices + 1
    )
    reference = engine.run()
    values, _ = run_distributed(
        graph,
        BFSProgram(source),
        _partition_for(graph, params),
        max_supersteps=graph.num_vertices + 1,
    )
    return same_values(list(reference), list(values), "bfs")


@pair(
    "tlav.pagerank.engine_vs_distributed", "tlav", BOUNDED_ERROR,
    gen=_gen_distributed,
    floors={"n": 4, "num_parts": 2, "iterations": 1, "metis": 0},
    description="Distributed PageRank re-associates float sums at "
    "worker boundaries (combiners), so it is bounded-error (1e-12), "
    "never bit-identical.",
)
def _check_pr_distributed(params: Dict) -> List[str]:
    graph = make_graph(params)
    iters = int(params["iterations"])
    reference = pagerank(graph, iterations=iters)
    values, _ = run_distributed(
        graph,
        PageRankProgram(0.85, iters),
        _partition_for(graph, params),
        aggregators={
            "dangling": Aggregator(reduce=lambda a, b: a + b, initial=0.0)
        },
        max_supersteps=iters + 2,
    )
    return bounded_error(
        reference, np.asarray(values, dtype=np.float64), atol=1e-12,
        label="pagerank",
    )


# ----------------------------------------------------------------------
# Incremental maintainers vs from-scratch recompute (streaming updates)
# ----------------------------------------------------------------------


def _gen_incremental(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 64))
    params["batches"] = int(rng.integers(3, 9))
    params["update_seed"] = int(rng.integers(1 << 20))
    params["edge_frac"] = round(float(rng.uniform(0.005, 0.05)), 4)
    return params


def _gen_incremental_bfs(rng: np.random.Generator) -> Dict:
    params = _gen_incremental(rng)
    params["source"] = int(rng.integers(1 << 16))
    return params


def _incremental_epochs(params: Dict, make: Callable[[Graph], Any]):
    """Drive ``make(initial graph)`` through the seeded update stream.

    Yields ``(epoch, maintainer, graph)`` after each batch, where
    ``graph`` is the snapshot rebuilt independently of the maintainer.
    """
    from ..graph.delta import apply_edge_updates, random_edge_updates

    graph = make_graph(params)
    batches = random_edge_updates(
        graph,
        max(1, int(params["batches"])),
        edge_fraction=max(1e-4, float(params.get("edge_frac", 0.01))),
        seed=int(params.get("update_seed", 0)),
    )
    maintainer = make(graph)
    for epoch, (ins, dels) in enumerate(batches, start=1):
        maintainer.apply(ins, dels)
        graph, _ = apply_edge_updates(graph, inserts=ins, deletes=dels)
        yield epoch, maintainer, graph


def _damped_transition(graph: Graph, damping: float) -> np.ndarray:
    """Dense ``damping · Aᵀ D⁻¹``: column ``u`` spreads ``damping/deg(u)``
    over ``u``'s out-neighbors (a dangling column is zero)."""
    n = graph.num_vertices
    deg = graph.degrees()
    src = np.repeat(np.arange(n), deg)
    matrix = np.zeros((n, n))
    np.add.at(matrix, (graph.indices, src), damping / deg[src])
    return matrix


def exact_pagerank(graph: Graph, damping: float = 0.85) -> np.ndarray:
    """Normalized exact solve of ``(I − d·AᵀD⁻¹) p = (1 − d)/n``.

    The fixed point :class:`~repro.tlav.incremental.IncrementalPageRank`
    pushes toward (dangling vertices leak); a dense linear solve, so
    only for small graphs.
    """
    n = graph.num_vertices
    p = np.linalg.solve(
        np.eye(n) - _damped_transition(graph, damping),
        np.full(n, (1.0 - damping) / n),
    )
    return p / p.sum()


def pagerank_residual_violations(maintainer: Any, graph: Graph,
                                 label: str) -> List[str]:
    """``max|r| ≤ tol`` and ``r = b + d·AᵀD⁻¹p − p`` to 1e-12 on ``graph``."""
    n = graph.num_vertices
    p, r, tol = maintainer.p, maintainer.r, maintainer.tol
    violations = []
    residual = float(np.abs(r).max(initial=0.0))
    if residual > tol:
        violations.append(f"{label}: max|r| {residual:.3g} > tol {tol:.3g}")
    expected = (
        (1.0 - maintainer.damping) / max(n, 1)
        + _damped_transition(graph, maintainer.damping) @ p - p
    )
    violations += bounded_error(expected, r, atol=1e-12,
                                label=f"{label}.invariant")
    return violations


@pair(
    "tlav.incremental.pagerank_vs_scratch", "tlav", BOUNDED_ERROR,
    gen=_gen_incremental,
    floors={"n": 4, "batches": 1, "update_seed": 0, "edge_frac": 0.005},
    description="Delta PageRank (residual retract/grant for touched "
    "vertices, synchronous push sweeps to tol) stays within the push "
    "tolerance's O(n*tol/(1-d)^2) bound of an exact dense linear solve "
    "at every epoch.",
)
def _check_incremental_pagerank(params: Dict) -> List[str]:
    from .incremental import IncrementalPageRank

    violations: List[str] = []
    for epoch, maintainer, graph in _incremental_epochs(
        params, lambda g: IncrementalPageRank(g, tol=1e-10)
    ):
        violations += bounded_error(
            exact_pagerank(graph), maintainer.scores(), atol=1e-6,
            label=f"pagerank@epoch{epoch}",
        )
    return violations


@invariant(
    "tlav.incremental.pagerank_residual", "tlav",
    gen=_gen_incremental,
    floors={"n": 4, "batches": 1, "update_seed": 0, "edge_frac": 0.005},
    description="After every batch the delta PageRank state keeps its "
    "contract: every |r_v| <= tol, and r equals b + d*A^T D^-1 p - p "
    "(to 1e-12) on the independently rebuilt snapshot.",
)
def _check_incremental_pagerank_residual(params: Dict) -> List[str]:
    from .incremental import IncrementalPageRank

    violations: List[str] = []
    for epoch, maintainer, graph in _incremental_epochs(
        params, lambda g: IncrementalPageRank(g, tol=1e-10)
    ):
        violations += pagerank_residual_violations(
            maintainer, graph, f"pagerank@epoch{epoch}"
        )
    return violations


@pair(
    "tlav.incremental.wcc_vs_scratch", "tlav", BIT_IDENTICAL,
    gen=_gen_incremental,
    floors={"n": 4, "batches": 1, "update_seed": 0, "edge_frac": 0.005},
    description="Incremental WCC (eager union on insert, affected-"
    "component re-exploration on delete) lands on the same min-vertex-id "
    "labels as a scratch solve at every epoch.",
)
def _check_incremental_wcc(params: Dict) -> List[str]:
    from .incremental import IncrementalWCC

    violations: List[str] = []
    for epoch, maintainer, graph in _incremental_epochs(params, IncrementalWCC):
        violations += same_bits(
            wcc(graph), maintainer.labels, f"wcc@epoch{epoch}"
        )
    return violations


@pair(
    "tlav.incremental.bfs_vs_scratch", "tlav", BIT_IDENTICAL,
    gen=_gen_incremental_bfs,
    floors={"n": 4, "batches": 1, "update_seed": 0, "edge_frac": 0.005,
            "source": 0},
    description="Incremental BFS (invalidation closure on delete, "
    "decrease-only relaxation on insert) reproduces scratch levels "
    "bit-for-bit at every epoch; levels are integers, so any repair "
    "mistake is a hard mismatch.",
)
def _check_incremental_bfs(params: Dict) -> List[str]:
    from .incremental import IncrementalBFS

    violations: List[str] = []
    for epoch, maintainer, graph in _incremental_epochs(
        params,
        lambda g: IncrementalBFS(g, int(params["source"]) % g.num_vertices),
    ):
        violations += same_bits(
            bfs(graph, maintainer.source), maintainer.levels,
            f"bfs@epoch{epoch}",
        )
    return violations
