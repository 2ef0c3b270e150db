"""Differential checks for the GNN training systems.

Quantization is the canonical *bounded-error* pair (the reconstruction
must stay within half a quantization step of the input), and the
feature caches are checked against an independent trace simulation —
the check that flushed out the cache accounting bug: ``replay`` counted
hits externally while the cache kept no books of its own, so nothing
tied ``CacheReport.bytes_saved`` to what the cache actually admitted
and evicted.

The per-vertex samplers (:func:`reference_sample_neighbors`,
:func:`reference_layerwise_sample`) are the loops ``gnn.sampling`` ran
before it became array code over ``expand_frontier``; they live here as
the reference side of ``gnn.sampling.batched_vs_reference`` only.
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..check.invariants import bounded_error, csr_well_formed, same_bits, same_values
from ..check.registry import BIT_IDENTICAL, BOUNDED_ERROR, pair
from ..check.workloads import gen_graph_params, make_graph
from ..graph.csr import Graph, GraphBuilder
from .caching import LRUCache, StaticDegreeCache, replay
from .quantization import quantize, quantize_dequantize
from .sampling import Block, layerwise_sample, sample_neighbors


def _gen_quantize(rng: np.random.Generator) -> Dict:
    return {
        "rows": int(rng.integers(1, 33)),
        "cols": int(rng.integers(1, 65)),
        "bits": int(rng.integers(2, 9)),
        "value_seed": int(rng.integers(1 << 16)),
        "stochastic": int(rng.integers(2)),
    }


@pair(
    "gnn.quantize.roundtrip_bounded", "gnn", BOUNDED_ERROR,
    gen=_gen_quantize,
    floors={"rows": 1, "cols": 1, "bits": 2, "stochastic": 0},
    description="quantize -> dequantize stays within one quantization "
    "step of the input (half a step for round-to-nearest), for any "
    "shape, bit width, and rounding mode.",
)
def _check_quantize(params: Dict) -> List[str]:
    rng = np.random.default_rng(int(params["value_seed"]))
    values = rng.normal(
        size=(int(params["rows"]), int(params["cols"]))
    ) * rng.uniform(0.1, 10.0)
    bits = int(params["bits"])
    _, _, scale = quantize(values, bits)
    step = float(np.max(scale))
    if int(params.get("stochastic", 0)):
        round_rng = np.random.default_rng(int(params["value_seed"]) + 1)
        restored = quantize_dequantize(values, bits, rng=round_rng)
        atol = step + 1e-12
    else:
        restored = quantize_dequantize(values, bits)
        atol = step / 2.0 + 1e-12
    return bounded_error(values, restored, atol=atol, label="roundtrip")


def _sim_lru(trace, capacity: int) -> Dict[str, int]:
    """Independent LRU simulation (OrderedDict reimplementation)."""
    entries: "OrderedDict[int, bool]" = OrderedDict()
    hits = misses = admissions = evictions = 0
    for v in trace:
        if capacity <= 0:
            misses += 1
            continue
        if v in entries:
            entries.move_to_end(v)
            hits += 1
        else:
            misses += 1
            admissions += 1
            entries[v] = True
            if len(entries) > capacity:
                entries.popitem(last=False)
                evictions += 1
    return {
        "hits": hits,
        "misses": misses,
        "admissions": admissions,
        "evictions": evictions,
    }


def _zipfish_trace(rng: np.random.Generator, n: int, length: int):
    """Skewed trace: mostly a hot head, with a uniform tail."""
    hot = max(1, n // 8)
    heads = rng.integers(0, hot, size=length)
    tails = rng.integers(0, n, size=length)
    pick_hot = rng.random(length) < 0.7
    return [int(h if p else t) for h, t, p in zip(heads, tails, pick_hot)]


def _gen_lru(rng: np.random.Generator) -> Dict:
    n = int(rng.integers(16, 257))
    return {
        "n": n,
        "capacity": int(rng.integers(1, max(2, n // 2))),
        "trace_len": int(rng.integers(64, 2049)),
        "trace_seed": int(rng.integers(1 << 16)),
        "feature_dim": int(rng.integers(1, 129)),
    }


@pair(
    "gnn.cache.lru_vs_trace_sim", "gnn", BIT_IDENTICAL,
    gen=_gen_lru,
    floors={"n": 2, "capacity": 1, "trace_len": 1, "feature_dim": 1},
    description="LRUCache replay vs an independent OrderedDict "
    "simulation: identical hits, and the cache's own accounting "
    "(hits/misses/admissions/evictions) must agree with both the "
    "simulation and CacheReport.bytes_saved.",
)
def _check_lru(params: Dict) -> List[str]:
    rng = np.random.default_rng(int(params["trace_seed"]))
    trace = _zipfish_trace(rng, int(params["n"]), int(params["trace_len"]))
    capacity = int(params["capacity"])
    feature_dim = int(params["feature_dim"])
    expected = _sim_lru(trace, capacity)
    cache = LRUCache(capacity)
    report = replay(trace, cache, feature_dim=feature_dim)
    out = same_values(expected["hits"], report.hits, "report.hits")
    stats = cache.stats  # the cache must keep its own books
    for key in ("hits", "misses", "admissions", "evictions"):
        out += same_values(expected[key], getattr(stats, key), f"cache.{key}")
    out += same_values(
        expected["hits"] * feature_dim * report.bytes_per_value,
        report.bytes_saved,
        "report.bytes_saved",
    )
    out += same_values(
        stats.hits * feature_dim * report.bytes_per_value,
        report.bytes_saved,
        "cache_vs_report.bytes_saved",
    )
    return out


def _gen_uniform(rng: np.random.Generator) -> Dict:
    n = int(rng.integers(32, 129))
    return {
        "n": n,
        "degree": 3,
        "capacity": int(rng.integers(4, max(5, n // 2))),
        "trace_len": int(rng.integers(4000, 8001)),
        "trace_seed": int(rng.integers(1 << 16)),
        "graph_seed": int(rng.integers(1 << 16)),
    }


@pair(
    "gnn.cache.static_vs_lru_uniform", "gnn", BOUNDED_ERROR,
    gen=_gen_uniform,
    floors={"n": 8, "capacity": 1, "trace_len": 500},
    description="On a uniform access trace neither recency nor degree "
    "carries signal, so StaticDegreeCache and LRUCache hit rates must "
    "both converge to capacity/n.",
)
def _check_static_vs_lru(params: Dict) -> List[str]:
    from ..graph.generators import erdos_renyi

    n = int(params["n"])
    capacity = int(params["capacity"])
    rng = np.random.default_rng(int(params["trace_seed"]))
    trace = [int(v) for v in rng.integers(0, n, size=int(params["trace_len"]))]
    graph = erdos_renyi(n, 0.1, seed=int(params.get("graph_seed", 0)))
    static = replay(trace, StaticDegreeCache(graph, capacity))
    lru = replay(trace, LRUCache(capacity))
    expected = capacity / n
    # 4000+ samples of a Bernoulli(c/n): 0.06 is many standard errors.
    out = bounded_error(
        [expected], [static.hit_rate], atol=0.06, label="static.hit_rate"
    )
    out += bounded_error(
        [expected], [lru.hit_rate], atol=0.06, label="lru.hit_rate"
    )
    out += bounded_error(
        [static.hit_rate], [lru.hit_rate], atol=0.08, label="static_vs_lru"
    )
    return out


def _gen_minibatch_loss(rng: np.random.Generator) -> Dict:
    return {
        "community_size": int(rng.integers(8, 21)),
        "batch_size": int(rng.integers(8, 33)),
        "graph_seed": int(rng.integers(1 << 16)),
        "model_seed": int(rng.integers(1 << 16)),
        "loader_seed": int(rng.integers(1 << 16)),
    }


@pair(
    "gnn.minibatch.loss_vs_fullgraph", "gnn", BOUNDED_ERROR,
    gen=_gen_minibatch_loss,
    floors={"community_size": 4, "batch_size": 1},
    description="batch-weighted mini-batch seed loss approaches the "
    "full-graph masked loss as fanout grows; at full fanout a SAGE "
    "model's seed logits are exact (blocks carry the seeds' complete "
    "1-hop aggregation neighborhoods), so the gap collapses to fp "
    "noise.",
)
def _check_minibatch_loss(params: Dict) -> List[str]:
    from ..graph.generators import planted_partition
    from .dataloader import MiniBatchLoader
    from .layers import GraphTensors
    from .models import NodeClassifier
    from .tensor import Tensor, no_grad

    cs = int(params["community_size"])
    graph, labels = planted_partition(
        3, cs, p_in=0.3, p_out=0.05, seed=int(params["graph_seed"])
    )
    n = graph.num_vertices
    rng = np.random.default_rng(int(params["graph_seed"]) + 1)
    features = np.eye(3)[labels] + rng.normal(0, 1.0, size=(n, 3))
    model = NodeClassifier(3, 8, 3, layer="sage", seed=int(params["model_seed"]))
    nodes = np.arange(n, dtype=np.int64)
    with no_grad():
        full_logits = model(GraphTensors(graph), Tensor(features))
        full_loss = float(
            full_logits.gather_rows(nodes).cross_entropy(labels).data
        )

    def minibatch_loss(fanout: int) -> float:
        loader = MiniBatchLoader(
            graph,
            items=nodes,
            batch_size=int(params["batch_size"]),
            fanouts=(fanout, fanout),
            features=features,
            seed=int(params["loader_seed"]),
        )
        total = 0.0
        count = 0
        with no_grad():
            for mb in loader.epoch():
                logits = model(mb.gt, Tensor(mb.x))
                seed_logits = logits.gather_rows(mb.seed_local)
                seed_labels = labels[mb.node_ids[mb.seed_local]]
                loss = float(seed_logits.cross_entropy(seed_labels).data)
                total += loss * mb.seed_local.size
                count += int(mb.seed_local.size)
        return total / count

    gap_small = abs(minibatch_loss(1) - full_loss)
    gap_full = abs(minibatch_loss(-1) - full_loss)
    out = bounded_error(
        [0.0], [gap_full], atol=1e-8, label="full_fanout_gap"
    )
    out += bounded_error(
        [gap_full], [min(gap_full, gap_small + 1e-8)],
        atol=1e-12, label="gap_monotone",
    )
    return out


# ----------------------------------------------------------------------
# Batched samplers vs the per-vertex reference
# ----------------------------------------------------------------------


def _reference_block(
    graph: Graph,
    seeds: Sequence[int],
    keep_nodes: List[int],
    edges: List[Tuple[int, int]],
) -> Block:
    node_ids = np.asarray(keep_nodes, dtype=np.int64)
    remap = {int(g): l for l, g in enumerate(node_ids)}
    builder = GraphBuilder(directed=False)
    builder.add_vertex(node_ids.size - 1)
    for u, v in edges:
        builder.add_edge(remap[u], remap[v])
    labels = None
    if graph.vertex_labels is not None:
        labels = graph.vertex_labels[node_ids]
    block_graph = builder.build(num_vertices=node_ids.size, vertex_labels=labels)
    seed_local = np.asarray([remap[int(s)] for s in seeds], dtype=np.int64)
    return Block(graph=block_graph, node_ids=node_ids, seed_local=seed_local)


def reference_sample_neighbors(
    graph: Graph,
    seeds: Sequence[int],
    fanouts: Sequence[int],
    rng: Optional[np.random.Generator] = None,
) -> Block:
    """Per-vertex fanout sampling: one ``rng.choice`` per oversized vertex.

    Same contract as :func:`~repro.gnn.sampling.sample_neighbors`, and
    the same block bit for bit whenever no draw happens (``fanout = -1``
    or nothing exceeds the fanout); with draws the RNG is consumed per
    vertex, so only the distribution agrees.
    """
    rng = rng or np.random.default_rng()
    seeds = [int(s) for s in seeds]
    keep_nodes = list(dict.fromkeys(seeds))
    known = set(keep_nodes)
    frontier = list(keep_nodes)
    edges: List[Tuple[int, int]] = []
    for fanout in fanouts:
        next_frontier: List[int] = []
        for v in frontier:
            nbrs = graph.neighbors(v)
            if fanout >= 0 and nbrs.size > fanout:
                picked = rng.choice(nbrs, size=fanout, replace=False)
            else:
                picked = nbrs
            for w in picked:
                w = int(w)
                edges.append((v, w))
                if w not in known:
                    known.add(w)
                    keep_nodes.append(w)
                    next_frontier.append(w)
        frontier = next_frontier
    return _reference_block(graph, seeds, keep_nodes, edges)


def reference_layerwise_sample(
    graph: Graph,
    seeds: Sequence[int],
    nodes_per_layer: Sequence[int],
    rng: Optional[np.random.Generator] = None,
) -> Block:
    """Per-vertex layer-wise sampling; one ``rng.choice`` per layer, the
    stream of :func:`~repro.gnn.sampling.layerwise_sample`."""
    rng = rng or np.random.default_rng()
    seeds = [int(s) for s in seeds]
    keep_nodes = list(dict.fromkeys(seeds))
    known = set(keep_nodes)
    layer: List[int] = list(keep_nodes)
    edges: List[Tuple[int, int]] = []
    for budget in nodes_per_layer:
        pool: List[int] = []
        for v in layer:
            pool.extend(int(w) for w in graph.neighbors(v))
        if not pool:
            layer = []
            continue
        unique_pool = np.unique(np.asarray(pool, dtype=np.int64))
        weights = np.asarray(
            [graph.degree(int(v)) for v in unique_pool], dtype=np.float64
        )
        weights = weights / weights.sum()
        take = min(budget, unique_pool.size)
        chosen = rng.choice(unique_pool, size=take, replace=False, p=weights)
        chosen_set = set(int(v) for v in chosen)
        for v in layer:
            for w in graph.neighbors(v):
                if int(w) in chosen_set:
                    edges.append((v, int(w)))
        layer = [int(v) for v in chosen]
        for v in layer:
            if v not in known:
                known.add(v)
                keep_nodes.append(v)
    return _reference_block(graph, seeds, keep_nodes, edges)


def same_block(reference: Block, candidate: Block, label: str = "block") -> List[str]:
    """Bit-identical blocks: ids, CSR arrays and seed positions."""
    out = same_bits(reference.node_ids, candidate.node_ids, f"{label}.node_ids")
    out += same_bits(reference.graph.indptr, candidate.graph.indptr, f"{label}.indptr")
    out += same_bits(reference.graph.indices, candidate.graph.indices, f"{label}.indices")
    out += same_bits(reference.seed_local, candidate.seed_local, f"{label}.seed_local")
    return out


def sampled_block_violations(
    graph: Graph, seeds: Sequence[int], fanouts: Sequence[int], seed: int
) -> List[str]:
    """What every fanout-sampled block of an undirected graph must satisfy.

    Samples ``seeds`` at every prefix of ``fanouts`` from a generator
    seeded with ``seed`` (hop ``k`` of each prefix sees the same draw, so
    prefix ``k`` is exactly the vertex set the full sample expands at
    hop ``k``) and checks: distinct ``node_ids`` led by the
    first-occurrence-unique seeds; ``seed_local`` one entry per input
    seed; a well-formed, symmetric, loop-free block whose every edge is
    a parent edge; each prefix's ids a prefix of the next; a vertex
    expanded at a hop whose fanout covers its degree keeps its whole
    neighborhood; ``gathered_nodes <= sum_k |seeds| prod fanouts[:k]``.
    """
    seeds = np.asarray(list(seeds), dtype=np.int64)
    fanouts = list(fanouts)
    prefixes = [
        sample_neighbors(graph, seeds, fanouts[:k], rng=np.random.default_rng(seed))
        for k in range(len(fanouts) + 1)
    ]
    block = prefixes[-1]
    ids = block.node_ids
    out: List[str] = []
    if np.unique(ids).size != ids.size:
        out.append("node_ids repeats a vertex")
    distinct_seeds = np.asarray(list(dict.fromkeys(seeds.tolist())), dtype=np.int64)
    out += same_bits(distinct_seeds, ids[: distinct_seeds.size], "leading node_ids")
    out += same_bits(seeds, ids[block.seed_local], "node_ids[seed_local]")
    out += csr_well_formed(block.graph, "block")
    if out:
        return out
    rows = np.repeat(np.arange(ids.size), np.diff(block.graph.indptr))
    cols = block.graph.indices
    if np.any(rows == cols):
        out.append("block has a self-loop")
    for u, v in zip(ids[rows].tolist(), ids[cols].tolist()):
        if not graph.has_edge(u, v):
            out.append(f"block edge ({u}, {v}) is not a parent edge")
            break
    done = 0
    for hop, (fanout, prefix) in enumerate(zip(fanouts, prefixes)):
        out += same_bits(prefix.node_ids, ids[: prefix.node_ids.size], f"prefix {hop}")
        for local in range(done, prefix.node_ids.size):
            v = int(ids[local])
            if 0 <= fanout < graph.degree(v):
                continue
            kept = ids[block.graph.neighbors(local)]
            if not np.array_equal(np.sort(kept), graph.neighbors(v)):
                out.append(
                    f"vertex {v} (degree {graph.degree(v)}, hop {hop}, fanout "
                    f"{fanout}) lost neighbors: kept {kept.tolist()}"
                )
        done = prefix.node_ids.size
    if all(f >= 0 for f in fanouts):
        bound = int(seeds.size * np.cumprod([1] + fanouts).sum())
        if block.gathered_nodes > bound:
            out.append(f"gathered_nodes {block.gathered_nodes} exceeds bound {bound}")
    return out


def _gen_sampling(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 72))
    params["num_seeds"] = int(rng.integers(1, 9))
    params["fanout"] = int(rng.integers(1, 5))
    params["hops"] = int(rng.integers(1, 4))
    params["num_parts"] = int(rng.integers(2, 5))
    params["sample_seed"] = int(rng.integers(1 << 16))
    return params


@pair(
    "gnn.sampling.batched_vs_reference", "gnn", BIT_IDENTICAL,
    gen=_gen_sampling,
    floors={"n": 4, "num_seeds": 1, "fanout": 1, "hops": 1, "num_parts": 1},
    description="the batched expand_frontier samplers vs the per-vertex "
    "loops: bit-identical blocks at full fanout and for "
    "layerwise_sample (same rng.choice per layer); at finite fanout the "
    "block invariants (unique ids led by the seeds, parent edges only, "
    "full neighborhoods under the fanout, bounded size) and the same "
    "block bit for bit through a hash-partitioned store paged at half "
    "its shard bytes.",
)
def _check_sampling(params: Dict) -> List[str]:
    from ..graph.store import build_store, open_store

    graph = make_graph(params)
    seed = int(params["sample_seed"])
    hops = max(1, int(params["hops"]))
    fanout = max(1, int(params["fanout"]))
    # Seeds drawn with replacement: duplicates are part of the contract.
    seeds = np.random.default_rng(seed).integers(
        graph.num_vertices, size=max(1, int(params["num_seeds"]))
    )
    out = same_block(
        reference_sample_neighbors(graph, seeds, [-1] * hops),
        sample_neighbors(graph, seeds, [-1] * hops),
        "full_fanout",
    )
    budgets = [2 * fanout] * hops
    out += same_block(
        reference_layerwise_sample(graph, seeds, budgets, np.random.default_rng(seed)),
        layerwise_sample(graph, seeds, budgets, np.random.default_rng(seed)),
        "layerwise",
    )
    fanouts = [fanout] * hops
    out += sampled_block_violations(graph, seeds, fanouts, seed)
    want = sample_neighbors(graph, seeds, fanouts, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory(prefix="check-sampling-") as tmp:
        root = os.path.join(tmp, "g")
        manifest = build_store(
            graph, root, partition="hash",
            num_parts=max(1, int(params["num_parts"])),
        )
        stored = open_store(root, cache_budget=max(1, manifest.shard_bytes // 2))
        try:
            got = sample_neighbors(stored, seeds, fanouts, np.random.default_rng(seed))
        finally:
            stored.close()
    out += same_block(want, got, "stored_vs_memory")
    return out


def _gen_loader_cache(rng: np.random.Generator) -> Dict:
    n = int(rng.integers(40, 121))
    return {
        "n": n,
        "capacity": int(rng.integers(4, max(5, n // 2))),
        "batch_size": int(rng.integers(8, 33)),
        "fanout": int(rng.integers(1, 4)),
        "epochs": int(rng.integers(1, 3)),
        "seed": int(rng.integers(1 << 16)),
    }


@pair(
    "gnn.loader.cache_accounting", "gnn", BIT_IDENTICAL,
    gen=_gen_loader_cache,
    floors={"n": 8, "capacity": 1, "batch_size": 1, "fanout": 1, "epochs": 1},
    description="the loader's FeatureFetcher cache accounting must "
    "agree bit-for-bit with the cache's own books, an independent LRU "
    "simulation of the emitted block trace, a fresh-cache replay, and "
    "the gnn.loader.* / gnn.cache.* obs counters.",
)
def _check_loader_cache(params: Dict) -> List[str]:
    from ..graph.generators import barabasi_albert
    from ..obs import MetricsRegistry
    from .dataloader import MiniBatchLoader

    n = int(params["n"])
    capacity = int(params["capacity"])
    seed = int(params["seed"])
    graph = barabasi_albert(n, 3, seed=seed)
    features = np.random.default_rng(seed + 1).normal(size=(n, 4))
    obs = MetricsRegistry()
    cache = LRUCache(capacity, obs=obs)
    loader = MiniBatchLoader(
        graph,
        items=np.arange(n, dtype=np.int64),
        batch_size=int(params["batch_size"]),
        fanouts=(int(params["fanout"]), int(params["fanout"])),
        features=features,
        seed=seed,
        cache=cache,
        obs=obs,
    )
    trace: List[int] = []
    gathered = 0
    for _ in range(int(params["epochs"])):
        for mb in loader.epoch():
            trace.extend(int(v) for v in mb.node_ids)
            gathered += mb.gathered_nodes
    stats = cache.stats
    sim = _sim_lru(trace, capacity)
    fresh_report = replay(trace, LRUCache(capacity), feature_dim=4)
    out = same_values(sim["hits"], stats.hits, "sim.hits")
    for key in ("misses", "admissions", "evictions"):
        out += same_values(sim[key], getattr(stats, key), f"sim.{key}")
    out += same_values(fresh_report.hits, stats.hits, "replay.hits")
    out += same_values(loader.fetcher.hits, stats.hits, "fetcher.hits")
    out += same_values(loader.fetcher.misses, stats.misses, "fetcher.misses")
    out += same_values(gathered, stats.accesses, "accesses_vs_gathered")
    out += same_values(
        stats.hits,
        int(obs.counter("gnn.loader.cache_hits").total),
        "obs.loader.cache_hits",
    )
    out += same_values(
        stats.misses,
        int(obs.counter("gnn.loader.cache_misses").total),
        "obs.loader.cache_misses",
    )
    out += same_values(
        stats.hits,
        int(obs.counter("gnn.cache.hits").value(cache="lru")),
        "obs.cache.hits",
    )
    row_bytes = features.shape[1] * features.dtype.itemsize
    out += same_values(
        stats.misses * row_bytes,
        int(obs.counter("gnn.loader.bytes_fetched").total),
        "obs.loader.bytes_fetched",
    )
    return out


def _gen_aggregation(rng: np.random.Generator) -> Dict:
    return {
        "rows": int(rng.integers(0, 41)),
        "buckets": int(rng.integers(1, 13)),
        "width": int(rng.integers(0, 6)),
        "ndim": int(rng.integers(1, 4)),
        "sorted": int(rng.integers(2)),
        "value_seed": int(rng.integers(1 << 16)),
    }


def _float_bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _tape_program(feats, scale, divisor, src, dst, p, w, full_tape: bool):
    """Loss and parameter gradients of a two-hop aggregation program
    whose first hop reads only constants.  ``full_tape`` marks every
    constant as requiring grad, so nothing is pruned from the tape."""
    from .tensor import Parameter, Tensor

    n = feats.shape[0]
    x = Tensor(feats, requires_grad=full_tape)
    params = Parameter(p), Parameter(w)
    const = (x.gather_rows(src) * Tensor(scale, requires_grad=full_tape)).scatter_add(dst, n)
    h = (const * params[0] + x) / (Tensor(divisor, requires_grad=full_tape) + 2.0)
    h = h.gather_rows(src).scatter_add(dst, n).reshape(n, w.shape[0]) @ params[1]
    loss = (h * h).sum()
    loss.backward()
    return const, loss, params


@pair(
    "gnn.tensor.aggregation_vs_add_at", "gnn", BIT_IDENTICAL,
    gen=_gen_aggregation,
    floors={"rows": 0, "buckets": 1, "width": 0, "ndim": 1, "sorted": 0},
    description="the per-column np.bincount scatter behind scatter_add "
    "and gather_rows' backward vs np.add.at into zeroed rows, and the "
    "live-tape parameter gradients vs the full tape (every constant "
    "marked as requiring grad): the same bits for 1-D, 2-D and 3-D "
    "values, duplicate, unsorted and empty indices, empty buckets and "
    "zero-width rows.",
)
def _check_aggregation(params: Dict) -> List[str]:
    from .tensor import Parameter, Tensor, _scatter_rows

    rows, n = int(params["rows"]), max(1, int(params["buckets"]))
    width, ndim = int(params["width"]), min(max(int(params["ndim"]), 1), 3)
    trailing = ((), (width,), (2, width))[ndim - 1]
    rng = np.random.default_rng(int(params["value_seed"]))
    # Magnitudes across twelve decades make every reordering visible.
    values = rng.normal(size=(rows,) + trailing) * 10.0 ** rng.integers(
        -6, 7, size=(rows,) + trailing
    )
    index = rng.integers(0, n, size=rows)
    if int(params["sorted"]):
        index = np.sort(index)
    want = np.zeros((n,) + trailing)
    np.add.at(want, index, values)
    out = same_bits(_float_bits(want), _float_bits(_scatter_rows(index, values, n)),
                    "_scatter_rows")
    out += same_bits(
        _float_bits(want), _float_bits(Tensor(values).scatter_add(index, n).data),
        "scatter_add",
    )
    leaf = Parameter(rng.normal(size=(n,) + trailing))
    leaf.gather_rows(index).backward(values)
    out += same_bits(_float_bits(want), _float_bits(leaf.grad), "gather_rows.grad")

    program = (
        rng.normal(size=(n,) + trailing),
        rng.normal(size=(rows,) + (1,) * len(trailing)),
        np.abs(rng.normal(size=(n,) + trailing)),
        index,
        rng.integers(0, n, size=rows),
        rng.normal(size=trailing),
        rng.normal(size=(int(np.prod(trailing)), 2)),
    )
    _, full_loss, full_params = _tape_program(*program, full_tape=True)
    const, live_loss, live_params = _tape_program(*program, full_tape=False)
    if const._parents or const._backward is not None:
        out.append("an aggregation over constants recorded a tape")
    out += same_bits(_float_bits(full_loss.data), _float_bits(live_loss.data), "loss")
    for name, ref, got in zip(("p", "w"), full_params, live_params):
        if ref.grad is None or got.grad is None:
            out.append(f"{name}.grad missing (full tape {ref.grad is not None}, "
                       f"live tape {got.grad is not None})")
        else:
            out += same_bits(_float_bits(ref.grad), _float_bits(got.grad),
                             f"{name}.grad")
    return out


def _gen_fullgraph_variants(rng: np.random.Generator) -> Dict:
    return {
        "community_size": int(rng.integers(6, 17)),
        "parts": int(rng.integers(2, 6)),
        "epochs": int(rng.integers(2, 7)),
        "graph_seed": int(rng.integers(1 << 16)),
        "model_seed": int(rng.integers(1 << 16)),
    }


@pair(
    "gnn.fullgraph.variants_vs_sync", "gnn", BIT_IDENTICAL,
    gen=_gen_fullgraph_variants,
    floors={"community_size": 4, "parts": 1, "epochs": 1},
    description="every full-graph trainer variant at its neutral setting "
    "(staleness=0, drift_threshold=0, refresh_every=1, bits=None, no "
    "halo/grad quantization) is train_full_graph's loop with a step "
    "that degenerates to the synchronous one: identical losses, "
    "accuracies and step accounting.",
)
def _check_fullgraph_variants(params: Dict) -> List[str]:
    from ..graph.generators import planted_partition
    from ..graph.partition import hash_partition
    from .activation_compression import train_compressed
    from .distributed import DistributedTrainer
    from .historical import train_historical
    from .models import NodeClassifier
    from .staleness import train_delayed_halo, train_stale_gradients
    from .train import train_full_graph

    graph, labels = planted_partition(
        3, int(params["community_size"]), p_in=0.3, p_out=0.05,
        seed=int(params["graph_seed"]),
    )
    n = graph.num_vertices
    rng = np.random.default_rng(int(params["graph_seed"]) + 1)
    features = np.eye(3)[labels] + rng.normal(0, 1.0, size=(n, 3))
    train_mask = rng.random(n) < 0.5
    train_mask[0] = True
    partition = hash_partition(graph, int(params["parts"]))
    run = {"epochs": int(params["epochs"]), "lr": 0.05}

    def model() -> NodeClassifier:
        return NodeClassifier(3, 8, 3, seed=int(params["model_seed"]))

    data = (features, labels, train_mask, ~train_mask)
    reference = train_full_graph(
        model(), graph, features=features, labels=labels,
        train_mask=train_mask, val_mask=~train_mask, **run,
    )
    variants = {
        "distributed": DistributedTrainer(
            model(), graph, partition, features, labels, lr=run["lr"]
        ).train(train_mask, ~train_mask, epochs=run["epochs"]),
        "stale_gradients": train_stale_gradients(
            model(), graph, *data, staleness=0, **run
        ),
        "historical": train_historical(
            model(), graph, partition, *data, drift_threshold=0.0, **run
        ).report,
        "delayed_halo": train_delayed_halo(
            model(), graph, partition, *data, refresh_every=1, **run
        )[0],
        "compressed": train_compressed(
            model(), graph, *data, bits=None, **run
        ).report,
    }
    out: List[str] = []
    for name, report in variants.items():
        for field in (
            "losses", "train_accuracy", "val_accuracy",
            "gathered_features", "steps",
        ):
            out += same_values(
                getattr(reference, field), getattr(report, field),
                f"{name}.{field}",
            )
    return out
