"""Differential checks for the GNN training systems.

Quantization is the canonical *bounded-error* pair (the reconstruction
must stay within half a quantization step of the input), and the
feature caches are checked against an independent trace simulation —
the check that flushed out the cache accounting bug: ``replay`` counted
hits externally while the cache kept no books of its own, so nothing
tied ``CacheReport.bytes_saved`` to what the cache actually admitted
and evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

import numpy as np

from ..check.invariants import bounded_error, same_values
from ..check.registry import BIT_IDENTICAL, BOUNDED_ERROR, pair
from .caching import LRUCache, StaticDegreeCache, replay
from .quantization import quantize, quantize_dequantize


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
    reference = train_full_graph(model(), graph, *data, **run)
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
