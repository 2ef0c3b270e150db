"""Endpoint and graph registries: what the serving layer can run, on what.

An :class:`Endpoint` wraps one engine entry point behind a uniform
contract: ``run(record, params, executor=None) -> (result, cost_ops)``.
The *result* is the real engine answer (the serve-vs-direct oracles in
:mod:`repro.serve.checks` demand bit-identity); the *cost* is the
simulated-ops price the scheduler charges a worker clock, drawn from
the engines' own work counters (candidate scans for matching, edge
traversals for TLAV supersteps, message counts for GNN aggregation) so
latency distributions are deterministic at a fixed seed.

The :class:`GraphRegistry` names the graphs requests may target — a
real multi-graph catalog: each entry is a
:class:`~repro.graph.store.handle.GraphHandle` (a live
:class:`~repro.graph.csr.Graph` wrapped in ``InMemoryGraph``, or a
paged :class:`~repro.graph.store.stored.StoredGraph` registered by
store path or loaded wholesale from a
:class:`~repro.graph.store.catalog.StoreCatalog` via
:meth:`GraphRegistry.load_catalog`).  Each :class:`GraphRecord`
carries an **epoch** that bumps whenever the graph is replaced or
mutated in place; the epoch is part of every result cache key and
every batch key, so a bump invalidates stale cached results *by
construction* (no flush races) and prevents cross-version batching.
For stored graphs the epoch is **backed by the manifest version**: a
bump persists through :meth:`StoredGraph.bump_version`, so reopening
the catalog after a restart sees the same epoch the cache keys were
minted against.  Subscribers (the server's cache) are notified on
bumps so stale entries are also reclaimed eagerly.

**Streaming mutations** enter through
:meth:`GraphRegistry.apply_updates`: one batched edge delta per call
(deletes before inserts, via
:func:`~repro.graph.delta.apply_edge_updates`), one epoch bump per
batch, and a **dirty-partition report** — the partitions owning a
vertex whose adjacency changed — forwarded to subscribers so the
result cache can invalidate partition-scoped entries precisely instead
of zeroing the graph's whole working set.  Endpoints may declare a
``footprint`` (the partitions a result read, resolved per request via
the handles' ``part_of``); full-graph analytics leave it ``None``, the
conservative everything-footprint.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from ..graph.delta import EdgeDelta, apply_edge_updates
from ..graph.partition import Partition
from ..graph.store import InMemoryGraph, StoreCatalog, as_handle
from ..matching.backtrack import MatchStats, count_matches
from ..matching.cliques import count_k_cliques
from ..matching.pattern import named_pattern
from ..matching.plan import GraphStats, Planner

__all__ = [
    "Endpoint",
    "EndpointRegistry",
    "GraphRecord",
    "GraphRegistry",
    "builtin_endpoints",
    "canonical_params",
    "named_pattern",
]


# ----------------------------------------------------------------------
# Canonical parameters
# ----------------------------------------------------------------------


def _canon_value(value: Any) -> Any:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return tuple(_canon_value(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _canon_value(v)) for k, v in value.items()))
    return value


def canonical_params(params: Dict[str, Any]) -> Tuple:
    """Hashable, order-independent form of a request's parameter dict.

    Two requests with equal canonical params are *the same computation*
    — the unit of result-cache identity and of duplicate coalescing in
    the micro-batcher.
    """
    return tuple(sorted((str(k), _canon_value(v)) for k, v in params.items()))


# ----------------------------------------------------------------------
# Graph registry
# ----------------------------------------------------------------------


class GraphRecord:
    """One served graph plus its version epoch and lazy GNN artifacts.

    ``graph`` may be a concrete :class:`~repro.graph.csr.Graph`, any
    handle, or a store-directory path — everything funnels through
    :func:`~repro.graph.store.handle.as_handle`, so ``record.graph``
    is always a handle.  For a stored graph the epoch is the on-disk
    manifest version (bumps persist); for in-memory graphs it is a
    plain session counter starting at 0.
    """

    def __init__(
        self,
        name: str,
        graph: Any,
        features: Optional[np.ndarray] = None,
        model: Optional[Any] = None,
        gnn_seed: int = 0,
        num_classes: int = 3,
    ) -> None:
        self.name = name
        self._epoch = 0
        self._attach(graph, features)
        self.model = model
        self.gnn_seed = gnn_seed
        self.num_classes = num_classes
        self._gt: Optional[Any] = None
        self._gt_epoch = -1
        self._planner: Optional[Planner] = None
        self._planner_epoch = -1

    def _attach(self, graph: Any, features: Optional[np.ndarray]) -> None:
        handle = as_handle(graph, features=features)
        self.graph = handle
        if features is None:
            features = handle.features()
        self.features = features

    # -- version epoch ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Cache/batch-key version; manifest-backed for stored graphs."""
        version = getattr(self.graph, "version", None)
        if version is not None:
            return int(version) + self._epoch
        return self._epoch

    def bump(self) -> int:
        """Advance the epoch; persists via the manifest when stored."""
        bump_version = getattr(self.graph, "bump_version", None)
        if bump_version is not None:
            bump_version()
        else:
            self._epoch += 1
        return self.epoch

    def swap(self, graph: Any, features: Optional[np.ndarray] = None) -> int:
        """Replace the backing graph without dropping the epoch.

        The epoch stays monotonic even when the replacement switches
        storage kinds (in-memory ↔ stored): the ``_epoch`` offset
        absorbs the difference between the old epoch and the new
        handle's manifest version.  The caller (the registry) bumps
        after the swap, so the post-replace epoch strictly increases.
        """
        old = self.epoch
        self._attach(graph, features)
        base = int(getattr(self.graph, "version", 0) or 0)
        self._epoch = max(0, old - base)
        return self.epoch

    def apply_updates(
        self,
        inserts: Any = (),
        deletes: Any = (),
    ) -> EdgeDelta:
        """Apply one batched edge delta to the served snapshot.

        The successor graph keeps the old handle's partition layout (its
        ``assignment`` frozen into a :class:`Partition`), so
        partition-scoped dirty tracking survives the rebuild.  A mutated
        stored graph becomes an in-memory overlay — the on-disk shards
        are immutable; persisting a stream is the ingest pipeline's job,
        not the serving path's.  The caller (the registry) bumps the
        epoch afterwards.
        """
        old_handle = self.graph
        new_graph, delta = apply_edge_updates(
            old_handle.to_graph(), inserts, deletes
        )
        assignment = old_handle.assignment
        partition = None
        if assignment is not None:
            partition = Partition(old_handle.num_parts, assignment)
        self.swap(InMemoryGraph(
            new_graph,
            features=self.features,
            partition=partition,
            name=old_handle.name,
        ))
        return delta

    def dirty_partitions(self, delta: EdgeDelta) -> FrozenSet[int]:
        """Partitions owning a vertex the delta touched."""
        return delta.dirty_partitions(self.graph.assignment)

    # -- lazy, epoch-keyed derived state -----------------------------------

    def tensors(self):
        """Edge tensors for GNN inference, rebuilt after an epoch bump."""
        if self._gt is None or self._gt_epoch != self.epoch:
            from ..gnn.layers import GraphTensors

            self._gt = GraphTensors(self.graph)
            self._gt_epoch = self.epoch
        return self._gt

    def planner(self) -> Planner:
        if self._planner is None or self._planner_epoch != self.epoch:
            self._planner = Planner(GraphStats.of(self.graph))
            self._planner_epoch = self.epoch
        return self._planner

    def ensure_gnn(self, in_dim: int = 8) -> None:
        """Materialize deterministic features/model when none were bound."""
        n = self.graph.num_vertices
        if self.features is None or self.features.shape[0] != n:
            rng = np.random.default_rng(self.gnn_seed)
            self.features = rng.normal(size=(n, in_dim))
        if self.model is None:
            from ..gnn.models import NodeClassifier

            self.model = NodeClassifier(
                self.features.shape[1], 16, self.num_classes, seed=self.gnn_seed
            )


class GraphRegistry:
    """Named graph handles with version epochs and bump notification.

    A record may be registered from a live :class:`Graph`, any handle,
    or a store-directory path; :meth:`load_catalog` registers every
    store below a catalog root in one call, turning the registry into
    a served view of the on-disk catalog (epochs = manifest versions).
    """

    def __init__(self) -> None:
        self._records: Dict[str, GraphRecord] = {}
        self._listeners: List[Callable[..., None]] = []

    def register(self, name: str, graph: Any, **kwargs: Any) -> GraphRecord:
        if name in self._records:
            raise ValueError(f"graph {name!r} already registered; use replace()")
        record = GraphRecord(name, graph, **kwargs)
        self._records[name] = record
        return record

    def load_catalog(
        self,
        root: Any,
        cache_budget: Optional[int] = None,
        obs: Optional[Any] = None,
    ) -> List[GraphRecord]:
        """Register every store under a catalog root (or StoreCatalog).

        Each entry is opened as a paged :class:`StoredGraph` whose
        epoch is its manifest version; requests can target any of them
        by name immediately.
        """
        catalog = (
            root if isinstance(root, StoreCatalog)
            else StoreCatalog(root, cache_budget=cache_budget, obs=obs)
        )
        return [
            self.register(name, catalog.open(name, cache_budget=cache_budget))
            for name in catalog.names()
        ]

    def get(self, name: str) -> GraphRecord:
        try:
            return self._records[name]
        except KeyError:
            raise KeyError(
                f"unknown graph {name!r}; known: {sorted(self._records)}"
            ) from None

    def epoch(self, name: str) -> int:
        return self.get(name).epoch

    def replace(self, name: str, graph: Any) -> GraphRecord:
        """Swap in a new version of the graph; bumps the epoch."""
        record = self.get(name)
        record.swap(graph)
        self._bump(record)
        return record

    def bump_epoch(self, name: str) -> int:
        """Declare an in-place mutation of the named graph."""
        record = self.get(name)
        self._bump(record)
        return record.epoch

    def apply_updates(
        self,
        name: str,
        inserts: Any = (),
        deletes: Any = (),
    ) -> EdgeDelta:
        """Apply one batched edge-stream mutation to a served graph.

        One epoch bump per batch; subscribers receive the set of dirty
        partitions alongside the new epoch, so a partition-scoped cache
        reclaims only entries whose footprint the batch actually
        touched.  Returns the effective :class:`EdgeDelta`.
        """
        record = self.get(name)
        delta = record.apply_updates(inserts, deletes)
        self._bump(record, dirty=record.dirty_partitions(delta))
        return delta

    def _bump(
        self,
        record: GraphRecord,
        dirty: Optional[FrozenSet[int]] = None,
    ) -> None:
        record.bump()
        for listener in self._listeners:
            listener(record.name, record.epoch, dirty)

    def subscribe(
        self, callback: Callable[[str, int, Optional[FrozenSet[int]]], None]
    ) -> None:
        """``callback(name, new_epoch, dirty_partitions)`` per bump.

        ``dirty_partitions`` is the set a mutation batch touched, or
        ``None`` when the whole graph changed (swap / version bump).
        """
        self._listeners.append(callback)

    def names(self) -> List[str]:
        return sorted(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __iter__(self) -> Iterator[GraphRecord]:
        return iter(self._records.values())


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------


class Endpoint:
    """One served engine entry point.

    ``run(record, params, executor=None)`` returns ``(result, cost)``
    where ``cost`` is the simulated ops the scheduler charges.  When
    ``merge_batch`` is set the endpoint also supports
    ``run_batch(record, params_list, executor=None)`` returning
    ``(results, cost)`` — one engine call serving requests whose params
    *differ* (DL-serving style micro-batching; GNN node inference
    shares the full-graph forward pass across every request).

    ``timeout_ops`` caps one execution's simulated cost — the scheduler
    treats a longer run as a timeout failure (and fires its one hedged
    retry).  ``degradable=False`` opts the endpoint out of the
    stale-cache degradation ladder (it fails hard instead).

    ``footprint(record, params)`` declares the partitions one result
    reads — the result cache records it so a mutation batch that
    dirties other partitions leaves the entry servable.  ``None`` (the
    default, and the only sound answer for full-graph analytics) means
    *every* partition: any mutation invalidates.  A footprint must be
    conservative — report every partition the answer could depend on —
    or promoted entries would serve wrong answers as fresh.
    """

    def __init__(
        self,
        name: str,
        family: str,
        run: Callable[..., Tuple[Any, int]],
        run_batch: Optional[Callable[..., Tuple[List[Any], int]]] = None,
        description: str = "",
        timeout_ops: Optional[int] = None,
        degradable: bool = True,
        footprint: Optional[Callable[..., Optional[Any]]] = None,
    ) -> None:
        if timeout_ops is not None and timeout_ops < 1:
            raise ValueError("timeout_ops must be >= 1")
        self.name = name
        self.family = family
        self._run = run
        self._run_batch = run_batch
        self.description = description
        self.timeout_ops = timeout_ops
        self.degradable = degradable
        self._footprint = footprint

    @property
    def merge_batch(self) -> bool:
        return self._run_batch is not None

    def run(self, record: GraphRecord, params: Dict, executor=None) -> Tuple[Any, int]:
        result, cost = self._run(record, params, executor)
        return result, max(1, int(cost))

    def run_batch(
        self, record: GraphRecord, params_list: List[Dict], executor=None
    ) -> Tuple[List[Any], int]:
        if self._run_batch is None:
            raise TypeError(f"endpoint {self.name!r} does not merge batches")
        results, cost = self._run_batch(record, params_list, executor)
        return results, max(1, int(cost))

    def canonicalize(self, params: Dict) -> Tuple:
        return canonical_params(params)

    def partitions_read(
        self, record: GraphRecord, params: Dict
    ) -> Optional[FrozenSet[int]]:
        """Partition footprint of one request, or ``None`` (whole graph)."""
        if self._footprint is None:
            return None
        parts = self._footprint(record, params)
        if parts is None:
            return None
        return frozenset(int(p) for p in parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Endpoint({self.name!r}, family={self.family!r})"


class EndpointRegistry:
    """Name-keyed collection of :class:`Endpoint` declarations."""

    def __init__(self) -> None:
        self._endpoints: Dict[str, Endpoint] = {}

    def register(self, endpoint: Endpoint) -> Endpoint:
        if endpoint.name in self._endpoints:
            raise ValueError(f"duplicate endpoint {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint
        return endpoint

    def get(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise KeyError(
                f"unknown endpoint {name!r}; known: {sorted(self._endpoints)}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._endpoints)

    def families(self) -> List[str]:
        return sorted({e.family for e in self._endpoints.values()})

    def __contains__(self, name: str) -> bool:
        return name in self._endpoints

    def __iter__(self) -> Iterator[Endpoint]:
        return iter(
            sorted(self._endpoints.values(), key=lambda e: e.name)
        )

    def __len__(self) -> int:
        return len(self._endpoints)


# ----------------------------------------------------------------------
# Built-in endpoints: one or more per engine family
#
# The TLAV endpoints execute the dense kernels; the per-vertex engine
# (``tlav.algorithms``) stays the oracle they are bit-identical to — the
# ``tlav.{pagerank,bfs,wcc}.engine_vs_dense`` pairs in ``repro check``.
# ----------------------------------------------------------------------


def _run_pagerank(record: GraphRecord, params: Dict, executor) -> Tuple[Any, int]:
    from ..tlav.vectorized import pagerank_dense

    iterations = int(params.get("iterations", 20))
    damping = float(params.get("damping", 0.85))
    values = pagerank_dense(
        record.graph, damping=damping, iterations=iterations, executor=executor
    )
    cost = iterations * max(record.graph.num_edge_slots, 1)
    return values, cost


def _run_bfs(record: GraphRecord, params: Dict, executor) -> Tuple[Any, int]:
    from ..tlav.vectorized import bfs_dense

    source = int(params.get("source", 0)) % max(record.graph.num_vertices, 1)
    levels = bfs_dense(record.graph, source)
    # Every edge is examined once per direction plus the frontier scans.
    cost = record.graph.num_edge_slots + record.graph.num_vertices
    return levels, cost


def _run_wcc(record: GraphRecord, params: Dict, executor) -> Tuple[Any, int]:
    from ..tlav.vectorized import wcc_dense

    labels = wcc_dense(record.graph)
    rounds = int(np.log2(max(record.graph.num_vertices, 2))) + 1
    cost = rounds * (record.graph.num_edge_slots + record.graph.num_vertices)
    return labels, cost


def _run_count(record: GraphRecord, params: Dict, executor) -> Tuple[Any, int]:
    pattern = named_pattern(str(params.get("pattern", "triangle")))
    stats = MatchStats()
    count = count_matches(record.graph, pattern, stats=stats, executor=executor)
    return count, max(stats.candidates_scanned, 1)


def _run_cliques(record: GraphRecord, params: Dict, executor) -> Tuple[Any, int]:
    k = max(2, int(params.get("k", 3)))
    count = count_k_cliques(record.graph, k)
    cost = record.graph.num_edge_slots + count * k
    return count, cost


def _gnn_predictions(record: GraphRecord) -> Tuple[np.ndarray, int]:
    from ..gnn.tensor import Tensor

    record.ensure_gnn()
    gt = record.tensors()
    predicted = record.model.predict(gt, Tensor(record.features))
    cost = gt.num_messages * record.model.num_layers
    return predicted, cost


def _slice_nodes(predicted: np.ndarray, params: Dict, n: int) -> List[int]:
    nodes = params.get("nodes")
    if nodes is None:
        return [int(v) for v in predicted]
    return [int(predicted[int(v) % max(n, 1)]) for v in nodes]


#: Default fanouts for sampled serving inference.
SAMPLED_FANOUTS = (3, 3)

#: Above this vertex count a full forward per request is no longer
#: admitted when the request names specific nodes — sampled inference
#: bounds the cost by batch x fanout instead of |E|.
SAMPLED_PREDICT_MAX_FULL = 512


def _predict_mode(record: GraphRecord, params: Dict) -> str:
    """``full`` | ``sampled``; ``mode`` param overrides the auto rule.

    Auto picks sampled inference when the request names nodes and the
    graph is stored (paged, assumed big) or simply too large for a
    per-request full forward.  Requests for *every* node keep the
    full-graph path — there is no cheaper way to answer them.
    """
    mode = str(params.get("mode", "auto"))
    if mode in ("full", "sampled"):
        return mode
    if params.get("nodes") is None:
        return "full"
    if getattr(record.graph, "version", None) is not None:  # stored graph
        return "sampled"
    if record.graph.num_vertices > SAMPLED_PREDICT_MAX_FULL:
        return "sampled"
    return "full"


def _sampled_spec(record: GraphRecord, params: Dict):
    """The deterministic sampling plan of one sampled-predict request.

    The seed is derived from the graph's GNN seed and the canonical
    params only — *not* the epoch — so a cache entry promoted across an
    epoch bump (clean partition footprint) stays bit-identical with a
    recompute: same seed over unchanged adjacency resamples the same
    blocks.
    """
    import zlib

    n = max(record.graph.num_vertices, 1)
    raw = params.get("nodes")
    if raw is None:
        nodes = np.arange(n, dtype=np.int64)
    else:
        nodes = np.asarray([int(v) % n for v in raw], dtype=np.int64)
    fanouts = tuple(int(f) for f in params.get("fanouts", SAMPLED_FANOUTS))
    batch_size = max(1, int(params.get("batch_size", 64)))
    seed = zlib.crc32(
        repr((record.gnn_seed, canonical_params(params))).encode()
    )
    return nodes, fanouts, batch_size, seed


def _run_predict_sampled(record: GraphRecord, params: Dict) -> Tuple[Any, int]:
    from ..gnn.dataloader import InferReport, infer_sampled

    record.ensure_gnn()
    nodes, fanouts, batch_size, seed = _sampled_spec(record, params)
    rep = InferReport()
    preds = infer_sampled(
        record.model,
        record.graph,
        features=record.features,
        nodes=nodes,
        batch_size=batch_size,
        fanouts=fanouts,
        seed=seed,
        report=rep,
    )
    cost = rep.messages * record.model.num_layers
    return [int(p) for p in preds], max(1, cost)


def _run_predict(record: GraphRecord, params: Dict, executor) -> Tuple[Any, int]:
    if _predict_mode(record, params) == "sampled":
        return _run_predict_sampled(record, params)
    predicted, cost = _gnn_predictions(record)
    return _slice_nodes(predicted, params, record.graph.num_vertices), cost


def _run_predict_batch(
    record: GraphRecord, params_list: List[Dict], executor
) -> Tuple[List[Any], int]:
    """One full-graph forward serves every full-mode request in the
    batch; sampled-mode requests each pay their own (fanout-bounded)
    sampled inference."""
    results: List[Any] = [None] * len(params_list)
    cost = 0
    full_idx = [
        i for i, p in enumerate(params_list)
        if _predict_mode(record, p) == "full"
    ]
    if full_idx:
        predicted, full_cost = _gnn_predictions(record)
        cost += full_cost
        n = record.graph.num_vertices
        for i in full_idx:
            results[i] = _slice_nodes(predicted, params_list[i], n)
    for i, params in enumerate(params_list):
        if results[i] is None:
            result, sampled_cost = _run_predict_sampled(record, params)
            results[i] = result
            cost += sampled_cost
    return results, cost


def _predict_footprint(record: GraphRecord, params: Dict):
    """Exact partition footprint of a sampled-predict request.

    Re-deriving the deterministic block stream (same seed, no forward
    pass) yields exactly the nodes the answer read; the partitions
    owning them are the complete dependency set.  Full-mode requests
    read everything — ``None``.
    """
    if _predict_mode(record, params) != "sampled":
        return None
    assignment = record.graph.assignment
    if assignment is None:
        return None
    from ..gnn.dataloader import sampled_inference_blocks

    nodes, fanouts, batch_size, seed = _sampled_spec(record, params)
    parts: set = set()
    for block in sampled_inference_blocks(
        record.graph, nodes, fanouts, seed, batch_size
    ):
        parts.update(int(p) for p in np.unique(assignment[block.node_ids]))
    return parts


def _run_neighbors(record: GraphRecord, params: Dict, executor) -> Tuple[Any, int]:
    """Partition-local 1-hop retrieval: one vertex's adjacency list.

    The cheapest served computation, and the one whose result provably
    depends on a single partition — the shard owning the vertex holds
    its adjacency, and any mutation touching that list dirties the
    owner partition by construction.  The footprint below is therefore
    exact, which is what lets the partition-scoped cache keep these
    entries hot across an unrelated update trickle.
    """
    n = max(record.graph.num_vertices, 1)
    v = int(params.get("node", 0)) % n
    nbrs = record.graph.neighbors(v)
    return [int(w) for w in nbrs], max(1, int(nbrs.size))


def _neighbors_footprint(record: GraphRecord, params: Dict):
    n = max(record.graph.num_vertices, 1)
    v = int(params.get("node", 0)) % n
    return {record.graph.part_of(v)}


def _run_subgraph_query(record: GraphRecord, params: Dict, executor) -> Tuple[Any, int]:
    """TLAG interactive subgraph query (the G-thinkerQ backend).

    The same compile path :class:`repro.tlag.query.QueryServer` uses:
    plan the matching order for this graph's statistics, then count with
    symmetry breaking; the cost is the candidate scans the matcher did —
    the ops unit QueryServer charges its simulated workers.
    """
    pattern = named_pattern(str(params.get("pattern", "triangle")))
    order = record.planner().plan(pattern).order
    stats = MatchStats()
    count = count_matches(
        record.graph, pattern, order=order, stats=stats, executor=executor
    )
    return count, max(stats.candidates_scanned, 1)


def builtin_endpoints() -> EndpointRegistry:
    """The default registry: at least one endpoint per engine family."""
    registry = EndpointRegistry()
    registry.register(Endpoint(
        "tlav.pagerank", "tlav", _run_pagerank,
        description="PageRank scores (params: iterations, damping)",
    ))
    registry.register(Endpoint(
        "tlav.bfs", "tlav", _run_bfs,
        description="BFS levels from a source vertex (params: source)",
    ))
    registry.register(Endpoint(
        "tlav.wcc", "tlav", _run_wcc,
        description="weakly connected component labels",
    ))
    registry.register(Endpoint(
        "matching.count", "matching", _run_count,
        description="embedding count of a named pattern (params: pattern)",
    ))
    registry.register(Endpoint(
        "matching.cliques", "matching", _run_cliques,
        description="k-clique count (params: k)",
    ))
    registry.register(Endpoint(
        "gnn.predict", "gnn", _run_predict, run_batch=_run_predict_batch,
        description="node-classification inference (params: nodes, mode, "
                    "fanouts); stored/large graphs answer via sampled "
                    "inference with a partition-exact cache footprint",
        footprint=_predict_footprint,
    ))
    registry.register(Endpoint(
        "tlag.subgraph_query", "tlag", _run_subgraph_query,
        description="planned interactive subgraph query (params: pattern)",
    ))
    registry.register(Endpoint(
        "graph.neighbors", "graph", _run_neighbors,
        description="1-hop adjacency of a vertex (params: node); "
                    "partition-exact cache footprint",
        footprint=_neighbors_footprint,
    ))
    return registry
