"""GraphBolt-style staged mini-batch dataloader.

DGL's GraphBolt decomposes sampled GNN training into a pipeline of
narrow stages, each replaceable and each individually measurable:

    ItemSampler -> NeighborSampler -> subgraph construct -> FeatureFetcher
        (seeds)        (fanout)          (Block.tensors)      (cache + shards)

:class:`MiniBatchLoader` composes those stages and adds bounded
prefetch: with ``prefetch > 0`` a single producer thread runs the
sample/construct/gather stages ahead of the consumer through a bounded
queue, overlapping data preparation with model compute.  Because one
producer drains the (seeded) RNG in exactly the order the synchronous
loop would, the emitted batches are bit-identical with prefetch on or
off — determinism is never traded for overlap.

Each stage pays for its block only: the sampler reuses one id map
across batches (:class:`~repro.gnn.sampling.NeighborSampler`) and the
fetcher asks its cache about the whole block in one ``lookup_many``.

Every batch carries its measured :class:`~repro.gnn.pipeline.StageTimes`;
:meth:`MiniBatchLoader.schedule_report` feeds them to the existing
``pipeline.sequential_schedule`` / ``pipelined_schedule`` machinery to
report per-stage utilization and the overlap speedup the pipeline
admits (the simulated-stage accounting is deterministic even where the
GIL limits measured thread overlap).

:func:`infer_sampled` is the serving-side counterpart: bounded-cost
sampled inference over a node set, behind ``serve``'s ``gnn.predict``
on stored graphs too large for a full forward pass.  It walks
:func:`sampled_inference_blocks` — the same stream serve re-derives for
a request's partition footprint — with one ``FeatureFetcher``.  The
sampled trainers do not use it: they score each epoch with an exact
full forward (``train.eval_inputs``).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..cluster.comm import Network
from ..graph.store.handle import as_handle
from ..obs import MetricsRegistry, Tracer
from .caching import FeatureCache
from .layers import GraphTensors
from .models import NodeClassifier
from .pipeline import StageTimes, pipelined_schedule, sequential_schedule
from .sampling import Block, NeighborSampler
from .tensor import Tensor, no_grad

__all__ = [
    "ItemSampler",
    "FeatureFetcher",
    "MiniBatch",
    "MiniBatchLoader",
    "InferReport",
    "infer_sampled",
    "sampled_inference_blocks",
]


class ItemSampler:
    """Stage 1 — shuffle and batch the seed items of one epoch.

    The shuffle draws one ``rng.permutation`` per epoch, before the
    epoch's first batch is sampled, so a loader and a plain loop of
    ``NeighborSampler.sample`` over these batches that share one
    generator draw the same numbers and build the same blocks.
    """

    def __init__(
        self,
        items: Sequence[int],
        batch_size: int,
        shuffle: bool = True,
        drop_last: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.items = np.asarray(list(items), dtype=np.int64)
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.drop_last = drop_last

    def __len__(self) -> int:
        """Batches per epoch under the drop-last policy."""
        if self.drop_last:
            return self.items.size // self.batch_size
        return -(-self.items.size // self.batch_size)

    def batches(
        self, rng: Optional[np.random.Generator] = None
    ) -> Iterator[np.ndarray]:
        if self.shuffle:
            if rng is None:
                raise ValueError("shuffle=True needs the epoch rng")
            order = rng.permutation(self.items.size)
        else:
            order = np.arange(self.items.size)
        stop = self.items.size
        if self.drop_last:
            stop -= stop % self.batch_size
        for start in range(0, stop, self.batch_size):
            yield self.items[order[start: start + self.batch_size]]


class FeatureFetcher:
    """Stage 4 — the one reader of feature rows for a sampled block.

    Rows come from an explicit ``(n, d)`` array when given, else from
    the handle's feature shards, one ``handle.features(ids)`` call per
    block (paged per-partition reads on stored graphs).  A
    :class:`~repro.gnn.caching.FeatureCache` in front models the remote
    fetch, asked once per block (``lookup_many``): hits are rows already
    resident, misses are rows that had to be pulled.  The cache only
    answers; the fetcher keeps the count (``hits`` / ``misses``, and the
    ``gnn.loader.*`` counters).

    With an ``assignment`` (vertex -> owning partition) the fetcher
    acts for one ``worker``: rows it owns are free (``local_rows``),
    only remote rows walk the cache, and the misses are billed on
    ``network`` with one ``features`` message per owning partition.
    """

    def __init__(
        self,
        handle=None,
        features: Optional[np.ndarray] = None,
        cache: Optional[FeatureCache] = None,
        obs: Optional[MetricsRegistry] = None,
        assignment: Optional[np.ndarray] = None,
        worker: Optional[int] = None,
        network: Optional[Network] = None,
    ) -> None:
        if (assignment is None) != (worker is None) or (
            network is not None and assignment is None
        ):
            raise ValueError("owner-aware fetching needs assignment and worker")
        self.handle = handle
        self._features = None if features is None else np.asarray(features)
        self.cache = cache
        self.obs = obs
        self.assignment = assignment
        self.worker = worker
        self.network = network
        self.hits = 0
        self.misses = 0
        self.local_rows = 0

    def fetch(self, node_ids: np.ndarray) -> np.ndarray:
        """Gather rows for ``node_ids``; returns the dense batch array."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if self._features is not None:
            rows = self._features[node_ids]
        else:
            rows = None if self.handle is None else self.handle.features(node_ids)
            if rows is None:
                raise TypeError(
                    "FeatureFetcher needs features: pass the array or use "
                    "a handle that carries feature shards"
                )
        remote = node_ids
        if self.assignment is not None:
            remote = node_ids[self.assignment[node_ids] != self.worker]
            self.local_rows += node_ids.size - remote.size
        missed = remote
        if self.cache is not None:
            missed = remote[~self.cache.lookup_many(remote)]
        hits, misses = remote.size - missed.size, missed.size
        self.hits += hits
        self.misses += misses
        dim = int(rows.shape[1]) if rows.ndim == 2 else 1
        row_bytes = dim * rows.dtype.itemsize
        if self.network is not None and misses:
            owners, counts = np.unique(self.assignment[missed], return_counts=True)
            for owner, count in zip(owners.tolist(), counts.tolist()):
                self.network.send_now(
                    owner, self.worker, None, tag="features",
                    nbytes=count * row_bytes,
                )
                self.network.receive(self.worker)
        if self.obs is not None:
            self.obs.counter(
                "gnn.loader.fetched_rows", "feature rows materialized"
            ).inc(len(node_ids))
            if self.cache is not None:
                self.obs.counter(
                    "gnn.loader.cache_hits", "feature rows served from cache"
                ).inc(hits)
                self.obs.counter(
                    "gnn.loader.cache_misses", "feature rows fetched on miss"
                ).inc(misses)
            self.obs.counter(
                "gnn.loader.bytes_fetched", "feature bytes pulled on misses"
            ).inc(misses * row_bytes)
            self.obs.counter(
                "gnn.loader.bytes_saved", "feature bytes served from cache"
            ).inc(hits * row_bytes)
        return rows

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class MiniBatch:
    """One fully staged mini-batch, ready for a model forward.

    ``times`` is the loader's live accounting record for this batch —
    the trainer adds its measured forward/backward seconds via
    :meth:`record_compute` so :meth:`MiniBatchLoader.schedule_report`
    sees all three stages.
    """

    epoch: int
    index: int
    seeds: np.ndarray
    block: Block
    gt: GraphTensors
    x: np.ndarray
    times: StageTimes

    @property
    def node_ids(self) -> np.ndarray:
        return self.block.node_ids

    @property
    def seed_local(self) -> np.ndarray:
        return self.block.seed_local

    @property
    def gathered_nodes(self) -> int:
        return self.block.gathered_nodes

    def record_compute(self, seconds: float) -> None:
        self.times.compute += seconds


_DONE = object()


class MiniBatchLoader:
    """The composed staged pipeline with bounded prefetch.

    At fixed ``seed`` the sequence of emitted batches is bit-identical
    to a plain loop of ``NeighborSampler.sample`` over
    ``ItemSampler.batches``, across repeated epochs and regardless of
    ``prefetch`` — the single producer thread drains the RNG in program
    order.

    ``prefetch=0`` runs synchronously (and emits ``gnn.loader.stage``
    tracer spans when a tracer is given); ``prefetch=k`` stages up to
    ``k`` batches ahead through a bounded queue.

    ``seed`` may be a ``Generator`` shared by several loaders (the
    per-worker loaders of one distributed run); ``fetcher`` replaces
    the default ``FeatureFetcher(handle, features, cache)``.
    """

    def __init__(
        self,
        graph_or_handle,
        items: Sequence[int],
        batch_size: int,
        fanouts: Sequence[int] = (10, 10),
        features: Optional[np.ndarray] = None,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: int = 0,
        cache: Optional[FeatureCache] = None,
        prefetch: int = 0,
        obs: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        fetcher: Optional[FeatureFetcher] = None,
    ) -> None:
        if prefetch < 0:
            raise ValueError("prefetch must be >= 0")
        if fetcher is not None and (features is not None or cache is not None):
            raise ValueError("features/cache belong to the fetcher passed as fetcher=")
        self.handle = as_handle(graph_or_handle)
        self.item_sampler = ItemSampler(
            items, batch_size, shuffle=shuffle, drop_last=drop_last
        )
        self.sampler = NeighborSampler(self.handle, fanouts, seed=seed)
        self.fetcher = fetcher or FeatureFetcher(
            self.handle, features=features, cache=cache, obs=obs
        )
        self.prefetch = int(prefetch)
        self.obs = obs
        self.tracer = tracer
        self.stage_times: List[StageTimes] = []
        self.epochs_run = 0

    def __len__(self) -> int:
        return len(self.item_sampler)

    # -- stage execution ---------------------------------------------------

    def _stage_one(self, epoch: int, index: int, seeds: np.ndarray) -> MiniBatch:
        span = None
        if self.tracer is not None and self.prefetch == 0:
            span = self.tracer.span(
                "gnn.loader.batch", epoch=epoch, index=index, seeds=seeds.size
            )
        t0 = time.perf_counter()
        block = self.sampler.sample(seeds)
        gt = block.tensors()
        t1 = time.perf_counter()
        x = self.fetcher.fetch(block.node_ids)
        t2 = time.perf_counter()
        times = StageTimes(sample=t1 - t0, gather=t2 - t1, compute=0.0)
        self.stage_times.append(times)
        if self.obs is not None:
            self.obs.counter("gnn.loader.batches", "mini-batches staged").inc()
            self.obs.counter(
                "gnn.loader.gathered_nodes", "block nodes materialized"
            ).inc(block.gathered_nodes)
            stage_seconds = self.obs.histogram(
                "gnn.loader.stage_seconds", "per-stage wall seconds"
            )
            stage_seconds.observe(times.sample, stage="sample")
            stage_seconds.observe(times.gather, stage="gather")
        if span is not None:
            span.__exit__(None, None, None)
        return MiniBatch(
            epoch=epoch,
            index=index,
            seeds=seeds,
            block=block,
            gt=gt,
            x=x,
            times=times,
        )

    def _produce_epoch(self, epoch: int) -> Iterator[MiniBatch]:
        for index, seeds in enumerate(self.item_sampler.batches(self.sampler.rng)):
            yield self._stage_one(epoch, index, seeds)

    def epoch(self) -> Iterator[MiniBatch]:
        """Iterate one epoch of staged mini-batches.

        Successive calls continue the same RNG stream (one permutation
        per epoch), exactly like repeated ``sampler.batches`` calls.
        """
        epoch = self.epochs_run
        self.epochs_run += 1
        if self.obs is not None:
            self.obs.counter("gnn.loader.epochs", "loader epochs started").inc()
        source = self._produce_epoch(epoch)
        if self.prefetch == 0:
            return source
        return self._prefetched(source)

    def _prefetched(self, source: Iterator[MiniBatch]) -> Iterator[MiniBatch]:
        """Run ``source`` up to ``prefetch`` batches ahead on one thread.

        One producer drains the seeded RNG in synchronous order, so
        prefetch changes timing, never content.  Batches, the
        end-of-epoch sentinel and a producer error all wait for queue
        room until placed; the producer is stopped and joined however
        the epoch ends (exhausted, ``break`` / ``close``, exception).
        """
        staged: "queue.Queue" = queue.Queue(maxsize=self.prefetch)
        stop = threading.Event()

        def put(item: Any) -> bool:
            while not stop.is_set():
                try:
                    staged.put(item, timeout=0.1)
                    return True
                except queue.Full:
                    continue
            return False

        def produce() -> None:
            try:
                for item in source:
                    if not put(item):
                        return
                put(_DONE)
            except BaseException as exc:  # re-raised on the consumer side
                put(exc)

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        try:
            while True:
                item = staged.get()
                if item is _DONE:
                    return
                if isinstance(item, BaseException):
                    raise item
                yield item
        finally:
            stop.set()
            producer.join()

    # -- accounting --------------------------------------------------------

    def schedule_report(self) -> Dict[str, Any]:
        """Analyze the measured stage times with the scheduling machinery.

        ``pipelined`` models the three stages on dedicated executors
        (the prefetch ideal); the ratio of makespans is the overlap
        speedup this batch mix admits.
        """
        seq = sequential_schedule(self.stage_times)
        pipe = pipelined_schedule(self.stage_times)
        speedup = seq.makespan / pipe.makespan if pipe.makespan > 0 else 1.0
        return {
            "batches": len(self.stage_times),
            "sequential": seq.as_dict(),
            "pipelined": pipe.as_dict(),
            "overlap_speedup": speedup,
            "utilization": {s: pipe.utilization(s) for s in pipe.busy},
        }

    def cache_report(self) -> Dict[str, Any]:
        return {
            "hits": self.fetcher.hits,
            "misses": self.fetcher.misses,
            "hit_rate": self.fetcher.hit_rate,
        }


# ----------------------------------------------------------------------
# Sampled inference
# ----------------------------------------------------------------------


@dataclass
class InferReport:
    """Cost accounting of one sampled-inference pass."""

    batches: int = 0
    seeds: int = 0
    gathered_features: int = 0
    messages: int = 0


def sampled_inference_blocks(
    handle,
    nodes: np.ndarray,
    fanouts: Sequence[int],
    seed: int,
    batch_size: int,
) -> Iterator[Block]:
    """The deterministic block stream of one sampled-inference pass.

    :func:`infer_sampled` runs its forward over these blocks, and serve
    re-derives them (same seed -> same blocks) for the exact partition
    footprint of a request without paying for the forward pass.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    sampler = NeighborSampler(handle, fanouts, seed=seed)
    for start in range(0, nodes.size, batch_size):
        yield sampler.sample(nodes[start: start + batch_size])


def infer_sampled(
    model: NodeClassifier,
    graph_or_handle,
    features: Optional[np.ndarray] = None,
    nodes: Optional[Sequence[int]] = None,
    batch_size: int = 64,
    fanouts: Sequence[int] = (10, 10),
    seed: int = 0,
    obs: Optional[MetricsRegistry] = None,
    report: Optional[InferReport] = None,
) -> np.ndarray:
    """Bounded-cost sampled inference: predicted classes for ``nodes``.

    Each batch's work is capped by ``batch_size * prod(fanouts)``
    rather than ``|E|`` — the property that lets serve answer
    ``gnn.predict`` on stored graphs too large for a full forward.
    Walks :func:`sampled_inference_blocks`, fetching each block's rows
    through one :class:`FeatureFetcher`.  Deterministic at fixed
    ``seed``; pass an :class:`InferReport` to collect batch, row and
    message counts.
    """
    handle = as_handle(graph_or_handle)
    if nodes is None:
        nodes = np.arange(handle.num_vertices, dtype=np.int64)
    else:
        nodes = np.asarray(list(nodes), dtype=np.int64)
    fetcher = FeatureFetcher(handle, features=features)
    preds = np.empty(nodes.size, dtype=np.int64)
    rep = report if report is not None else InferReport()
    pos = 0
    for block in sampled_inference_blocks(handle, nodes, fanouts, seed, batch_size):
        gt = block.tensors()
        with no_grad():
            logits = model(gt, Tensor(fetcher.fetch(block.node_ids))).data
        batch_preds = np.argmax(logits[block.seed_local], axis=1)
        preds[pos: pos + batch_preds.size] = batch_preds
        pos += batch_preds.size
        rep.batches += 1
        rep.seeds += int(block.seed_local.size)
        rep.gathered_features += block.gathered_nodes
        rep.messages += int(gt.num_messages)
    if obs is not None:
        obs.counter("gnn.infer.batches", "sampled-inference batches").inc(rep.batches)
        obs.counter("gnn.infer.seeds", "nodes predicted").inc(rep.seeds)
        obs.counter(
            "gnn.infer.gathered_features", "feature rows gathered for inference"
        ).inc(rep.gathered_features)
        obs.counter(
            "gnn.infer.messages", "messages flowed during inference"
        ).inc(rep.messages)
    return preds
