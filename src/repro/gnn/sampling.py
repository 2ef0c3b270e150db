"""Neighborhood sampling and k-hop subgraph materialization.

The graph-data-communication techniques of Table 2:

* :func:`sample_neighbors` / :class:`NeighborSampler` — GraphSAGE-style
  fanout sampling, the technique of Euler [4], AliGraph [73] and
  ByteGNN [71]: cap each node's in-neighborhood per layer so the
  per-batch data volume is bounded by ``batch * prod(fanouts)`` instead
  of the full multi-hop neighborhood;
* :func:`khop_subgraph` — AGL's [68] offline materialization: extract
  the complete k-hop neighborhood of each seed so training needs no
  graph access at all;
* :func:`layerwise_sample` — FastGCN-style layer-wise importance
  sampling.

Samplers return :class:`Block` objects — small graphs over compacted
ids with a mapping back to the parent graph — which plug directly into
the layers via :class:`~repro.gnn.layers.GraphTensors`.

A sampler works on a *frontier*, never on a vertex.  Each hop is one
``handle.expand_frontier(frontier)`` call — on a stored graph one
gather per touched partition, each shard paged through the checked,
budgeted cache once per hop — followed by array code; there is no
per-vertex or per-edge Python.  Compaction goes through one
global -> local id map (``int64[n]``, -1 for every vertex outside the
current sample): new vertices are the slots whose map entry is -1,
each frontier fills the next contiguous local range, block ids and
edge endpoints are gathers of the map, and the entries a sample wrote
are reset when it ends, raising or not.  :class:`NeighborSampler`
allocates that map once, so a batch costs O(its block), never O(n).

RNG contract of :func:`sample_neighbors`: a hop in which no frontier
vertex has more than ``fanout`` neighbors (always the case for
``fanout = -1``) draws nothing; any other hop makes exactly one
``rng.random(k)`` call, ``k`` being the neighbor slots of the vertices
that exceed the fanout.  Those keys rank each such vertex's slots and
the ``fanout`` smallest survive — a uniform without-replacement subset.
:func:`layerwise_sample` makes one ``rng.choice(pool, p=weights)`` per
layer with a non-empty candidate pool.

Seeds are de-duplicated (first occurrence wins) before sampling, so
``node_ids`` never repeats a vertex and ``gathered_nodes`` bills each
feature row once; ``seed_local`` keeps one entry per *input* seed.  A
seed outside ``[0, n)`` raises ``IndexError`` whatever the fanouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..graph.csr import Graph
from ..graph.kernels import csr_from_pairs
from ..graph.store.handle import as_handle, checked_vertex_ids
from .layers import GraphTensors

__all__ = ["Block", "NeighborSampler", "sample_neighbors", "khop_subgraph", "layerwise_sample"]


@dataclass
class Block:
    """A sampled computation block.

    ``graph`` is over compacted local ids; ``node_ids[local]`` maps back
    to the parent graph; ``seed_local`` are the positions of the batch
    seeds.  ``gathered_nodes`` counts the feature rows a trainer must
    fetch — the communication quantity bench C7 sweeps.
    """

    graph: Graph
    node_ids: np.ndarray
    seed_local: np.ndarray

    @property
    def gathered_nodes(self) -> int:
        return int(self.node_ids.size)

    def tensors(self, add_self_loops: bool = True) -> GraphTensors:
        return GraphTensors(self.graph, add_self_loops=add_self_loops)


def _checked_seeds(seeds: Sequence[int], num_vertices: int) -> np.ndarray:
    if not isinstance(seeds, np.ndarray):
        seeds = list(seeds)
    return checked_vertex_ids(seeds, num_vertices)


def _first_seen(
    ids: np.ndarray, local: np.ndarray, base: int, touched: List[np.ndarray]
) -> np.ndarray:
    """The distinct ``ids`` the map ``local`` does not hold yet, in order
    of first occurrence, entered with local ids ``base, base + 1, ...``.

    One ``np.minimum.at`` of each candidate's position finds its first
    occurrence, so a hop costs O(its slots) and sorts nothing.  Every
    entry written is listed in ``touched`` first, for the restore.
    """
    fresh = ids[local[ids] < 0]
    touched.append(fresh)
    position = np.arange(fresh.size)
    local[fresh] = fresh.size  # above every position
    np.minimum.at(local, fresh, position)
    new = fresh[local[fresh] == position]
    local[new] = np.arange(base, base + new.size)
    return new


def _fanout_mask(
    owners: np.ndarray, num_owners: int, fanout: int, rng: np.random.Generator
) -> np.ndarray:
    """Keep-mask over gathered slots: at most ``fanout`` per owner.

    ``owners`` is non-decreasing (an ``expand_frontier`` gather).  Slots
    of owners with more than ``fanout`` get one uniform key each; sorting
    by ``owner + key / 2`` shuffles every segment in place (halved, a key
    can never round up into the next owner's range), and the slots that
    land past rank ``fanout`` are dropped.  A slot's rank counts from its
    segment's start, the exclusive running sum of the over-fanout lengths.
    """
    keep = np.ones(owners.size, dtype=bool)
    if fanout < 0:
        return keep
    lengths = np.bincount(owners, minlength=num_owners)
    over = np.flatnonzero(lengths[owners] > fanout)
    if over.size:
        segment = owners[over]
        shuffled = np.argsort(segment + 0.5 * rng.random(over.size))
        sampled = np.where(lengths > fanout, lengths, 0)
        starts = np.cumsum(sampled) - sampled
        rank = np.arange(over.size) - starts[segment]
        keep[over[shuffled[rank >= fanout]]] = False
    return keep


def _assemble_block(
    handle,
    node_ids: np.ndarray,
    seed_local: np.ndarray,
    src: List[np.ndarray],
    dst: List[np.ndarray],
) -> Block:
    """The block of sampled edges already in local ids.

    The graph ``Graph.from_edges`` would build from them: the undirected
    union of the edges through :func:`~repro.graph.kernels.csr_from_pairs`.
    """
    m = node_ids.size
    none = np.empty(0, dtype=np.int64)  # a zero-hop sample has no edge arrays
    indptr, indices, _ = csr_from_pairs(
        np.concatenate([none, *src]), np.concatenate([none, *dst]),
        (m, m), directed=False,
    )
    labels = handle.vertex_labels
    if labels is not None:
        labels = labels[node_ids]
    return Block(
        graph=Graph(indptr, indices, vertex_labels=labels),
        node_ids=node_ids,
        seed_local=seed_local,
    )


def _id_map(handle) -> np.ndarray:
    """A global -> local id map that holds no vertex (every entry -1)."""
    return np.full(handle.num_vertices, -1, dtype=np.int64)


def _sample(
    handle,
    seeds: Sequence[int],
    fanouts: Sequence[int],
    rng: np.random.Generator,
    local: np.ndarray,
) -> Block:
    """:func:`sample_neighbors` over a clean id map ``local``, left clean.

    Each frontier fills one contiguous local range, so a hop's sources
    are its owners shifted by the range's base; its targets are one
    gather of the map.  The ``finally`` restores -1 at exactly the
    entries the sample wrote, so a batch costs O(block), never O(n).
    """
    seeds = _checked_seeds(seeds, handle.num_vertices)
    touched: List[np.ndarray] = []
    try:
        frontier = _first_seen(seeds, local, 0, touched)
        discovered = [frontier]
        base = 0
        src: List[np.ndarray] = []
        dst: List[np.ndarray] = []
        for fanout in fanouts:
            if frontier.size == 0:
                break
            owners, nbrs = handle.expand_frontier(frontier)
            keep = _fanout_mask(owners, frontier.size, fanout, rng)
            owners, nbrs = owners[keep], nbrs[keep]
            end = base + frontier.size
            frontier = _first_seen(nbrs, local, end, touched)
            discovered.append(frontier)
            src.append(owners + base)
            dst.append(local[nbrs])
            base = end
        return _assemble_block(
            handle, np.concatenate(discovered), local[seeds], src, dst
        )
    finally:
        for ids in touched:
            local[ids] = -1


def sample_neighbors(
    graph: Graph,
    seeds: Sequence[int],
    fanouts: Sequence[int],
    rng: Optional[np.random.Generator] = None,
) -> Block:
    """Multi-layer fanout sampling around ``seeds``.

    ``fanouts[k]`` caps the neighbors drawn per node at hop ``k``
    (``-1`` = keep all).  Returns one block containing the union of all
    sampled nodes and the sampled edges; ``node_ids`` lists the distinct
    seeds, then every other vertex in order of first discovery.  A
    one-off call allocates its own id map; :class:`NeighborSampler`
    keeps one for all its batches.
    """
    handle = as_handle(graph)
    return _sample(
        handle, seeds, fanouts, rng or np.random.default_rng(), _id_map(handle)
    )


class NeighborSampler:
    """Reusable sampler with fixed fanouts and a seeded RNG.

    Holds one global -> local id map (``int64[n]``, -1 outside a
    sample) for its lifetime; each batch writes and restores only its
    block's entries.  Like its generator, a sampler serves one thread.
    """

    def __init__(self, graph: Graph, fanouts: Sequence[int], seed: int = 0) -> None:
        self.graph = graph
        self.handle = as_handle(graph)
        self.fanouts = list(fanouts)
        self.rng = np.random.default_rng(seed)
        self._local = _id_map(self.handle)

    def sample(self, seeds: Sequence[int]) -> Block:
        return _sample(self.handle, seeds, self.fanouts, self.rng, self._local)


def khop_subgraph(graph: Graph, seed: int, k: int) -> Block:
    """The complete k-hop neighborhood of one seed (AGL materialization)."""
    block = sample_neighbors(
        graph, [seed], fanouts=[-1] * k, rng=np.random.default_rng(0)
    )
    return block


def layerwise_sample(
    graph: Graph,
    seeds: Sequence[int],
    nodes_per_layer: Sequence[int],
    rng: Optional[np.random.Generator] = None,
) -> Block:
    """FastGCN-style layer-wise importance sampling.

    Node-wise fanout sampling (:func:`sample_neighbors`) suffers
    *neighbor explosion*: the block grows multiplicatively with depth.
    Layer-wise sampling instead draws a fixed set of ``nodes_per_layer[k]``
    vertices per layer — importance-weighted by degree — and keeps only
    edges between consecutive layers, so the block size is *additive*
    in depth.  The price is possibly disconnected seeds (handled by
    always including each layer's frontier parents' neighbors in the
    candidate pool).
    """
    handle = as_handle(graph)
    rng = rng or np.random.default_rng()
    seeds = _checked_seeds(seeds, handle.num_vertices)
    degrees = handle.degrees()
    local = _id_map(handle)  # private to this call: nothing to restore
    touched: List[np.ndarray] = []
    layer = _first_seen(seeds, local, 0, touched)
    discovered = [layer]
    size = layer.size
    src: List[np.ndarray] = []
    dst: List[np.ndarray] = []
    for budget in nodes_per_layer:
        # Candidate pool: union of the previous layer's neighborhoods.
        owners, nbrs = handle.expand_frontier(layer)
        if nbrs.size == 0:
            layer = nbrs
            continue
        pool = np.unique(nbrs)
        # Importance ~ degree (FastGCN uses squared norms; degree is the
        # standard unlabeled proxy).
        weights = degrees[pool].astype(np.float64)
        weights = weights / weights.sum()
        chosen = rng.choice(
            pool, size=min(budget, pool.size), replace=False, p=weights
        )
        kept = np.isin(nbrs, chosen)
        discovered.append(_first_seen(chosen, local, size, touched))
        size += discovered[-1].size
        src.append(local[layer[owners[kept]]])
        dst.append(local[nbrs[kept]])
        layer = chosen
    return _assemble_block(handle, np.concatenate(discovered), local[seeds], src, dst)
