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
per-vertex or per-edge Python.

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


def _unique_in_order(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ``ids``, ordered by first occurrence."""
    _, first = np.unique(ids, return_index=True)
    return ids[np.sort(first)]


def _fanout_mask(
    owners: np.ndarray, num_owners: int, fanout: int, rng: np.random.Generator
) -> np.ndarray:
    """Keep-mask over gathered slots: at most ``fanout`` per owner.

    ``owners`` is non-decreasing (an ``expand_frontier`` gather).  Slots
    of owners with more than ``fanout`` get one uniform key each; sorting
    by ``owner + key / 2`` shuffles every segment in place (halved, a key
    can never round up into the next owner's range), and the slots that
    land past rank ``fanout`` are dropped.
    """
    keep = np.ones(owners.size, dtype=bool)
    if fanout < 0:
        return keep
    lengths = np.bincount(owners, minlength=num_owners)
    over = np.flatnonzero(lengths[owners] > fanout)
    if over.size:
        segment = owners[over]
        shuffled = np.argsort(segment + 0.5 * rng.random(over.size))
        rank = np.arange(over.size) - np.searchsorted(segment, segment)
        keep[over[shuffled[rank >= fanout]]] = False
    return keep


def _assemble_block(
    handle,
    node_ids: np.ndarray,
    seeds: np.ndarray,
    src: List[np.ndarray],
    dst: List[np.ndarray],
) -> Block:
    """Compact sampled edges (global ids, unique ``node_ids``) into a block.

    The graph ``Graph.from_edges`` would build from them, as array code:
    the undirected union of the edges, de-duplicated, self-loops
    dropped, rows sorted.
    """
    m = node_ids.size
    order = np.argsort(node_ids)
    sorted_ids = node_ids[order]

    def local(ids: np.ndarray) -> np.ndarray:
        return order[np.searchsorted(sorted_ids, ids)]

    none = np.empty(0, dtype=np.int64)  # a zero-hop sample has no edge arrays
    u = local(np.concatenate([none, *src]))
    v = local(np.concatenate([none, *dst]))
    proper = u != v
    u, v = u[proper], v[proper]
    # Both directions under one row-major key: the distinct keys, sorted,
    # are the CSR entries in (row, column) order.
    slots = np.concatenate([u * m + v, v * m + u])
    slots.sort()
    distinct = np.ones(slots.size, dtype=bool)
    distinct[1:] = slots[1:] != slots[:-1]
    slots = slots[distinct]
    rows, indices = np.divmod(slots, max(m, 1))
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    labels = handle.vertex_labels
    if labels is not None:
        labels = labels[node_ids]
    return Block(
        graph=Graph(indptr, indices, vertex_labels=labels),
        node_ids=node_ids,
        seed_local=local(seeds),
    )


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
    seeds, then every other vertex in order of first discovery.
    """
    handle = as_handle(graph)
    rng = rng or np.random.default_rng()
    seeds = _checked_seeds(seeds, handle.num_vertices)
    node_ids = frontier = _unique_in_order(seeds)
    src: List[np.ndarray] = []
    dst: List[np.ndarray] = []
    for fanout in fanouts:
        if frontier.size == 0:
            break
        owners, nbrs = handle.expand_frontier(frontier)
        keep = _fanout_mask(owners, frontier.size, fanout, rng)
        owners, nbrs = owners[keep], nbrs[keep]
        src.append(frontier[owners])
        dst.append(nbrs)
        frontier = _unique_in_order(nbrs[~np.isin(nbrs, node_ids)])
        node_ids = np.concatenate([node_ids, frontier])
    return _assemble_block(handle, node_ids, seeds, src, dst)


class NeighborSampler:
    """Reusable sampler with fixed fanouts and a seeded RNG."""

    def __init__(self, graph: Graph, fanouts: Sequence[int], seed: int = 0) -> None:
        self.graph = graph
        self.fanouts = list(fanouts)
        self.rng = np.random.default_rng(seed)

    def sample(self, seeds: Sequence[int]) -> Block:
        return sample_neighbors(self.graph, seeds, self.fanouts, rng=self.rng)

    def batches(
        self, nodes: Sequence[int], batch_size: int
    ) -> List[Block]:
        """Shuffle ``nodes`` and sample one block per mini-batch."""
        nodes = np.asarray(list(nodes), dtype=np.int64)
        order = self.rng.permutation(nodes.size)
        blocks = []
        for start in range(0, nodes.size, batch_size):
            batch = nodes[order[start: start + batch_size]]
            blocks.append(self.sample(batch))
        return blocks


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
    node_ids = layer = _unique_in_order(seeds)
    degrees = handle.degrees()
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
        src.append(layer[owners[kept]])
        dst.append(nbrs[kept])
        node_ids = np.concatenate([node_ids, chosen[~np.isin(chosen, node_ids)]])
        layer = chosen
    return _assemble_block(handle, node_ids, seeds, src, dst)
