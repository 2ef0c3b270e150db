"""GNN layers: GCN, GraphSAGE, GAT.

Each layer follows the two-stage structure the tutorial identifies in
every GNN system: *graph data retrieving* (gather neighbor features)
followed by *model computation* (dense transforms).  The gather/scatter
primitives of :mod:`repro.gnn.tensor` make the retrieval stage an
explicit, measurable step — the distributed trainers intercept exactly
that step to price communication.

GCN, GraphSAGE-mean and GIN aggregate with
:meth:`GraphTensors.propagate`: gather · weight · scatter over the
graph's edge list as one tape node (:meth:`Tensor.propagate
<repro.gnn.tensor.Tensor.propagate>`), bit-identical to the three
primitives.  GCN weighs each message by ``gcn_norm``; SAGE divides the
sum by the in-degree afterwards, as before (folding the mean into the
weight would round differently).  GAT's weights are live attention
coefficients and SAGE-pool takes a max, so both keep the primitives.

Layers operate on a :class:`GraphTensors` bundle precomputed from a
:class:`~repro.graph.csr.Graph` (edge endpoints + normalization), so
the same layer code runs on the full graph, on a sampled block, or on a
worker's local partition.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..graph.csr import Graph
from ..graph.store.handle import as_handle
from .tensor import Parameter, RowBuckets, Tensor

__all__ = ["GraphTensors", "Module", "Linear", "GCNLayer", "SAGELayer", "SAGEPoolLayer", "GATLayer", "GINLayer"]


class GraphTensors:
    """Edge-list view of a graph, ready for gather/scatter aggregation.

    ``src``/``dst`` list every directed edge (both directions of each
    undirected edge) plus, when ``add_self_loops``, one self-loop per
    vertex; ``gcn_norm`` carries the symmetric normalization
    ``1/sqrt(deg(u) deg(v))`` used by GCN.

    ``graph`` is a ``Graph`` or any graph handle (in-memory or stored);
    it is read with one ``expand_frontier`` over all vertices, so a
    stored graph pages each partition's shards once.
    """

    def __init__(self, graph: Graph, add_self_loops: bool = True) -> None:
        handle = as_handle(graph)
        n = handle.num_vertices
        vertices = np.arange(n, dtype=np.int64)
        self.dst, self.src = handle.expand_frontier(vertices)
        if add_self_loops:
            self.src = np.concatenate([self.src, vertices])
            self.dst = np.concatenate([self.dst, vertices])
        self.num_vertices = n
        deg = np.bincount(self.dst, minlength=n).astype(np.float64)
        deg[deg == 0] = 1.0
        self.in_degree = deg
        norm = 1.0 / np.sqrt(deg)
        self.gcn_norm = (norm[self.src] * norm[self.dst]).reshape(-1, 1)
        self._sources = RowBuckets(self.src, n)
        self._targets = RowBuckets(self.dst, n)

    @property
    def num_messages(self) -> int:
        return self.src.size

    def propagate(self, h: Tensor, weight: Optional[np.ndarray] = None) -> Tensor:
        """Sum each vertex's incoming messages: ``out[dst[e]] +=
        weight[e] · h[src[e]]`` (``weight`` of shape ``(E, 1)``, or
        ``None`` for plain sums), one tape node.

        The scatter layouts of both sides are built once per row width
        and kept on this bundle, so every epoch and every evaluation
        over it reuses them.
        """
        return h.propagate(self._sources, self._targets, weight)


class Module:
    """Base class with parameter discovery."""

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Parameter):
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> List[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: List[np.ndarray]) -> None:
        for p, s in zip(self.parameters(), state):
            p.data = s.copy()


def _glorot(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


class Linear(Module):
    """Dense layer ``x @ W + b``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.weight = Parameter(_glorot(in_dim, out_dim, rng), name="linear.W")
        self.bias = Parameter(np.zeros(out_dim), name="linear.b")

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class GCNLayer(Module):
    """Graph convolution: ``H' = sigma(D^-1/2 A D^-1/2 H W)``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.weight = Parameter(_glorot(in_dim, out_dim, rng), name="gcn.W")
        self.bias = Parameter(np.zeros(out_dim), name="gcn.b")

    def __call__(self, gt: GraphTensors, h: Tensor) -> Tensor:
        return gt.propagate(h, gt.gcn_norm) @ self.weight + self.bias


class SAGELayer(Module):
    """GraphSAGE [16] with mean aggregation.

    ``h_v' = sigma(W . CONCAT(h_v, mean_{u in N(v)} h_u))`` — the exact
    formulation quoted in the tutorial's Section 3.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.weight = Parameter(_glorot(2 * in_dim, out_dim, rng), name="sage.W")
        self.bias = Parameter(np.zeros(out_dim), name="sage.b")

    def __call__(self, gt: GraphTensors, h: Tensor) -> Tensor:
        mean = gt.propagate(h) * (1.0 / gt.in_degree.reshape(-1, 1))
        combined = h.concat(mean, axis=1)
        return combined @ self.weight + self.bias


class SAGEPoolLayer(Module):
    """GraphSAGE with max-pool aggregation.

    ``h_v' = W . CONCAT(h_v, max_{u in N(v)} sigma(W_pool h_u))`` — the
    pool variant of [16]; neighbors pass through a learned transform and
    an element-wise max, which is order-invariant but, unlike the mean,
    sensitive to extremes.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.pool = Parameter(_glorot(in_dim, in_dim, rng), name="sagepool.Wp")
        self.pool_bias = Parameter(np.zeros(in_dim), name="sagepool.bp")
        self.weight = Parameter(_glorot(2 * in_dim, out_dim, rng), name="sagepool.W")
        self.bias = Parameter(np.zeros(out_dim), name="sagepool.b")

    def __call__(self, gt: GraphTensors, h: Tensor) -> Tensor:
        transformed = (h @ self.pool + self.pool_bias).relu()
        messages = transformed.gather_rows(gt.src)
        pooled = messages.scatter_max(gt.dst, gt.num_vertices)
        combined = h.concat(pooled, axis=1)
        return combined @ self.weight + self.bias


class GATLayer(Module):
    """Single-head graph attention (GAT).

    Attention logits ``e_uv = LeakyReLU(a_s . Wh_u + a_d . Wh_v)`` are
    softmax-normalized per destination via the scatter primitives.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.weight = Parameter(_glorot(in_dim, out_dim, rng), name="gat.W")
        self.attn_src = Parameter(
            rng.normal(0, 0.1, size=(out_dim, 1)), name="gat.a_s"
        )
        self.attn_dst = Parameter(
            rng.normal(0, 0.1, size=(out_dim, 1)), name="gat.a_d"
        )

    def __call__(self, gt: GraphTensors, h: Tensor) -> Tensor:
        z = h @ self.weight
        alpha_s = (z @ self.attn_src).gather_rows(gt.src)
        alpha_d = (z @ self.attn_dst).gather_rows(gt.dst)
        logits = (alpha_s + alpha_d).leaky_relu(0.2)
        # Numerically-stable per-destination softmax via exp/scatter-sum.
        weights = logits.exp()
        denom = weights.scatter_add(gt.dst, gt.num_vertices).gather_rows(gt.dst)
        attn = weights / (denom + 1e-12)
        messages = z.gather_rows(gt.src) * attn
        return messages.scatter_add(gt.dst, gt.num_vertices)


class GINLayer(Module):
    """Graph Isomorphism Network layer (the 1-WL-maximal aggregator).

    ``h_v' = MLP((1 + eps) h_v + sum_{u in N(v)} h_u)`` — GIN's sum
    aggregation is injective on neighbor multisets, making the model
    exactly as powerful as 1-WL (the bound Subgraph GNNs exceed; see
    :mod:`repro.gnn.subgraph_gnn`).
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 eps: float = 0.0) -> None:
        self.eps = Parameter(np.array([eps]), name="gin.eps")
        self.w1 = Parameter(_glorot(in_dim, out_dim, rng), name="gin.W1")
        self.b1 = Parameter(np.zeros(out_dim), name="gin.b1")
        self.w2 = Parameter(_glorot(out_dim, out_dim, rng), name="gin.W2")
        self.b2 = Parameter(np.zeros(out_dim), name="gin.b2")

    def __call__(self, gt: GraphTensors, h: Tensor) -> Tensor:
        combined = h * (1.0 + self.eps) + gt.propagate(h)
        hidden = (combined @ self.w1 + self.b1).relu()
        return hidden @ self.w2 + self.b2
