"""The :class:`GraphHandle` protocol and its in-memory implementation.

Every engine family (TLAV per-vertex + dense, TLAG, matching, GNN,
serve) now takes a *handle* — a uniform structural surface over graph
storage — instead of a concrete :class:`~repro.graph.csr.Graph`:

=============================  ========================================
``num_vertices``               vertex count
``neighbors(v)``               int64 array of ``v``'s out-neighbors
                               (sorted)
``expand_frontier(vertices)``  ``(owners, neighbors)``: the neighbor
                               lists of a vertex batch concatenated in
                               input order — one gather per touched
                               partition (the contract of
                               :func:`repro.graph.kernels.expand_frontier`)
``degree(v)``                  out-degree of one vertex
``degrees()``                  int64 array of all out-degrees
``num_edge_slots``             directed adjacency entries (cost-model
                               input)
``features(...)``              float64 feature rows, or ``None``
``partition(i)``               :class:`PartitionView` of one
                               partition's local CSR
``to_graph()``                 materialize a concrete :class:`Graph`
=============================  ========================================

:class:`InMemoryGraph` wraps a live :class:`Graph`;
:class:`~repro.graph.store.stored.StoredGraph` pages memory-mapped
shards on demand.  :func:`as_handle` is the single coercion point the
entry-point sweep funnels through: it accepts a handle (pass-through),
a ``Graph``, or a store-directory path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..csr import Graph
from ..kernels import expand_frontier
from ..partition import Partition
from .format import StoreError, is_store_dir


__all__ = [
    "GraphHandle",
    "PartitionView",
    "InMemoryGraph",
    "as_handle",
]


@dataclass(frozen=True)
class PartitionView:
    """One partition's local CSR, in global-id vocabulary.

    ``nodes[i]`` is the global id of local vertex ``i``; the slice
    ``indices[indptr[i]:indptr[i+1]]`` holds its neighbors as *global*
    ids, sorted ascending.
    """

    part_id: int
    nodes: np.ndarray  # int64[n_k], ascending global ids
    indptr: np.ndarray  # int64[n_k + 1]
    indices: np.ndarray  # int64[e_k], global neighbor ids

    @property
    def num_vertices(self) -> int:
        return int(self.nodes.size)

    @property
    def num_edge_slots(self) -> int:
        return int(self.indices.size)

    def neighbors(self, global_id: int) -> np.ndarray:
        """Neighbors of a vertex this partition owns, by global id."""
        local = int(np.searchsorted(self.nodes, global_id))
        if local >= self.nodes.size or self.nodes[local] != global_id:
            raise KeyError(
                f"vertex {global_id} is not owned by partition {self.part_id}"
            )
        return self.indices[self.indptr[local]: self.indptr[local + 1]]


def checked_vertex_ids(vertices: Any, num_vertices: int) -> np.ndarray:
    """``vertices`` as int64; ``IndexError`` unless all in ``[0, n)``.

    Numpy would wrap a negative id to the other end of a resident array
    and clamp nothing, so a batch that arrives from outside is checked
    once here instead of answering with some other vertex's row.  A
    batch comes back as an array, a single integer id as an ``int``
    (checked without the array round trip or a numpy scalar, for
    per-vertex callers such as the label and edge lookups).
    """
    if isinstance(vertices, (int, np.integer)):
        lo = hi = vertices = int(vertices)
    else:
        vertices = np.asarray(vertices, dtype=np.int64)
        if not vertices.size:
            return vertices
        lo, hi = int(vertices.min()), int(vertices.max())
    if lo < 0 or hi >= num_vertices:
        raise IndexError(
            f"vertex ids must lie in [0, {num_vertices}); got {lo}..{hi}"
        )
    return vertices


@runtime_checkable
class GraphHandle(Protocol):
    """Structural protocol every graph handle satisfies."""

    is_graph_handle: bool

    @property
    def num_vertices(self) -> int: ...

    @property
    def num_edge_slots(self) -> int: ...

    @property
    def directed(self) -> bool: ...

    def neighbors(self, v: int) -> np.ndarray: ...

    def expand_frontier(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]: ...

    def degree(self, v: int) -> int: ...

    def degrees(self) -> np.ndarray: ...

    def features(self, ids: Optional[np.ndarray] = None) -> Optional[np.ndarray]: ...

    def partition(self, i: int) -> PartitionView: ...

    def to_graph(self) -> Graph: ...


class InMemoryGraph:
    """A handle over a live :class:`Graph` (plus optional features).

    Delegates every structural query straight to the wrapped CSR —
    zero-copy, zero overhead beyond one attribute hop.  An optional
    :class:`~repro.graph.partition.Partition` gives ``partition(i)``
    real views; without one the whole graph is partition 0.
    """

    is_graph_handle = True

    def __init__(
        self,
        graph: Graph,
        features: Optional[np.ndarray] = None,
        partition: Optional[Partition] = None,
        name: str = "in-memory",
    ) -> None:
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != graph.num_vertices:
                raise ValueError(
                    f"features must be (n, d); got {features.shape} for "
                    f"n={graph.num_vertices}"
                )
        self._graph = graph
        self._features = features
        self._partition = partition
        self.name = name

    # -- structural surface (delegation) -----------------------------------

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self._graph.num_edges

    @property
    def num_edge_slots(self) -> int:
        return int(self._graph.indices.size)

    @property
    def directed(self) -> bool:
        return self._graph.directed

    @property
    def indptr(self) -> np.ndarray:
        return self._graph.indptr

    @property
    def indices(self) -> np.ndarray:
        return self._graph.indices

    @property
    def vertex_labels(self) -> Optional[np.ndarray]:
        return self._graph.vertex_labels

    @property
    def edge_labels(self) -> Optional[np.ndarray]:
        return self._graph.edge_labels

    @property
    def num_parts(self) -> int:
        return 1 if self._partition is None else self._partition.num_parts

    @property
    def vertex_partition(self) -> Optional[Partition]:
        """The live :class:`Partition` backing ``partition(i)``, if any."""
        return self._partition

    @property
    def assignment(self) -> Optional[np.ndarray]:
        """Vertex -> owning partition (``None`` when unpartitioned)."""
        return None if self._partition is None else self._partition.assignment

    def part_of(self, v: int) -> int:
        """Partition owning vertex ``v`` (0 when unpartitioned)."""
        v = checked_vertex_ids(v, self.num_vertices)
        if self._partition is None:
            return 0
        return int(self._partition.assignment[v])

    def vertices(self) -> range:
        return self._graph.vertices()

    def neighbors(self, v: int) -> np.ndarray:
        return self._graph.neighbors(checked_vertex_ids(v, self.num_vertices))

    def expand_frontier(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists of ``vertices`` and their owners.

        ``neighbors`` equals ``concatenate([self.neighbors(v) for v in
        vertices])`` in input order (duplicates and unsorted input
        allowed); ``owners[k]`` is the input position that contributed
        ``neighbors[k]``.  Ids outside ``[0, n)`` raise ``IndexError``.
        """
        graph = self._graph
        vertices = checked_vertex_ids(vertices, graph.num_vertices)
        return expand_frontier(graph.indptr, graph.indices, vertices)

    def degree(self, v: int) -> int:
        return self._graph.degree(checked_vertex_ids(v, self.num_vertices))

    def degrees(self) -> np.ndarray:
        return self._graph.degrees()

    def has_edge(self, u: int, v: int) -> bool:
        n = self.num_vertices
        return self._graph.has_edge(checked_vertex_ids(u, n), checked_vertex_ids(v, n))

    def edge_label(self, u: int, v: int) -> int:
        n = self.num_vertices
        return self._graph.edge_label(checked_vertex_ids(u, n), checked_vertex_ids(v, n))

    def vertex_label(self, v: int) -> int:
        return self._graph.vertex_label(checked_vertex_ids(v, self.num_vertices))

    def edges(self):
        return self._graph.edges()

    def orient_by_degree(self) -> Graph:
        return self._graph.orient_by_degree()

    def reverse(self) -> Graph:
        return self._graph.reverse()

    def subgraph(self, keep):
        return self._graph.subgraph(keep)

    def features(
        self, ids: Optional[np.ndarray] = None
    ) -> Optional[np.ndarray]:
        if self._features is None:
            return None
        if ids is None:
            return self._features
        return self._features[checked_vertex_ids(ids, self.num_vertices)]

    @property
    def feature_dim(self) -> Optional[int]:
        return None if self._features is None else int(self._features.shape[1])

    def partition(self, i: int) -> PartitionView:
        graph = self._graph
        if self._partition is None:
            if i != 0:
                raise IndexError(
                    f"unpartitioned in-memory graph has only partition 0, not {i}"
                )
            nodes = np.arange(graph.num_vertices, dtype=np.int64)
            return PartitionView(0, nodes, graph.indptr, graph.indices)
        nodes = np.sort(self._partition.part(i)).astype(np.int64)
        indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(graph.degrees()[nodes], out=indptr[1:])
        _, indices = expand_frontier(graph.indptr, graph.indices, nodes)
        return PartitionView(i, nodes, indptr, indices)

    def iter_csr_runs(self) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(lo, hi, indptr_run, indices_run)`` source-major runs.

        The in-memory graph is one run: the whole CSR.  Matches
        :meth:`StoredGraph.iter_csr_runs` so dense supersteps can scatter
        in identical global order over either handle.
        """
        graph = self._graph
        yield 0, graph.num_vertices, graph.indptr, graph.indices

    def to_graph(self) -> Graph:
        return self._graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InMemoryGraph(n={self.num_vertices}, "
            f"slots={self.num_edge_slots}, parts={self.num_parts})"
        )


def as_handle(
    obj: Any,
    *,
    cache_budget: Optional[int] = None,
    obs: Optional["MetricsRegistry"] = None,
    features: Optional[np.ndarray] = None,
) -> "GraphHandle":
    """Coerce anything graph-shaped into a :class:`GraphHandle`.

    Accepts, in priority order:

    * an existing handle (``is_graph_handle`` marker) — returned as-is;
    * a concrete :class:`Graph` — wrapped in :class:`InMemoryGraph`;
    * a store-directory path (``str`` / ``os.PathLike``) — opened as a
      :class:`~repro.graph.store.stored.StoredGraph` with the given
      ``cache_budget`` / ``obs``.

    This is the single coercion point behind every redesigned engine
    entry point, so "engine takes a handle" is one code path, not five.
    """
    if getattr(obj, "is_graph_handle", False):
        return obj
    if isinstance(obj, Graph):
        return InMemoryGraph(obj, features=features)
    if isinstance(obj, (str, os.PathLike)):
        path = os.fspath(obj)
        if not is_store_dir(path):
            raise StoreError(
                f"{path!r} is not a graph store (no graph.json manifest)"
            )
        from .stored import open_store

        return open_store(path, cache_budget=cache_budget, obs=obs)
    raise TypeError(
        f"cannot interpret {type(obj).__name__} as a graph handle; pass a "
        f"Graph, an InMemoryGraph/StoredGraph, or a store directory path"
    )
