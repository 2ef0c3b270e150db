"""The :class:`GraphHandle` protocol and its in-memory implementation.

Every engine family (TLAV per-vertex + dense, TLAG, matching, GNN,
serve) takes a *handle* — a uniform structural surface over graph
storage — instead of a concrete :class:`~repro.graph.csr.Graph`.  This
table is the whole contract: :class:`GraphHandle` declares exactly these
members, :class:`InMemoryGraph` implements exactly these, and
:class:`~repro.graph.store.stored.StoredGraph` implements these plus its
store lifecycle (``root``, ``manifest``, ``cache``, ``cache_stats``,
``close``, ``version``, ``bump_version``).  Engines read the members
directly; none probes with ``getattr``.  :func:`as_handle` recognises a
handle by its ``is_graph_handle`` marker.

=============================  ===============================================
*sizes, flags and names*
``num_vertices``               vertex count
``num_edges``                  edge count (undirected edges once)
``num_edge_slots``             directed adjacency entries (cost-model input)
``directed``                   whether edges are one-way
``name``                       label for reports and serve records
``num_parts``                  partition count (1 when unpartitioned)
``feature_dim``                feature width, or ``None``
*label and layout arrays*
``vertex_labels``              int per vertex, or ``None``
``edge_labels``                int per CSR slot, or ``None``
``assignment``                 vertex -> owning partition; ``None`` for an
                               unpartitioned in-memory graph
*per-vertex reads*
``vertices()``                 ``range(num_vertices)``
``neighbors(v)``               sorted int64 out-neighbors of ``v``
``degree(v)`` / ``degrees()``  out-degree of one vertex / of all (int64)
``vertex_label(v)``            vertex label (0 when unlabelled)
``edge_label(u, v)``           label of the edge ``(u, v)``; ``ValueError``
                               when the graph has no edge labels,
                               ``KeyError`` when the edge is absent
``part_of(v)``                 partition owning ``v`` (0 when unpartitioned)
*batched reads*
``expand_frontier(vertices)``  ``(owners, neighbors)`` of a batch in input
                               order, one gather per touched partition (the
                               contract of :func:`repro.graph.kernels.expand_frontier`)
``edge_slots(us, ws)``         global CSR slot of each edge ``(us[k], ws[k])``
                               or -1: the batched membership test
``iter_csr_runs()``            ascending source-major ``(lo, hi, indptr,
                               indices)`` windows of the global CSR
``features(ids=None)``         float64 feature rows, or ``None``
*whole-graph*
``orient_by_degree()``         degree-ordered DAG as a :class:`Graph`
``to_graph()``                 materialize a concrete :class:`Graph`
=============================  ===============================================

Every vertex id a member takes is checked: ids outside ``[0, n)``
raise ``IndexError`` on both handles.
"""

from __future__ import annotations

import os
from typing import Any, Iterator, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..csr import Graph
from ..kernels import expand_frontier
from ..partition import Partition
from .format import StoreError, is_store_dir


__all__ = [
    "GraphHandle",
    "InMemoryGraph",
    "as_handle",
]


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
    """Structural protocol every graph handle satisfies (see the table)."""

    is_graph_handle: bool

    # -- sizes, flags and names
    @property
    def num_vertices(self) -> int: ...
    @property
    def num_edges(self) -> int: ...
    @property
    def num_edge_slots(self) -> int: ...
    @property
    def directed(self) -> bool: ...
    @property
    def name(self) -> str: ...
    @property
    def num_parts(self) -> int: ...
    @property
    def feature_dim(self) -> Optional[int]: ...

    # -- label and layout arrays
    @property
    def vertex_labels(self) -> Optional[np.ndarray]: ...
    @property
    def edge_labels(self) -> Optional[np.ndarray]: ...
    @property
    def assignment(self) -> Optional[np.ndarray]: ...

    # -- per-vertex reads
    def vertices(self) -> range: ...
    def neighbors(self, v: int) -> np.ndarray: ...
    def degree(self, v: int) -> int: ...
    def degrees(self) -> np.ndarray: ...
    def vertex_label(self, v: int) -> int: ...
    def edge_label(self, u: int, v: int) -> int: ...
    def part_of(self, v: int) -> int: ...

    # -- batched reads
    def expand_frontier(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]: ...
    def edge_slots(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray: ...
    def iter_csr_runs(self) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]: ...
    def features(self, ids: Optional[np.ndarray] = None) -> Optional[np.ndarray]: ...

    # -- whole-graph
    def orient_by_degree(self) -> Graph: ...
    def to_graph(self) -> Graph: ...


class InMemoryGraph:
    """A handle over a live :class:`Graph` (plus optional features).

    Delegates every structural query straight to the wrapped CSR —
    zero-copy, zero overhead beyond one attribute hop.  An optional
    :class:`~repro.graph.partition.Partition` supplies ``assignment``
    and ``part_of``; without one the whole graph is partition 0.
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
    def vertex_labels(self) -> Optional[np.ndarray]:
        return self._graph.vertex_labels

    @property
    def edge_labels(self) -> Optional[np.ndarray]:
        return self._graph.edge_labels

    @property
    def num_parts(self) -> int:
        return 1 if self._partition is None else self._partition.num_parts

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

    def edge_slots(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Global CSR slot of each edge ``(us[k], ws[k])``, or -1.

        One lookup of the pair codes ``u·n + w`` in the graph's cached
        index of its sorted slot codes (:meth:`Graph.edge_index`): a
        presence-table probe, then a binary search of the pairs that
        pass.  Ids outside ``[0, n)`` raise ``IndexError``.
        """
        n = self.num_vertices
        us = checked_vertex_ids(us, n)
        ws = checked_vertex_ids(ws, n)
        return self._graph.edge_index().find(us * n + ws)

    def degree(self, v: int) -> int:
        return self._graph.degree(checked_vertex_ids(v, self.num_vertices))

    def degrees(self) -> np.ndarray:
        return self._graph.degrees()

    def edge_label(self, u: int, v: int) -> int:
        n = self.num_vertices
        return self._graph.edge_label(checked_vertex_ids(u, n), checked_vertex_ids(v, n))

    def vertex_label(self, v: int) -> int:
        return self._graph.vertex_label(checked_vertex_ids(v, self.num_vertices))

    def orient_by_degree(self) -> Graph:
        return self._graph.orient_by_degree()

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

    def iter_csr_runs(self) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(lo, hi, indptr_win, indices_win)`` source-major id windows.

        The in-memory graph is one window: the whole CSR.  Matches
        :meth:`StoredGraph.iter_csr_runs` (ascending windows, rebased
        ``indptr``, global neighbor ids) so dense supersteps can scatter
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
