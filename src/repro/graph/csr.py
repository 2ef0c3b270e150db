"""Compressed-sparse-row graph storage.

This is the storage substrate shared by every engine in the library: the
TLAV (Pregel-like) engine, the TLAG subgraph-search engines, the FSM
miners, and the GNN samplers all read adjacency through :class:`Graph`.

Design notes
------------
* Vertices are dense integer ids ``0..n-1``; numpy ``int64`` arrays hold
  the CSR index (``indptr``) and the concatenated adjacency lists
  (``indices``).
* Adjacency lists are kept **sorted**, which gives ``O(log d)`` edge
  lookups via binary search and lets the matching engines intersect
  neighbor lists with merge joins (the core kernel of systems such as
  AutoMine and GraphPi).
* Graphs are immutable after construction.  Every CSR the library
  builds goes through :func:`~repro.graph.kernels.csr_from_pairs`,
  which deduplicates edges (first label wins) and drops self-loops;
  :class:`GraphBuilder` and :meth:`Graph.from_edges` are its front ends.
* Optional integer vertex labels and edge labels support the labeled
  matching and FSM workloads; unlabeled graphs simply leave them ``None``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .kernels import PresenceIndex, csr_from_pairs, edge_array, expand_frontier

__all__ = ["Graph", "GraphBuilder"]


class Graph:
    """An immutable graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the neighbors of vertex ``v``
        are ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of neighbor ids, sorted within each vertex's slice.
    directed:
        If ``False`` every edge appears in both endpoint's adjacency list.
    vertex_labels:
        Optional ``int64`` array of length ``n``.
    edge_labels:
        Optional ``int64`` array aligned with ``indices`` (the label of the
        edge ``(v, indices[k])`` is ``edge_labels[k]``).  For undirected
        graphs both copies of an edge carry the same label.

    Prefer :class:`GraphBuilder` or :func:`Graph.from_edges` over calling
    this constructor directly.
    """

    __slots__ = (
        "indptr", "indices", "directed", "vertex_labels", "edge_labels",
        "_edge_index", "_oriented",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        directed: bool = False,
        vertex_labels: Optional[np.ndarray] = None,
        edge_labels: Optional[np.ndarray] = None,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise ValueError("indptr must be a 1-D array of length n + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self.directed = bool(directed)
        self.vertex_labels = (
            None if vertex_labels is None else np.asarray(vertex_labels, dtype=np.int64)
        )
        if self.vertex_labels is not None and self.vertex_labels.size != self.num_vertices:
            raise ValueError("vertex_labels must have one entry per vertex")
        self.edge_labels = (
            None if edge_labels is None else np.asarray(edge_labels, dtype=np.int64)
        )
        if self.edge_labels is not None and self.edge_labels.size != self.indices.size:
            raise ValueError("edge_labels must align with indices")
        self._edge_index = self._oriented = None

    # A pickle carries the defining fields only: the derived caches are
    # rebuilt on demand, and snapshots are priced in pickled bytes.
    def __getstate__(self):
        return (self.indptr, self.indices, self.directed,
                self.vertex_labels, self.edge_labels)

    def __setstate__(self, state) -> None:
        (self.indptr, self.indices, self.directed,
         self.vertex_labels, self.edge_labels) = state
        self._edge_index = self._oriented = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def from_edges(
        edges: Iterable[Tuple[int, int]],
        num_vertices: Optional[int] = None,
        directed: bool = False,
        vertex_labels: Optional[Sequence[int]] = None,
    ) -> "Graph":
        """Build a graph from ``(u, v)`` pairs: an iterable or an
        ``(m, 2)`` array.

        Duplicate edges and self-loops are dropped.  For undirected graphs
        each input pair is inserted in both directions.
        """
        pairs = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        )
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        return _freeze(pairs, directed, -1, num_vertices, vertex_labels)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of edges (each undirected edge counted once)."""
        if self.directed:
            return int(self.indices.size)
        return int(self.indices.size) // 2

    def vertices(self) -> range:
        """Iterate vertex ids ``0..n-1``."""
        return range(self.num_vertices)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (a CSR view; do not mutate)."""
        return self.indices[self.indptr[v]: self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Out-degree of ``v`` (degree, for undirected graphs)."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """All (out-)degrees as an ``int64`` array."""
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """``O(log d)`` membership test via binary search."""
        nbrs = self.neighbors(u)
        k = int(np.searchsorted(nbrs, v))
        return k < nbrs.size and nbrs[k] == v

    def edge_index(self) -> PresenceIndex:
        """``src·n + dst`` of every CSR slot, ascending, behind a presence
        table (built once, cached).

        CSR order already sorts the codes, so ``edge_index().find`` of the
        codes of any batch of ``(u, w)`` pairs is the slot of each edge or
        -1; the table lets most absent pairs skip the binary search.  The
        graph is never mutated after construction, so the cache never goes
        stale; a graph reattached in a pool worker builds it once per
        attach.
        """
        if self._edge_index is None:
            src, dst = edge_array(self.indptr, self.indices)
            self._edge_index = PresenceIndex(src * self.num_vertices + dst)
        return self._edge_index

    def edge_label(self, u: int, v: int) -> int:
        """Label of the edge ``(u, v)``; raises ``KeyError`` if absent."""
        if self.edge_labels is None:
            raise ValueError("graph has no edge labels")
        nbrs = self.neighbors(u)
        k = int(np.searchsorted(nbrs, v))
        if k >= nbrs.size or nbrs[k] != v:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        return int(self.edge_labels[self.indptr[u] + k])

    def vertex_label(self, v: int) -> int:
        """Label of vertex ``v`` (``0`` when the graph is unlabeled)."""
        if self.vertex_labels is None:
            return 0
        return int(self.vertex_labels[v])

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each edge once (``u < v`` for undirected graphs)."""
        for u in self.vertices():
            for v in self.neighbors(u):
                if self.directed or u < int(v):
                    yield u, int(v)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def subgraph(self, keep: Sequence[int]) -> Tuple["Graph", np.ndarray]:
        """Vertex-induced subgraph (edge labels are not carried).

        Returns ``(sub, old_ids)`` where ``old_ids[new_id]`` maps the
        compacted ids back to ids in this graph.
        """
        old_ids = np.unique(np.asarray(list(keep), dtype=np.int64))
        new_id = np.full(self.num_vertices, -1, dtype=np.int64)
        new_id[old_ids] = np.arange(old_ids.size)
        owners, nbrs = expand_frontier(self.indptr, self.indices, old_ids)
        inside = new_id[nbrs] >= 0
        if not self.directed:
            inside &= old_ids[owners] < nbrs  # once each; the routine mirrors
        m = old_ids.size
        indptr, indices, _ = csr_from_pairs(
            owners[inside], new_id[nbrs[inside]], (m, m), directed=self.directed
        )
        labels = None
        if self.vertex_labels is not None:
            labels = self.vertex_labels[old_ids]
        return Graph(indptr, indices, self.directed, vertex_labels=labels), old_ids

    def orient_by_degree(self) -> "Graph":
        """Degree-ordered orientation of an undirected graph.

        Keeps edge ``(u, v)`` only as ``u -> v`` when ``(deg(u), u) <
        (deg(v), v)``.  This is the classic preprocessing step of serial
        triangle listing (Chu & Cheng) and k-clique counting: every vertex
        ends up with out-degree ``O(sqrt(m))`` on real-world graphs.
        Built once and cached (the graph is immutable), so repeat calls
        return the same object, and a pool shares it once.
        """
        if self.directed:
            raise ValueError("orientation is defined for undirected graphs")
        if self._oriented is not None:
            return self._oriented
        n = self.num_vertices
        deg = self.degrees()
        # Each undirected edge appears as both (u, v) and (v, u) in the
        # CSR; keep exactly the copy pointing up the (degree, id) order.
        src, dst = edge_array(self.indptr, self.indices)
        keep = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
        src, dst = src[keep], dst[keep]
        # src is CSR-ordered and dst sorted within each source slice, so
        # the filtered arrays are already a valid CSR layout.
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        self._oriented = Graph(indptr, dst, directed=True)
        return self._oriented

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.num_vertices}, m={self.num_edges}, {kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.directed != other.directed:
            return False
        if not np.array_equal(self.indptr, other.indptr):
            return False
        if not np.array_equal(self.indices, other.indices):
            return False
        a, b = self.vertex_labels, other.vertex_labels
        if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
            return False
        a, b = self.edge_labels, other.edge_labels
        if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
            return False
        return True

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.indices.size, self.directed))


class GraphBuilder:
    """Accumulates edges and produces an immutable :class:`Graph`.

    :meth:`build` applies :func:`~repro.graph.kernels.csr_from_pairs`:
    parallel edges are deduplicated (keeping the first label seen) and
    self-loops dropped, mirroring the preprocessing every surveyed
    system applies to its inputs.
    """

    def __init__(self, directed: bool = False) -> None:
        self.directed = directed
        self._edges: list = []  # (u, v, label) in insertion order
        self._max_vertex = -1  # of add_vertex; build counts the edges

    def add_edge(self, u: int, v: int, label: int = 0) -> None:
        """Insert edge ``(u, v)``; for undirected builders order is ignored."""
        u, v = int(u), int(v)
        if u < 0 or v < 0:
            raise ValueError("vertex ids must be non-negative")
        self._edges.append((u, v, int(label)))

    def add_vertex(self, v: int) -> None:
        """Ensure vertex ``v`` exists even if isolated."""
        self._max_vertex = max(self._max_vertex, int(v))

    def build(
        self,
        num_vertices: Optional[int] = None,
        vertex_labels: Optional[Sequence[int]] = None,
    ) -> Graph:
        """Freeze the accumulated edges into a :class:`Graph`."""
        edges = np.array(self._edges, dtype=np.int64).reshape(-1, 3)
        return _freeze(edges, self.directed, self._max_vertex, num_vertices,
                       vertex_labels)


def _freeze(
    edges: np.ndarray,
    directed: bool,
    max_vertex: int,
    num_vertices: Optional[int],
    vertex_labels: Optional[Sequence[int]],
) -> Graph:
    """The :class:`Graph` of an ``(m, 2)`` edge array, or ``(m, 3)`` with
    labels (all zero: none).  An inferred vertex count covers
    ``max_vertex`` and the endpoints of kept edges, not of self-loops."""
    src, dst = edges[:, 0], edges[:, 1]
    if src.size and min(src.min(), dst.min()) < 0:
        raise ValueError("vertex ids must be non-negative")
    top = max(max_vertex, int(edges[src != dst, :2].max(initial=-1)))
    n = top + 1 if num_vertices is None else int(num_vertices)
    if n <= top:
        raise ValueError(f"num_vertices={n} but edges reference vertex {top}")
    labels = edges[:, 2] if edges.shape[1] == 3 and edges[:, 2].any() else None
    indptr, indices, labels = csr_from_pairs(
        src, dst, (n, n), directed=directed, labels=labels
    )
    if labels is not None and not labels.any():
        labels = None
    return Graph(indptr, indices, directed=directed,
                 vertex_labels=vertex_labels, edge_labels=labels)
