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
* Graphs are immutable after construction.  Mutation happens in
  :class:`GraphBuilder`, which deduplicates edges and drops self-loops
  unless asked otherwise.
* Optional integer vertex labels and edge labels support the labeled
  matching and FSM workloads; unlabeled graphs simply leave them ``None``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

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
        "indptr", "indices", "directed", "vertex_labels", "edge_labels", "_edge_codes",
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
        self._edge_codes = None

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
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Duplicate edges and self-loops are dropped.  For undirected graphs
        each input pair is inserted in both directions.
        """
        builder = GraphBuilder(directed=directed)
        for u, v in edges:
            builder.add_edge(int(u), int(v))
        return builder.build(num_vertices=num_vertices, vertex_labels=vertex_labels)

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

    def edge_codes(self) -> np.ndarray:
        """``src·n + dst`` of every CSR slot, ascending (built once, cached).

        CSR order already sorts the codes, so one ``searchsorted`` over
        them finds the slot of any batch of ``(u, w)`` pairs.  The graph
        is never mutated after construction, so the cache never goes
        stale; a graph reattached in a pool worker builds it once per
        process.
        """
        if self._edge_codes is None:
            n = self.num_vertices
            src = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
            self._edge_codes = src * n + self.indices
        return self._edge_codes

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

    def reverse(self) -> "Graph":
        """Transpose of a directed graph (self, when undirected)."""
        if not self.directed:
            return self
        builder = GraphBuilder(directed=True)
        for u, v in self.edges():
            builder.add_edge(v, u)
        return builder.build(num_vertices=self.num_vertices)

    def subgraph(self, keep: Sequence[int]) -> Tuple["Graph", np.ndarray]:
        """Vertex-induced subgraph.

        Returns ``(sub, old_ids)`` where ``old_ids[new_id]`` maps the
        compacted ids back to ids in this graph.
        """
        old_ids = np.asarray(sorted(set(int(v) for v in keep)), dtype=np.int64)
        remap = {int(old): new for new, old in enumerate(old_ids)}
        builder = GraphBuilder(directed=self.directed)
        for old in old_ids:
            for w in self.neighbors(int(old)):
                w = int(w)
                if w in remap and (self.directed or old < w):
                    builder.add_edge(remap[int(old)], remap[w])
        labels = None
        if self.vertex_labels is not None:
            labels = self.vertex_labels[old_ids]
        sub = builder.build(num_vertices=old_ids.size, vertex_labels=labels)
        return sub, old_ids

    def orient_by_degree(self) -> "Graph":
        """Degree-ordered orientation of an undirected graph.

        Keeps edge ``(u, v)`` only as ``u -> v`` when ``(deg(u), u) <
        (deg(v), v)``.  This is the classic preprocessing step of serial
        triangle listing (Chu & Cheng) and k-clique counting: every vertex
        ends up with out-degree ``O(sqrt(m))`` on real-world graphs.
        """
        if self.directed:
            raise ValueError("orientation is defined for undirected graphs")
        n = self.num_vertices
        deg = self.degrees()
        # Each undirected edge appears as both (u, v) and (v, u) in the
        # CSR; keep exactly the copy pointing up the (degree, id) order.
        src = np.repeat(np.arange(n, dtype=np.int64), deg)
        dst = self.indices
        keep = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
        src, dst = src[keep], dst[keep]
        # src is CSR-ordered and dst sorted within each source slice, so
        # the filtered arrays are already a valid CSR layout.
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return Graph(indptr, dst, directed=True)

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

    The builder deduplicates parallel edges (keeping the first label seen)
    and drops self-loops by default, mirroring the preprocessing every
    surveyed system applies to its inputs.
    """

    def __init__(self, directed: bool = False, allow_self_loops: bool = False) -> None:
        self.directed = directed
        self.allow_self_loops = allow_self_loops
        self._edges: dict = {}
        self._max_vertex = -1

    def add_edge(self, u: int, v: int, label: int = 0) -> None:
        """Insert edge ``(u, v)``; for undirected builders order is ignored."""
        u, v = int(u), int(v)
        if u < 0 or v < 0:
            raise ValueError("vertex ids must be non-negative")
        if u == v and not self.allow_self_loops:
            return
        if not self.directed and u > v:
            u, v = v, u
        self._max_vertex = max(self._max_vertex, u, v)
        self._edges.setdefault((u, v), int(label))

    def add_vertex(self, v: int) -> None:
        """Ensure vertex ``v`` exists even if isolated."""
        self._max_vertex = max(self._max_vertex, int(v))

    def __len__(self) -> int:
        return len(self._edges)

    def build(
        self,
        num_vertices: Optional[int] = None,
        vertex_labels: Optional[Sequence[int]] = None,
    ) -> Graph:
        """Freeze the accumulated edges into a :class:`Graph`."""
        n = self._max_vertex + 1 if num_vertices is None else int(num_vertices)
        if n < self._max_vertex + 1:
            raise ValueError(
                f"num_vertices={n} but edges reference vertex {self._max_vertex}"
            )
        has_labels = any(label != 0 for label in self._edges.values())
        srcs, dsts, labels = [], [], []
        for (u, v), label in self._edges.items():
            srcs.append(u)
            dsts.append(v)
            labels.append(label)
            if not self.directed and u != v:
                srcs.append(v)
                dsts.append(u)
                labels.append(label)
        src = np.asarray(srcs, dtype=np.int64)
        dst = np.asarray(dsts, dtype=np.int64)
        lab = np.asarray(labels, dtype=np.int64)
        order = np.lexsort((dst, src))
        src, dst, lab = src[order], dst[order], lab[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        vlab = None
        if vertex_labels is not None:
            vlab = np.asarray(list(vertex_labels), dtype=np.int64)
        return Graph(
            indptr,
            dst,
            directed=self.directed,
            vertex_labels=vlab,
            edge_labels=lab if has_labels else None,
        )
