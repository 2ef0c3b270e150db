"""Memory-mapped stored graphs with an LRU shard cache.

:class:`StoredGraph` implements the :class:`GraphHandle` protocol over
a store directory written by :mod:`repro.graph.store.writer`.  Resident
state is the GraphD budget — O(|V|): the manifest, the vertex→partition
``assignment``, global ``degrees``, and each partition's sorted
``nodes`` id map.  Everything edge- or feature-sized (``indptr`` /
``indices`` / ``edge_labels`` / ``features`` shards) is paged in as a
read-only ``numpy`` memory map on first touch and held in a byte-budget
LRU cache.

Eviction drops the cache's *reference* only — engines may hold live
neighbor views into an evicted mmap, so the map is never force-closed;
the OS unmaps it when the last view is garbage-collected.  That makes
eviction always safe at the cost of the budget being a cache-resident
target rather than a hard RSS ceiling (exactly the mmap page-cache
semantics the out-of-core literature assumes).

A page-in opens the shard file once (:func:`~.format.map_verified`):
it checks the ``fstat`` size against the manifest (truncation ⇒
:class:`StoreError`), maps the file read-only and, unless
``checksum=False``, computes the CRC-32 over the mapped bytes on *every*
page-in (same-size corruption ⇒ :class:`StoreError`), so the bytes
verified are the bytes served.  The array is a read-only view of that
map.  Its ``.npy`` header is parsed once per ``(part, kind)`` per open
store; later page-ins compare the header bytes with the memo and
re-parse on any difference, so a memo never serves a stale layout and
never stands in for the CRC.

A batch of vertices goes through :meth:`StoredGraph.expand_frontier`,
which requests each touched partition's two shards once; only
per-vertex callers (``neighbors(v)``) pay two requests per vertex.
:meth:`StoredGraph.edge_slots`, the batched edge-membership test, is
one such gather of the batch's distinct source rows.

Cache traffic reports through :mod:`repro.obs`: counters
``store.shard_hits`` / ``store.shard_misses`` / ``store.shard_evictions``
/ ``store.bytes_paged`` and gauge ``store.cache_bytes``.  The
``store.cache.accounting`` oracle pins the invariant
``hits + misses == pages requested``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ...lru import LRU
from ..csr import Graph
from ..kernels import expand_frontier, find_sorted, sorted_unique
from .format import (
    Manifest,
    NpyLayout,
    StoreError,
    map_verified,
    read_npy_layout,
    verify_file,
)
from .handle import PartitionView, checked_vertex_ids

__all__ = ["ShardCache", "CacheStats", "StoredGraph", "open_store"]

PathLike = Union[str, os.PathLike]


@dataclass
class CacheStats:
    """Shard-cache traffic as of the read; ``hits + misses == pages requested``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_paged: int = 0

    @property
    def pages_requested(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {**asdict(self), "pages_requested": self.pages_requested}


class ShardCache:
    """Byte-budgeted :class:`~repro.lru.LRU` over memory-mapped shards.

    Keys are ``(part_id, kind)``.  A ``budget`` of ``None`` means
    unbounded (everything stays cached once touched); any positive
    budget below the store's total shard bytes forces real paging,
    which is what the ``store.*`` oracles pin.  The page just inserted
    is in use by the caller and never evicted; eviction only drops the
    reference (the mmap closes when the last view is collected).
    """

    def __init__(self, budget: Optional[int] = None, obs=None) -> None:
        if budget is not None and budget < 0:
            raise ValueError("cache budget must be >= 0 or None")
        self.budget = budget
        self.bytes_paged = 0
        self._lru = LRU(budget)
        if obs is not None:
            self._c_hits = obs.counter("store.shard_hits", "shard cache hits")
            self._c_misses = obs.counter("store.shard_misses", "shard cache misses")
            self._c_evict = obs.counter("store.shard_evictions", "shards evicted")
            self._c_paged = obs.counter("store.bytes_paged", "shard bytes paged in")
            self._g_bytes = obs.gauge("store.cache_bytes", "resident shard bytes")
        else:
            self._c_hits = self._c_misses = self._c_evict = self._c_paged = None
            self._g_bytes = None

    @property
    def stats(self) -> CacheStats:
        lru = self._lru
        return CacheStats(lru.hits, lru.misses, lru.evictions, self.bytes_paged)

    @property
    def resident_bytes(self) -> int:
        return self._lru.weight

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key: Tuple[int, str], loader, nbytes: int) -> np.ndarray:
        """Return the shard for ``key``, paging it in via ``loader()``."""
        array = self._lru.get(key)
        if array is not None:
            if self._c_hits is not None:
                self._c_hits.inc()
            return array
        # A loader that raises (corrupt shard) leaves the miss booked.
        if self._c_misses is not None:
            self._c_misses.inc()
        array = loader()
        self.bytes_paged += nbytes
        evicted = self._lru.put(key, array, nbytes)
        if self._c_paged is not None:
            self._c_paged.inc(nbytes)
            if evicted:
                self._c_evict.inc(evicted)
            self._g_bytes.set(self._lru.weight)
        return array

    def clear(self) -> None:
        self._lru.clear()
        if self._g_bytes is not None:
            self._g_bytes.set(0)


class StoredGraph:
    """A :class:`GraphHandle` that pages shards from a store directory.

    Open with :func:`open_store` (or ``as_handle(path)``).  Usable as a
    context manager; :meth:`close` drops every cache reference.
    """

    is_graph_handle = True

    def __init__(
        self,
        root: PathLike,
        cache_budget: Optional[int] = None,
        obs=None,
        checksum: bool = True,
    ) -> None:
        self.root = os.fspath(root)
        self.manifest = Manifest.load(self.root)
        self._checksum = bool(checksum)
        self.cache = ShardCache(cache_budget, obs=obs)
        # O(|V|) resident state:
        self._assignment = self._load_resident("assignment")
        self._degrees = self._load_resident("degrees")
        self._vertex_labels: Optional[np.ndarray] = None
        if self.manifest.has_vertex_labels:
            self._vertex_labels = self._load_resident("vertex_labels")
        self._nodes: List[np.ndarray] = []
        for part in self.manifest.partitions:
            entry = part.files["nodes"]
            path = verify_file(self.root, entry, checksum=self._checksum)
            self._nodes.append(np.load(path, allow_pickle=False))
        self._edge_labels_memo: Optional[np.ndarray] = None
        self._indptr_memo: Optional[np.ndarray] = None
        self._layouts: Dict[Tuple[int, str], NpyLayout] = {}  # header memo
        self._closed = False

    def _load_resident(self, key: str) -> np.ndarray:
        entry = self.manifest.files.get(key)
        if entry is None:
            raise StoreError(f"manifest lists no {key!r} file")
        path = verify_file(self.root, entry, checksum=self._checksum)
        return np.load(path, allow_pickle=False)

    # -- shard paging ------------------------------------------------------

    def _shard(self, part_id: int, kind: str) -> np.ndarray:
        if self._closed:
            raise StoreError("stored graph is closed")
        part = self.manifest.partitions[part_id]
        entry = part.files.get(kind)
        if entry is None:
            raise StoreError(
                f"partition {part_id} has no {kind!r} shard in {self.root!r}"
            )
        key = (part_id, kind)

        def loader() -> np.ndarray:
            mapped = map_verified(self.root, entry, checksum=self._checksum)
            layout = self._layouts.get(key)
            if layout is None or not layout.matches(mapped):
                layout = self._layouts[key] = read_npy_layout(mapped, entry.path)
            return layout.array(mapped, entry.path)

        return self.cache.get(key, loader, entry.nbytes)

    # -- GraphHandle surface ----------------------------------------------

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def num_vertices(self) -> int:
        return self.manifest.num_vertices

    @property
    def num_edges(self) -> int:
        return self.manifest.num_edges

    @property
    def num_edge_slots(self) -> int:
        return self.manifest.num_edge_slots

    @property
    def directed(self) -> bool:
        return self.manifest.directed

    @property
    def num_parts(self) -> int:
        return self.manifest.num_parts

    @property
    def feature_dim(self) -> Optional[int]:
        return self.manifest.feature_dim

    @property
    def assignment(self) -> np.ndarray:
        return self._assignment

    def part_of(self, v: int) -> int:
        """Partition owning vertex ``v``."""
        return int(self._assignment[checked_vertex_ids(v, self.num_vertices)])

    def vertices(self) -> range:
        return range(self.num_vertices)

    def neighbors(self, v: int) -> np.ndarray:
        v = checked_vertex_ids(v, self.num_vertices)
        part_id = int(self._assignment[v])
        nodes = self._nodes[part_id]
        local = int(np.searchsorted(nodes, v))
        indptr = self._shard(part_id, "indptr")
        indices = self._shard(part_id, "indices")
        return indices[indptr[local]: indptr[local + 1]]

    def expand_frontier(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists of ``vertices`` and their owners.

        Same contract as :meth:`InMemoryGraph.expand_frontier` —
        ``neighbors`` equals ``concatenate([self.neighbors(v) for v in
        vertices])`` in input order, ``owners[k]`` is the contributing
        input position — but each touched partition's ``indptr`` /
        ``indices`` shards are requested from the cache *once*, in
        ascending partition id, however many of its vertices the batch
        holds and in whatever order.  A frontier superstep therefore
        costs O(touched partitions) page requests for any partitioner.
        """
        vertices = checked_vertex_ids(vertices, self.num_vertices)
        parts = self._assignment[vertices]
        order = np.argsort(parts, kind="stable")
        parts = parts[order]
        grouped_ids = vertices[order]
        # Rows regrouped partition-major; lengths come from the resident
        # degrees, so the layout is known before any shard is paged.
        grouped_ptr = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(self._degrees[grouped_ids], out=grouped_ptr[1:])
        grouped = np.empty(int(grouped_ptr[-1]), dtype=np.int64)
        touched, starts = np.unique(parts, return_index=True)
        ends = np.append(starts[1:], parts.size)
        for part_id, lo, hi in zip(
            touched.tolist(), starts.tolist(), ends.tolist()
        ):
            local = np.searchsorted(self._nodes[part_id], grouped_ids[lo:hi])
            _, piece = expand_frontier(
                self._shard(part_id, "indptr"),
                self._shard(part_id, "indices"),
                local,
            )
            grouped[grouped_ptr[lo]: grouped_ptr[hi]] = piece
        # Row ``order[k]`` of the input sits at row ``k`` of the regrouped
        # CSR; gathering the inverse permutation restores input order.
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size, dtype=np.int64)
        return expand_frontier(grouped_ptr, grouped, inverse)

    def edge_slots(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Global CSR slot of each edge ``(us[k], ws[k])``, or -1.

        Same contract as :meth:`InMemoryGraph.edge_slots`.  No global
        edge codes are resident here, so the distinct sources are
        gathered once (:meth:`expand_frontier`) and each pair is looked
        up among the sorted ``(rank of source)·n + neighbor`` codes of
        that gather.
        """
        n = self.num_vertices
        us = checked_vertex_ids(us, n)
        ws = checked_vertex_ids(ws, n)
        uniq = sorted_unique(us)
        owners, nbrs = self.expand_frontier(uniq)
        rank = np.searchsorted(uniq, us)
        slots = find_sorted(owners * n + nbrs, rank * n + ws)
        hit = slots >= 0
        # Position in the gather -> global slot: shift by the row's
        # global start minus its start in the gather.
        degrees = self._degrees[uniq]
        shift = self._global_indptr()[uniq] - (np.cumsum(degrees) - degrees)
        slots[hit] += shift[rank[hit]]
        return slots

    def degree(self, v: int) -> int:
        return int(self._degrees[checked_vertex_ids(v, self.num_vertices)])

    def degrees(self) -> np.ndarray:
        return self._degrees

    def has_edge(self, u: int, v: int) -> bool:
        neighbors = self.neighbors(u)
        v = checked_vertex_ids(v, self.num_vertices)
        pos = int(np.searchsorted(neighbors, v))
        return pos < neighbors.size and int(neighbors[pos]) == v

    def edge_label(self, u: int, v: int) -> int:
        u = checked_vertex_ids(u, self.num_vertices)
        v = checked_vertex_ids(v, self.num_vertices)
        if not self.manifest.has_edge_labels:
            raise KeyError(f"no edge ({u}, {v})" )
        part_id = int(self._assignment[u])
        nodes = self._nodes[part_id]
        local = int(np.searchsorted(nodes, u))
        indptr = self._shard(part_id, "indptr")
        row = self._shard(part_id, "indices")[indptr[local]: indptr[local + 1]]
        pos = int(np.searchsorted(row, v))
        if pos >= row.size or int(row[pos]) != v:
            raise KeyError(f"no edge ({u}, {v})")
        labels = self._shard(part_id, "edge_labels")
        return int(labels[indptr[local] + pos])

    @property
    def vertex_labels(self) -> Optional[np.ndarray]:
        return self._vertex_labels

    def vertex_label(self, v: int) -> int:
        v = checked_vertex_ids(v, self.num_vertices)
        if self._vertex_labels is None:
            return 0
        return int(self._vertex_labels[v])

    @property
    def edge_labels(self) -> Optional[np.ndarray]:
        """Full edge-label array in global CSR order (assembled lazily)."""
        if not self.manifest.has_edge_labels:
            return None
        if self._edge_labels_memo is None:
            out = np.empty(self.num_edge_slots, dtype=np.int64)
            gip = self._global_indptr()
            for lo, hi, indptr_run, _, part_id, local_lo in self._runs():
                labels = self._shard(part_id, "edge_labels")
                base = int(self._shard(part_id, "indptr")[local_lo])
                span = int(indptr_run[-1])
                out[gip[lo]: gip[hi]] = labels[base: base + span]
            self._edge_labels_memo = out
        return self._edge_labels_memo

    def features(self, ids: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Feature rows for ``ids`` (or all vertices), paged per shard."""
        if self.manifest.feature_dim is None:
            return None
        dim = int(self.manifest.feature_dim)
        if ids is None:
            ids = np.arange(self.num_vertices, dtype=np.int64)
        else:
            ids = checked_vertex_ids(ids, self.num_vertices)
        out = np.empty((ids.size, dim), dtype=np.float64)
        owners = self._assignment[ids]
        for part_id in np.unique(owners):
            mask = owners == part_id
            rows = np.searchsorted(self._nodes[int(part_id)], ids[mask])
            shard = self._shard(int(part_id), "features")
            out[mask] = shard[rows]
        return out

    def partition(self, i: int) -> PartitionView:
        if i < 0 or i >= self.num_parts:
            raise IndexError(f"partition {i} out of range 0..{self.num_parts - 1}")
        return PartitionView(
            i,
            self._nodes[i],
            self._shard(i, "indptr"),
            self._shard(i, "indices"),
        )

    # -- run iteration (bit-identity workhorse) ---------------------------

    def _run_spans(self) -> np.ndarray:
        """Boundaries of maximal runs of consecutive ids in one partition."""
        n = self.num_vertices
        if n == 0:
            return np.asarray([0], dtype=np.int64)
        breaks = np.flatnonzero(np.diff(self._assignment) != 0) + 1
        return np.concatenate(([0], breaks, [n])).astype(np.int64)

    def _runs(self):
        spans = self._run_spans()
        for lo, hi in zip(spans[:-1], spans[1:]):
            lo, hi = int(lo), int(hi)
            part_id = int(self._assignment[lo])
            nodes = self._nodes[part_id]
            local_lo = int(np.searchsorted(nodes, lo))
            indptr = self._shard(part_id, "indptr")
            run_ptr = indptr[local_lo: local_lo + (hi - lo) + 1]
            run_ptr = np.asarray(run_ptr, dtype=np.int64) - int(run_ptr[0])
            indices = self._shard(part_id, "indices")
            base = int(indptr[local_lo])
            run_idx = indices[base: base + int(run_ptr[-1])]
            yield lo, hi, run_ptr, run_idx, part_id, local_lo

    def iter_csr_runs(self) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(lo, hi, indptr_run, indices_run)`` ascending in ``lo``.

        Each run covers the consecutive global ids ``lo..hi-1``, all
        owned by one partition; ``indptr_run`` is rebased to 0 and
        ``indices_run`` holds global neighbor ids.  Because vertex ids
        ascend within a run and runs ascend globally, concatenating the
        runs reproduces the global source-major CSR exactly — dense
        supersteps that scatter per-run in order perform the *same
        floating-point additions in the same order* as the in-memory
        path.  Works for any partitioner: within a partition, ascending
        global ids map to ascending local ids.
        """
        for lo, hi, run_ptr, run_idx, _, _ in self._runs():
            yield lo, hi, run_ptr, run_idx

    def _global_indptr(self) -> np.ndarray:
        """Global CSR row starts, from the resident degrees (memoized)."""
        if self._indptr_memo is None:
            gip = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=gip[1:])
            self._indptr_memo = gip
        return self._indptr_memo

    def to_graph(self) -> Graph:
        """Materialize the full in-memory :class:`Graph` (pages everything)."""
        gip = self._global_indptr()
        if int(gip[-1]) != self.num_edge_slots:
            raise StoreError(
                f"degrees sum to {int(gip[-1])} slots, manifest says "
                f"{self.num_edge_slots}"
            )
        indices = np.empty(self.num_edge_slots, dtype=np.int64)
        for lo, hi, _, run_idx in self.iter_csr_runs():
            indices[gip[lo]: gip[hi]] = run_idx
        return Graph(
            gip.copy(),  # the memo stays private to this handle
            indices,
            directed=self.directed,
            vertex_labels=self._vertex_labels,
            edge_labels=self.edge_labels if self.manifest.has_edge_labels else None,
        )

    # -- materializing conveniences (whole-graph restructuring) -----------

    def edges(self):
        return self.to_graph().edges()

    def orient_by_degree(self) -> Graph:
        return self.to_graph().orient_by_degree()

    def reverse(self) -> Graph:
        return self.to_graph().reverse()

    def subgraph(self, keep):
        return self.to_graph().subgraph(keep)

    # -- versioning (serve epochs) ----------------------------------------

    @property
    def version(self) -> int:
        return self.manifest.version

    def bump_version(self) -> int:
        """Advance the manifest epoch on disk (atomic rewrite)."""
        self.manifest.version += 1
        self.manifest.save(self.root)
        return self.manifest.version

    # -- lifecycle ---------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        return self.cache.stats.as_dict()

    def close(self) -> None:
        """Drop all cache references; mmaps close as views are collected."""
        self.cache.clear()
        self._closed = True

    def __enter__(self) -> "StoredGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        budget = self.cache.budget
        return (
            f"StoredGraph({self.manifest.name!r}, n={self.num_vertices}, "
            f"slots={self.num_edge_slots}, parts={self.num_parts}, "
            f"cache_budget={budget})"
        )


def open_store(
    path: PathLike,
    cache_budget: Optional[int] = None,
    obs=None,
    checksum: bool = True,
) -> StoredGraph:
    """Open a store directory as a paging :class:`StoredGraph`.

    ``cache_budget`` caps resident shard bytes (LRU); ``None`` keeps
    every touched shard mapped.  ``checksum=False`` skips CRC-32
    verification at page-in (size/truncation checks always run).
    """
    return StoredGraph(path, cache_budget=cache_budget, obs=obs, checksum=checksum)
