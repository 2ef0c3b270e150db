"""Zero-copy sharing of the immutable CSR graph across processes.

The process backend's whole point is that the data graph is *not*
pickled into every task.  A :class:`SharedGraph` copies the graph's
arrays (``indptr``, ``indices``, optional vertex/edge labels) once into
``multiprocessing.shared_memory`` segments; workers receive only a tiny
:class:`SharedGraphHandle` (segment names + dtypes + shapes) and rebuild
a :class:`~repro.graph.csr.Graph` whose numpy arrays are *views over the
same physical pages*.  Attach cost is O(1) per worker regardless of
graph size, and the OS shares one copy among all workers — the
shared-memory analogue of G-thinker's "the data graph is partitioned
once, tasks carry only their frontier".

Lifecycle: the creating process owns the segments and must call
:meth:`SharedGraph.close` (or use it as a context manager) to unlink
them; workers attach read-only views and keep the last
:data:`MAX_SHARED_GRAPHS` of them per process.  A worker never unlinks,
and it unmaps a segment only once no array over it is left: eviction
drops the cache's reference, and the mapping closes when the graph (and
any view taken from it) is gone.  Unlink is guaranteed even on
ugly exits: partially-built owners unlink what they managed to create,
and an ``atexit`` guard sweeps any owner still live when the parent
interpreter dies (a crashed fan-out must not leave stale ``/dev/shm``
segments behind).
"""

from __future__ import annotations

import atexit
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph.csr import Graph
from ..lru import LRU

__all__ = ["MAX_SHARED_GRAPHS", "SharedGraph", "SharedGraphHandle", "attach_graph"]

#: Shared-memory CSR copies one pool keeps live at once, and graphs one
#: worker keeps attached.  Benchmarks and the check harness alternate
#: between a handful of graphs; beyond that the least recently used
#: graph's segments are unlinked (pool) or unmapped (worker).
MAX_SHARED_GRAPHS = 4

# Every live owner, so the atexit sweep can unlink segments whose
# executor never reached close() (worker crash, KeyboardInterrupt, ...).
# A WeakSet: normal close() drops the owner and gc keeps the set tidy.
_LIVE: "weakref.WeakSet[SharedGraph]" = weakref.WeakSet()


@atexit.register
def _unlink_leaked_segments() -> None:  # pragma: no cover - exit path
    for owner in list(_LIVE):
        owner.close()


@dataclass(frozen=True)
class _ArraySpec:
    """Where one numpy array lives: segment name, dtype, and shape."""

    name: str
    dtype: str
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class SharedGraphHandle:
    """The picklable descriptor a worker needs to reattach the graph."""

    directed: bool
    arrays: Tuple[Tuple[str, _ArraySpec], ...]

    def cache_key(self) -> Tuple[str, ...]:
        return tuple(spec.name for _, spec in self.arrays)


class SharedGraph:
    """Owner-side wrapper: graph arrays copied into shared memory once."""

    def __init__(self, graph: Graph) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        arrays: List[Tuple[str, _ArraySpec]] = []
        fields: Dict[str, Optional[np.ndarray]] = {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "vertex_labels": graph.vertex_labels,
            "edge_labels": graph.edge_labels,
        }
        try:
            for field_name, array in fields.items():
                if array is None:
                    continue
                array = np.ascontiguousarray(array)
                seg = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)
                view[...] = array
                self._segments.append(seg)
                arrays.append(
                    (field_name, _ArraySpec(seg.name, str(array.dtype), array.shape))
                )
        except BaseException:
            # A half-built owner must not leak the segments it did create.
            self.close()
            raise
        self.handle = SharedGraphHandle(
            directed=graph.directed, arrays=tuple(arrays)
        )
        _LIVE.add(self)

    @property
    def nbytes(self) -> int:
        """Total shared bytes (what pickling would have copied per task)."""
        return sum(seg.size for seg in self._segments)

    def close(self) -> None:
        """Release and unlink every segment (idempotent)."""
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        _LIVE.discard(self)

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - safety net
        self.close()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

# Per-process cache of attached graphs, keyed by segment names, each
# entry ``(graph, segments)``.  A worker serves many chunks of each run
# and alternates between graphs (e.g. the degree-oriented CSR of a
# triangle count and the graph a pattern count runs on), so each stays
# attached, with the derived caches it built (edge index, orientation),
# until it is the least recently used of :data:`MAX_SHARED_GRAPHS`.
# Eviction only drops the entry: a caller may still hold the graph.
_ATTACHED = LRU(MAX_SHARED_GRAPHS)


def attach_graph(handle: SharedGraphHandle) -> Graph:
    """Rebuild the shared :class:`Graph` inside a worker (cached)."""
    key = handle.cache_key()
    cached = _ATTACHED.get(key)
    if cached is not None:
        return cached[0]
    segments: List[shared_memory.SharedMemory] = []
    views: Dict[str, np.ndarray] = {}
    for field_name, spec in handle.arrays:
        seg = shared_memory.SharedMemory(name=spec.name)
        segments.append(seg)
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf)
        # Unmapping under a live array would let it read freed pages, so
        # the mapping closes when its last array goes (a view of ``view``
        # keeps ``view`` as its base, hence alive); at exit the process
        # unmaps everything anyway.
        weakref.finalize(view, seg.close).atexit = False
        views[field_name] = view
    graph = Graph(
        views["indptr"],
        views["indices"],
        directed=handle.directed,
        vertex_labels=views.get("vertex_labels"),
        edge_labels=views.get("edge_labels"),
    )
    _ATTACHED.put(key, (graph, segments))
    return graph
