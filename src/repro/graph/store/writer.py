"""Store builders: one-shot materialization and chunked ingest.

Two ways to produce the same bytes:

* :func:`build_store` — materialize an in-memory :class:`Graph` (plus
  any partitioner's output) to a store directory.  This is the path
  benchmarks and the serving catalog use when the graph already fits
  in RAM.
* :func:`ingest_edge_stream` — the DistDGL-style chunked pipeline: the
  edge iterable is consumed in bounded chunks, each chunk is routed to
  per-partition spill files as arrays (no per-edge Python), and
  partitions are then built **one at a time** — the full edge list is
  never resident.  Peak memory is ``O(|V| + chunk + max_k |E_k|)``,
  which is what lets graphs larger than RAM be written at all.
  Progress is journaled at every chunk
  and partition boundary (see :mod:`repro.graph.store.journal`), so a
  crashed ingest resumes with ``resume=True`` and produces bytes
  identical to an uninterrupted run.

With ``overwrite=True`` both builders are **atomic**: the new store
lands in the sibling ``<path>.tmp`` and is swapped into place only
when complete, so an interrupted overwrite can never destroy the
previous good store.  Both funnel every partition through the same
shard writer, so a chunked build of the same edges under the same
partition layout is **byte-identical** to the one-shot build (the
ingest-pipeline tests assert file-level equality, and the
``store.journal.resume_vs_oneshot`` oracle pins crash-resume
equivalence on top).

Storage fault injection threads through every shard write: a
:class:`~repro.resilience.FaultInjector` passed as ``injector`` can
fail individual file writes (``io_error`` — retried once,
deterministically), tear a spill flush mid-chunk (``torn_write``), or
crash the ingest at an exact chunk boundary (``crash_at_chunk``).

Streaming builds can only use partitioners that are pure functions of
the vertex id (``hash``, ``range``); graph-aware partitioners
(``metis``) need the whole structure and are one-shot only.
"""

from __future__ import annotations

import atexit
import itertools
import os
import shutil
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ...resilience.faults import FaultError, FaultInjector
from ..csr import Graph
from ..kernels import csr_from_pairs, expand_frontier
from ..partition import Partition, hash_assignment, range_assignment
from .format import (
    FileEntry,
    Manifest,
    MANIFEST_FILENAME,
    PartitionMeta,
    StoreError,
    file_entry,
)
from .journal import INGEST_DIRNAME, IngestJournal

__all__ = [
    "build_store",
    "ingest_edge_stream",
    "streaming_assignment",
    "STREAMING_PARTITIONERS",
]

PathLike = Union[str, os.PathLike]

#: Partitioners computable from the vertex id alone (chunked-ingest safe).
STREAMING_PARTITIONERS = ("hash", "range")

# Sibling temp directories from in-flight atomic overwrites; swept at
# exit so a crashed build cannot strand half-written stores.
_LIVE_TMP_DIRS: set = set()


@atexit.register
def _sweep_tmp_dirs() -> None:
    for path in list(_LIVE_TMP_DIRS):
        shutil.rmtree(path, ignore_errors=True)
        _LIVE_TMP_DIRS.discard(path)


def streaming_assignment(
    kind: str, num_vertices: int, num_parts: int, seed: int = 0
) -> np.ndarray:
    """Vertex → partition map that never needs the graph structure:
    the same formulas as :func:`~repro.graph.partition.hash_partition`
    and :func:`~repro.graph.partition.range_partition`."""
    n, p = int(num_vertices), max(1, int(num_parts))
    if kind == "hash":
        return hash_assignment(n, p, seed)
    if kind == "range":
        return range_assignment(n, p)
    raise ValueError(
        f"streaming builds support {STREAMING_PARTITIONERS}, not {kind!r}"
    )


# ----------------------------------------------------------------------
# Shared low-level writers
# ----------------------------------------------------------------------


def _open_build_dir(final_root: str, overwrite: bool) -> Tuple[str, bool]:
    """The directory a build writes into, and whether it replaces a store.

    A fresh build writes in place.  An overwrite builds in the sibling
    :func:`_staging_dir`, emptied first, which :func:`_publish` swaps in
    once the new store is complete.
    """
    replacing = os.path.exists(os.path.join(final_root, MANIFEST_FILENAME))
    if replacing and not overwrite:
        raise StoreError(
            f"store already exists at {final_root!r}; pass overwrite=True"
        )
    root = _staging_dir(final_root) if replacing else final_root
    if replacing:
        shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root, exist_ok=True)
    return root, replacing


def _staging_dir(final_root: str) -> str:
    return os.path.normpath(final_root) + ".tmp"


def _publish(staging: str, final_root: str) -> None:
    """Swap a finished store in: rename the old one aside, rename the
    new one in, then remove the old.  A crash at any point leaves the
    old store or the new one whole, never neither."""
    old = os.path.normpath(final_root) + ".old"
    shutil.rmtree(old, ignore_errors=True)
    if os.path.exists(final_root):
        os.rename(final_root, old)
    os.rename(staging, final_root)
    shutil.rmtree(old, ignore_errors=True)


def _write_array(
    root: str,
    rel: str,
    array: np.ndarray,
    injector: Optional[FaultInjector] = None,
) -> FileEntry:
    full = os.path.join(root, rel)
    os.makedirs(os.path.dirname(full) or root, exist_ok=True)
    rel_npy = rel if rel.endswith(".npy") else rel + ".npy"
    last: Optional[FaultError] = None
    for attempt in range(2):  # one deterministic retry per shard write
        if injector is not None and injector.take_io_error(rel_npy, attempt):
            last = FaultError("io_error", path=rel_npy, attempt=attempt)
            continue
        np.save(full, array, allow_pickle=False)
        return file_entry(root, rel_npy)
    assert last is not None
    raise last


def _write_partition_shard(
    root: str,
    part_id: int,
    nodes: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_labels: Optional[np.ndarray],
    feature_rows: Optional[np.ndarray],
    injector: Optional[FaultInjector] = None,
) -> PartitionMeta:
    """Write one partition's shard files; the single byte-layout authority."""
    prefix = f"part{part_id}"
    files: Dict[str, FileEntry] = {}
    files["nodes"] = _write_array(
        root, f"{prefix}/nodes.npy",
        np.ascontiguousarray(nodes, dtype=np.int64), injector,
    )
    files["indptr"] = _write_array(
        root, f"{prefix}/indptr.npy",
        np.ascontiguousarray(indptr, dtype=np.int64), injector,
    )
    files["indices"] = _write_array(
        root, f"{prefix}/indices.npy",
        np.ascontiguousarray(indices, dtype=np.int64), injector,
    )
    if edge_labels is not None:
        files["edge_labels"] = _write_array(
            root, f"{prefix}/edge_labels.npy",
            np.ascontiguousarray(edge_labels, dtype=np.int64), injector,
        )
    if feature_rows is not None:
        files["features"] = _write_array(
            root, f"{prefix}/features.npy",
            np.ascontiguousarray(feature_rows, dtype=np.float64), injector,
        )
    return PartitionMeta(
        part_id=part_id,
        num_vertices=int(nodes.size),
        num_edge_slots=int(indices.size),
        files=files,
    )


def _resolve_partition(
    graph: Graph,
    partition: Union[str, Partition],
    num_parts: int,
    seed: int,
) -> Tuple[np.ndarray, str, int]:
    """Normalize the partition argument to (assignment, name, parts)."""
    if isinstance(partition, Partition):
        return (
            np.asarray(partition.assignment, dtype=np.int64),
            "custom",
            partition.num_parts,
        )
    if partition in STREAMING_PARTITIONERS:
        return (
            streaming_assignment(partition, graph.num_vertices, num_parts, seed),
            partition,
            max(1, num_parts),
        )
    if partition == "metis":
        from ..partition import metis_like_partition

        part = metis_like_partition(graph, max(1, num_parts), seed=seed)
        return np.asarray(part.assignment, dtype=np.int64), "metis", part.num_parts
    raise ValueError(
        f"unknown partitioner {partition!r}; pass a Partition or one of "
        f"{STREAMING_PARTITIONERS + ('metis',)}"
    )


# ----------------------------------------------------------------------
# One-shot build
# ----------------------------------------------------------------------


def build_store(
    graph_or_handle,
    path: PathLike,
    *,
    partition: Union[str, Partition] = "range",
    num_parts: int = 1,
    seed: int = 0,
    features: Optional[np.ndarray] = None,
    name: Optional[str] = None,
    overwrite: bool = False,
    injector: Optional[FaultInjector] = None,
) -> Manifest:
    """Materialize a graph (any handle) to a store directory.

    ``partition`` is a :class:`~repro.graph.partition.Partition` (any
    partitioner's output — vertex-cut partitions use their primary
    ``assignment``) or a partitioner name (``hash``/``range``/``metis``).
    ``features`` is an optional ``(n, d)`` array written as per-partition
    feature shards.  Returns the saved :class:`Manifest`.

    Overwriting an existing store is atomic: the new store is built
    into the sibling ``<path>.tmp`` directory, the old store is
    renamed aside, and only after the replacement is in place is the
    old one removed — a crash at any point leaves either the old or
    the new store intact, never neither.  A failed overwrite's
    ``<path>.tmp`` is swept at exit.
    """
    final_root = os.fspath(path)
    root, replacing = _open_build_dir(final_root, overwrite)
    if replacing:
        _LIVE_TMP_DIRS.add(root)
    store_name = (
        name or os.path.basename(os.path.normpath(final_root)) or "graph"
    )

    manifest = _build_into(
        root, graph_or_handle, partition=partition, num_parts=num_parts,
        seed=seed, features=features, name=store_name, injector=injector,
    )

    if replacing:
        _publish(root, final_root)
        _LIVE_TMP_DIRS.discard(root)
    return manifest


def _build_into(
    root: str,
    graph_or_handle,
    *,
    partition: Union[str, Partition],
    num_parts: int,
    seed: int,
    features: Optional[np.ndarray],
    name: str,
    injector: Optional[FaultInjector] = None,
) -> Manifest:
    """One-shot build body: write every shard + manifest under ``root``."""
    from .handle import as_handle

    graph = as_handle(graph_or_handle).to_graph()
    n = graph.num_vertices
    assignment, partitioner_name, parts = _resolve_partition(
        graph, partition, num_parts, seed
    )
    if assignment.size != n:
        raise StoreError(
            f"partition assigns {assignment.size} vertices, graph has {n}"
        )
    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != n:
            raise StoreError(
                f"features must be (n, d); got {features.shape} for n={n}"
            )
    degrees = graph.degrees()
    indptr, indices = graph.indptr, graph.indices

    partitions = []
    for k in range(parts):
        nodes = np.flatnonzero(assignment == k).astype(np.int64)
        part_indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(degrees[nodes], out=part_indptr[1:])
        _, part_indices = expand_frontier(indptr, indices, nodes)
        part_labels = None
        if graph.edge_labels is not None:
            _, part_labels = expand_frontier(indptr, graph.edge_labels, nodes)
        feature_rows = features[nodes] if features is not None else None
        partitions.append(
            _write_partition_shard(
                root, k, nodes, part_indptr, part_indices, part_labels,
                feature_rows, injector,
            )
        )

    files = {
        "assignment": _write_array(root, "assignment.npy", assignment, injector),
        "degrees": _write_array(root, "degrees.npy", degrees, injector),
    }
    if graph.vertex_labels is not None:
        files["vertex_labels"] = _write_array(
            root, "vertex_labels.npy", graph.vertex_labels, injector
        )
    manifest = Manifest(
        name=name,
        num_vertices=n,
        num_edges=graph.num_edges,
        num_edge_slots=int(indices.size),
        directed=graph.directed,
        num_parts=parts,
        partitioner=partitioner_name,
        built_by="one_shot",
        has_vertex_labels=graph.vertex_labels is not None,
        has_edge_labels=graph.edge_labels is not None,
        feature_dim=None if features is None else int(features.shape[1]),
        partitions=partitions,
        files=files,
    )
    manifest.save(root)
    return manifest


# ----------------------------------------------------------------------
# Chunked ingest (graphs larger than RAM)
# ----------------------------------------------------------------------

#: Fewest ``(u, v)`` pairs converted to one array block in pass 1 (a
#: block is ``max(chunk_edges, this)`` pairs).  Block boundaries never
#: show in the output: chunks are cut by kept-edge count alone.
_MIN_BLOCK_ITEMS = 4096
_INT64 = np.iinfo(np.int64)


def _outside_error(u: int, v: int, n: int) -> StoreError:
    return StoreError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")


def _as_edge_block(array: np.ndarray) -> np.ndarray:
    """A client's ``(k, 2)`` integer array as a C-contiguous int64 block."""
    if array.ndim != 2 or array.shape[1] != 2 or (
        array.size and not np.issubdtype(array.dtype, np.integer)
    ):
        raise StoreError(
            f"edge blocks must be (k, 2) integer arrays, not {array.dtype} "
            f"of shape {array.shape}"
        )
    return np.ascontiguousarray(array, dtype=np.int64)


def _edge_blocks(edges, n: int, block_items: int) -> Iterator[np.ndarray]:
    """The edge stream as int64 ``(k, 2)`` blocks, one row per edge.

    Stream items are ``(u, v)`` pairs or ``(k, 2)`` integer arrays
    (``k`` edges each), in any mix; a 2-D array passed as the stream is
    one block.  Runs of pairs are cut ``block_items`` at a time and
    converted by one ``np.fromiter``.  A run that does not flatten to
    exactly two integers per item is redone item by item, which yields
    the well-formed prefix and then raises what the per-edge unpacking
    raises (ids beyond int64 raise the out-of-range ``StoreError``).
    If the stream itself raises mid-run, the items read before it are
    yielded first, so the chunks they close still commit.
    """
    if isinstance(edges, np.ndarray) and edges.ndim == 2:
        yield _as_edge_block(edges)
        return
    stream = iter(edges)
    for first in stream:
        if isinstance(first, np.ndarray) and first.ndim == 2:
            yield _as_edge_block(first)
            continue
        run = [first]
        failure: Optional[BaseException] = None
        try:
            run.extend(itertools.islice(stream, block_items - 1))
        except Exception as exc:  # list.extend keeps the items before it
            failure = exc
        try:
            flat = np.fromiter(
                itertools.chain.from_iterable(run), dtype=np.int64
            )
        except (TypeError, ValueError, OverflowError):
            flat = None
        if flat is not None and flat.size == 2 * len(run):
            yield flat.reshape(-1, 2)
        else:
            yield from _edge_blocks_per_item(run, n)
        if failure is not None:
            raise failure


def _edge_blocks_per_item(run: list, n: int) -> Iterator[np.ndarray]:
    """:func:`_edge_blocks`'s slow path: one item at a time, same rows."""
    rows: List[Tuple[int, int]] = []
    error: Optional[Exception] = None
    for item in run:
        if isinstance(item, np.ndarray) and item.ndim == 2:
            if rows:
                yield np.array(rows, dtype=np.int64)
                rows = []
            yield _as_edge_block(item)
            continue
        try:
            u, v = item
            u, v = int(u), int(v)
        except (TypeError, ValueError, OverflowError) as exc:
            error = exc
            break
        if min(u, v) < _INT64.min or max(u, v) > _INT64.max:
            error = _outside_error(u, v, n)
            break
        rows.append((u, v))
    if rows:
        yield np.array(rows, dtype=np.int64)
    if error is not None:
        raise error


def ingest_edge_stream(
    edges: Optional[Iterable],
    num_vertices: int,
    path: PathLike,
    *,
    directed: bool = False,
    partition: str = "range",
    num_parts: int = 1,
    seed: int = 0,
    chunk_edges: int = 200_000,
    features: Optional[np.ndarray] = None,
    name: Optional[str] = None,
    overwrite: bool = False,
    resume: bool = False,
    injector: Optional[FaultInjector] = None,
) -> Manifest:
    """Write a store from an edge iterable without holding the edge list.

    ``edges`` yields ``(u, v)`` pairs, ``(k, 2)`` integer arrays of
    ``k`` edges each, or a mix; an ``(m, 2)`` array is one block.
    Either way one edge is one input item.  ``partition`` names a
    streaming partitioner (:data:`STREAMING_PARTITIONERS`); the default
    is ``range``, as for :func:`build_store` and ``repro store build``,
    because a range store's partitions are id-contiguous and page
    whole in a dense sweep (:meth:`~.stored.StoredGraph.iter_csr_runs`).

    Pass 1 is array code: the stream is read as int64 blocks (pairs
    converted ``max(chunk_edges, 4096)`` at a time by one
    ``np.fromiter``), and each block is range-checked with one min/max,
    stripped of self-loops by a mask, cut where a chunk reaches
    ``2 * chunk_edges`` directed slots (undirected edges emit both
    directions, interleaved), and each chunk is routed to the
    per-partition spill files by one stable sort of the owners.  Pass 2
    builds one partition at a time: load that partition's spill, turn
    it into the shard's CSR with
    :func:`~repro.graph.kernels.csr_from_pairs` (local rows against
    global neighbors), and write the shard.  Equivalent to
    ``build_store(Graph.from_edges(edges, ...), ...)`` under the same
    partition layout — byte-for-byte, because ``Graph.from_edges``
    builds through the same routine.

    Every chunk and partition boundary commits a write-ahead journal
    (see :mod:`repro.graph.store.journal`).  Each commit records the
    same ``(items consumed, slots spilled, spill sizes)`` the former
    per-edge loop recorded (:func:`~repro.graph.store.checks.per_edge_pass1`
    is that loop, kept as the oracle), so fault injection lands on the
    same chunk indices.  An out-of-range edge raises ``StoreError``
    after the chunks before it are committed.  After a crash, call
    again with ``resume=True`` and the *same* parameters: pass 1
    truncates any torn spill tail, replays ``edges`` past the consumed
    prefix (the iterable must restart from the beginning — a generator
    factory, file reader, list or array), and pass 2 skips completed
    partitions.  If the crash happened in pass 2 or later, ``edges``
    is not consumed at all and may be ``None``.  The resumed build is
    byte-identical to an uninterrupted one.

    ``overwrite=True`` on an existing store is atomic, as in
    :func:`build_store`: the ingest runs in the sibling ``<path>.tmp``
    and is swapped in only when complete, so a crash leaves the old
    store readable at ``path``.  Unlike a failed one-shot build, a
    crashed overwrite keeps ``<path>.tmp`` (its journal): call again
    with ``resume=True, overwrite=True`` to finish and swap it in, or
    without ``resume`` to start over.
    """
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    n = int(num_vertices)
    parts = max(1, int(num_parts))
    final_root = os.fspath(path)
    store_name = (
        name or os.path.basename(os.path.normpath(final_root)) or "graph"
    )
    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != n:
            raise StoreError(
                f"features must be (n, d); got {features.shape} for n={n}"
            )
    fingerprint = {
        "num_vertices": n,
        "directed": bool(directed),
        "partition": str(partition),
        "num_parts": parts,
        "seed": int(seed),
        "chunk_edges": int(chunk_edges),
        "name": store_name,
        "feature_dim": None if features is None else int(features.shape[1]),
    }

    journal: Optional[IngestJournal] = None
    if resume:
        # A crashed overwrite left its journal in the staging sibling.
        replacing = overwrite and os.path.isdir(_staging_dir(final_root))
        root = _staging_dir(final_root) if replacing else final_root
        if os.path.exists(os.path.join(root, MANIFEST_FILENAME)):
            # Crashed after the manifest landed: only the journal sweep
            # (and an overwrite's swap) was lost.  Finish and return.
            shutil.rmtree(os.path.join(root, INGEST_DIRNAME),
                          ignore_errors=True)
            if replacing:
                _publish(root, final_root)
            return Manifest.load(final_root)
        journal = IngestJournal.load(root)
        if journal is not None and not journal.matches(fingerprint):
            raise StoreError(
                f"ingest journal under {root!r} was written with different "
                f"parameters; refusing to resume (journal {journal.fingerprint}, "
                f"requested {fingerprint})"
            )
        os.makedirs(root, exist_ok=True)
    else:
        root, replacing = _open_build_dir(final_root, overwrite)
        # A previous crashed ingest may have stranded spills + journal
        # under _ingest/ without publishing a manifest; a fresh
        # (non-resume) run must not inherit them.
        shutil.rmtree(os.path.join(root, INGEST_DIRNAME), ignore_errors=True)
    if journal is None:
        journal = IngestJournal(root, fingerprint)
        if resume:
            # Crashed before the first chunk committed: start pass 1
            # from scratch (spills, if any, are truncated to zero).
            journal.spill_bytes = [0] * parts

    assignment = streaming_assignment(partition, n, num_parts, seed)
    spill_dir = os.path.join(root, INGEST_DIRNAME)
    os.makedirs(spill_dir, exist_ok=True)
    spill_paths = [
        os.path.join(spill_dir, f"part{k}.edges.bin") for k in range(parts)
    ]

    total_slots_spilled = journal.slots_spilled
    if journal.phase == "pass1":
        if edges is None:
            raise StoreError(
                "pass 1 is incomplete; resuming needs the edge iterable"
            )
        # Discard any torn tail past the last journaled commit.
        committed_sizes = list(journal.spill_bytes) + [0] * (
            parts - len(journal.spill_bytes)
        )
        for spill_path, size in zip(spill_paths, committed_sizes):
            if not os.path.exists(spill_path):
                open(spill_path, "wb").close()
            # A spill shorter than its commit lost edges; truncate would
            # pad it with zeros, i.e. phantom (0, 0) slots.
            if size % 16 or os.path.getsize(spill_path) < size:
                raise StoreError(
                    f"ingest journal commits {size} bytes of "
                    f"{os.path.basename(spill_path)}, which holds "
                    f"{os.path.getsize(spill_path)} (16-byte slots); "
                    f"rebuild without resume=True"
                )
            os.truncate(spill_path, size)
        spills = [open(p, "ab") for p in spill_paths]
        # Owners in the narrowest unsigned type: numpy's stable argsort
        # is a radix sort up to 16 bits.
        narrow_assignment = assignment.astype(np.min_scalar_type(parts - 1))
        try:
            # -- pass 1: chunked routing to per-partition spill files ----

            def flush(kept: np.ndarray, consumed_at: int) -> None:
                """Spill one chunk of kept edges, then commit the journal."""
                nonlocal total_slots_spilled
                chunk_index = journal.chunks_committed
                torn = (
                    injector is not None
                    and injector.take_torn_write(chunk_index)
                )
                # Undirected edges emit both directions, interleaved
                # edge by edge: (u, v), (v, u), ...
                slots = kept if directed else np.stack(
                    (kept, kept[:, ::-1]), axis=1
                ).reshape(-1, 2)
                owner = narrow_assignment[slots[:, 0]]
                counts = np.bincount(owner, minlength=parts)
                ends = np.cumsum(counts)
                routed = slots[np.argsort(owner, kind="stable")]
                owners = np.flatnonzero(counts)
                for i, k in enumerate(owners):
                    rows = routed[ends[k] - counts[k]: ends[k]]
                    if torn and i == len(owners) - 1:
                        # A torn write: half of the final partition's
                        # bytes land, then the "machine" dies.  The
                        # journal still points at the previous commit,
                        # so resume truncates this whole chunk away.
                        data = rows.tobytes()
                        spills[k].write(data[: len(data) // 2])
                        spills[k].flush()
                        raise FaultError("torn_write", chunk=chunk_index)
                    spills[k].write(rows)
                total_slots_spilled += slots.shape[0]
                sizes = []
                for handle in spills:
                    handle.flush()
                    os.fsync(handle.fileno())
                    sizes.append(handle.tell())
                journal.commit_chunk(consumed_at, total_slots_spilled, sizes)
                if injector is not None and injector.take_ingest_crash(
                    chunk_index
                ):
                    raise FaultError("crash_at_chunk", chunk=chunk_index)

            # A chunk closes on the kept edge that brings its slot count
            # to 2 * chunk_edges; self-loops count as consumed items but
            # fill no slot (csr_from_pairs drops them; stay equivalent).
            edges_per_chunk = 2 * chunk_edges if directed else chunk_edges
            consumed = skip = journal.items_consumed
            pending: List[np.ndarray] = []  # kept edges since the last commit
            pending_edges = 0
            for block in _edge_blocks(
                edges, n, max(chunk_edges, _MIN_BLOCK_ITEMS)
            ):
                if skip:  # resume: drop the journaled prefix
                    dropped = min(skip, block.shape[0])
                    block, skip = block[dropped:], skip - dropped
                error = None
                if block.size and (block.min() < 0 or block.max() >= n):
                    outside = ((block < 0) | (block >= n)).any(axis=1)
                    first = int(np.argmax(outside))
                    error = _outside_error(*block[first].tolist(), n)
                    block = block[:first]
                kept_at = np.flatnonzero(block[:, 0] != block[:, 1])
                start = 0
                for cut in range(
                    edges_per_chunk - pending_edges - 1, kept_at.size,
                    edges_per_chunk,
                ):
                    pending.append(block[kept_at[start: cut + 1]])
                    # The closing edge is consumed; anything after it in
                    # the block belongs to the next chunk.
                    flush(
                        np.concatenate(pending),
                        consumed + int(kept_at[cut]) + 1,
                    )
                    pending, pending_edges, start = [], 0, cut + 1
                pending.append(block[kept_at[start:]])
                pending_edges += kept_at.size - start
                consumed += block.shape[0]
                if error is not None:
                    raise error
            if skip:
                raise StoreError(
                    f"edge stream ended after {consumed - skip} items on "
                    f"resume; the journal consumed {consumed} — pass the "
                    f"same stream"
                )
            if pending_edges:
                flush(np.concatenate(pending), consumed)
        finally:
            for handle in spills:
                handle.close()
        journal.begin_pass2()

    # -- pass 2: one partition at a time ----------------------------------
    done = journal.completed_partitions()
    degrees = np.zeros(n, dtype=np.int64)
    local_id = np.empty(n, dtype=np.int64)  # vertex -> row in its shard
    partitions = []
    total_slots = 0
    for k in range(parts):
        nodes = np.flatnonzero(assignment == k).astype(np.int64)
        local_id[nodes] = np.arange(nodes.size)
        if k in done:
            # Finished before the crash: shards are on disk; recover
            # this partition's degree rows from its own indptr shard.
            meta = done[k]
            indptr_k = np.load(os.path.join(root, f"part{k}/indptr.npy"))
            degrees[nodes] = np.diff(indptr_k)
            partitions.append(meta)
            total_slots += meta.num_edge_slots
            if os.path.exists(spill_paths[k]):
                os.remove(spill_paths[k])
            continue
        raw = np.fromfile(spill_paths[k], dtype=np.int64)
        part_indptr, dst, _ = csr_from_pairs(
            local_id[raw[0::2]], raw[1::2], (nodes.size, n), directed=True
        )
        degrees[nodes] = np.diff(part_indptr)
        feature_rows = features[nodes] if features is not None else None
        meta = _write_partition_shard(
            root, k, nodes, part_indptr, dst, None, feature_rows, injector
        )
        partitions.append(meta)
        total_slots += int(dst.size)
        journal.commit_partition(meta, total_slots)
        os.remove(spill_paths[k])

    files = {
        "assignment": _write_array(root, "assignment.npy", assignment, injector),
        "degrees": _write_array(root, "degrees.npy", degrees, injector),
    }
    manifest = Manifest(
        name=store_name,
        num_vertices=n,
        num_edges=total_slots if directed else total_slots // 2,
        num_edge_slots=total_slots,
        directed=bool(directed),
        num_parts=parts,
        partitioner=partition,
        built_by="chunked",
        chunk_edges=int(chunk_edges),
        feature_dim=None if features is None else int(features.shape[1]),
        partitions=partitions,
        files=files,
    )
    manifest.save(root)
    journal.remove()
    shutil.rmtree(spill_dir, ignore_errors=True)
    if replacing:
        _publish(root, final_root)
    return manifest
