"""Differential checks for the on-disk store (`repro check --subsystem store`).

Every oracle here builds a store whose shard-cache budget is capped
*below* the total shard bytes, so paging actually happens — the
stored-vs-in-memory pairs are exercising the mmap/LRU path, not a
fully-resident copy:

* ``store.pagerank.stored_vs_memory`` / ``store.bfs...`` /
  ``store.wcc...`` — dense analytics over a paged ``StoredGraph`` are
  **bit-identical** to the in-memory graph (the ``iter_csr_runs``
  ordering contract);
* ``store.expand_frontier.stored_vs_memory`` — the batched frontier
  gather returns the same owners and neighbors through the paged store,
  for two page requests per touched partition;
* ``store.matching.count_stored_vs_memory`` — the frontier counter
  counts the same embeddings through the paged handle surface;
* ``store.manifest.roundtrip`` — shards re-assemble to the exact
  original CSR, chunked ingest is byte-identical to the one-shot
  build, and the manifest's counts agree with the shards;
* ``store.cache.accounting`` — ``hits + misses == pages requested``,
  bytes paged equal the missed shards' bytes, and the obs counters
  mirror the in-object stats;
* ``store.journal.resume_vs_oneshot`` — an ingest crashed at a random
  journaled chunk boundary (and one torn mid-flush) then resumed is
  **byte-identical**, full tree SHA-256, to the uninterrupted build;
* ``store.ingest.chunked_vs_per_edge`` — the array pass 1, fed tuples,
  one array, ``(k, 2)`` blocks or a mix, commits the same journal and
  spill bytes as the per-edge loop it replaced (:func:`per_edge_pass1`).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ...check.invariants import same_bits, same_values
from ...check.registry import BIT_IDENTICAL, invariant, pair
from ...check.workloads import gen_graph_params, make_graph
from ...matching.backtrack import count_matches
from ...matching.pattern import path_pattern, star_pattern, triangle_pattern
from ...obs import MetricsRegistry
from ...resilience.faults import FaultError, FaultPlan
from ...tlav.vectorized import bfs_dense, pagerank_dense, wcc_dense
from .format import Manifest, StoreError, verify_file
from .handle import as_handle
from .journal import IngestJournal
from .stored import open_store
from .writer import (
    STREAMING_PARTITIONERS,
    build_store,
    ingest_edge_stream,
    streaming_assignment,
)

#: Partitioners the store oracles rotate through (all one-shot capable).
STORE_PARTITIONERS = ("hash", "range", "metis")


def _gen_store(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 72))
    params["num_parts"] = int(rng.integers(2, 5))
    params["store_partitioner"] = int(rng.integers(len(STORE_PARTITIONERS)))
    params["part_seed"] = int(rng.integers(1 << 16))
    return params


def _build_and_open(graph, params: Dict, tmp: str, obs=None):
    """Materialize ``graph`` and open it with a paging-forcing budget."""
    partitioner = STORE_PARTITIONERS[
        int(params["store_partitioner"]) % len(STORE_PARTITIONERS)
    ]
    manifest = build_store(
        graph,
        os.path.join(tmp, "g"),
        partition=partitioner,
        num_parts=max(1, int(params["num_parts"])),
        seed=int(params.get("part_seed", 0)),
    )
    # Cap the cache below the total shard bytes: paging must happen.
    budget = max(1, manifest.shard_bytes // 2)
    return open_store(os.path.join(tmp, "g"), cache_budget=budget, obs=obs)


@pair(
    "store.pagerank.stored_vs_memory", "store", BIT_IDENTICAL,
    gen=_gen_store, floors={"n": 4, "num_parts": 1, "store_partitioner": 0},
    description="Dense PageRank over a StoredGraph whose shard cache is "
    "capped below total shard bytes equals the in-memory result bit for "
    "bit (the iter_csr_runs scatter-order contract).",
)
def _check_pagerank_stored(params: Dict) -> List[str]:
    graph = make_graph(params)
    with tempfile.TemporaryDirectory(prefix="check-store-") as tmp:
        stored = _build_and_open(graph, params, tmp)
        got = pagerank_dense(stored, iterations=8)
        out = same_bits(pagerank_dense(graph, iterations=8), got, "pagerank")
        if stored.cache.stats.evictions == 0:
            out.append("cache: no evictions — paging never happened")
        stored.close()
    return out


@pair(
    "store.bfs.stored_vs_memory", "store", BIT_IDENTICAL,
    gen=_gen_store, floors={"n": 4, "num_parts": 1, "store_partitioner": 0},
    description="Dense BFS levels from vertex 0 agree exactly between "
    "the paged store and the in-memory graph.",
)
def _check_bfs_stored(params: Dict) -> List[str]:
    graph = make_graph(params)
    with tempfile.TemporaryDirectory(prefix="check-store-") as tmp:
        stored = _build_and_open(graph, params, tmp)
        out = same_bits(bfs_dense(graph, 0), bfs_dense(stored, 0), "bfs")
        stored.close()
    return out


@pair(
    "store.wcc.stored_vs_memory", "store", BIT_IDENTICAL,
    gen=_gen_store, floors={"n": 4, "num_parts": 1, "store_partitioner": 0},
    description="Hash-min WCC labels agree exactly between the paged "
    "store and the in-memory graph.",
)
def _check_wcc_stored(params: Dict) -> List[str]:
    graph = make_graph(params)
    with tempfile.TemporaryDirectory(prefix="check-store-") as tmp:
        stored = _build_and_open(graph, params, tmp)
        out = same_bits(wcc_dense(graph), wcc_dense(stored), "wcc")
        stored.close()
    return out


@pair(
    "store.expand_frontier.stored_vs_memory", "store", BIT_IDENTICAL,
    gen=_gen_store, floors={"n": 4, "num_parts": 1, "store_partitioner": 0},
    description="A random frontier (duplicates, unsorted; drawn from "
    "part_seed) expands to the same owners and neighbors through the "
    "paged store as through the in-memory handle, and the store is "
    "asked for exactly two shards per touched partition.",
)
def _check_expand_frontier_stored(params: Dict) -> List[str]:
    graph = make_graph(params)
    rng = np.random.default_rng(int(params.get("part_seed", 0)))
    frontier = rng.integers(
        graph.num_vertices, size=int(rng.integers(2 * graph.num_vertices))
    )
    want_owners, want = as_handle(graph).expand_frontier(frontier)
    with tempfile.TemporaryDirectory(prefix="check-store-") as tmp:
        stored = _build_and_open(graph, params, tmp)
        owners, got = stored.expand_frontier(frontier)
        out = same_bits(want, got, "neighbors")
        out += same_bits(want_owners, owners, "owners")
        touched = np.unique(stored.assignment[frontier]).size
        requested = stored.cache.stats.pages_requested
        if requested != 2 * touched:
            out.append(
                f"paging: {requested} pages requested for {touched} "
                f"touched partitions (expected {2 * touched})"
            )
        stored.close()
    return out


_MATCH_PATTERNS = (
    ("triangle", triangle_pattern),
    ("path3", lambda: path_pattern(3)),
    ("star3", lambda: star_pattern(3)),
)


def _gen_match(rng: np.random.Generator) -> Dict:
    params = _gen_store(rng)
    params["pattern"] = int(rng.integers(len(_MATCH_PATTERNS)))
    return params


@pair(
    "store.matching.count_stored_vs_memory", "store", BIT_IDENTICAL,
    gen=_gen_match,
    floors={"n": 4, "num_parts": 1, "store_partitioner": 0, "pattern": 0},
    description="count_matches counts identical embeddings through the "
    "paged handle surface and the concrete Graph.",
)
def _check_matching_stored(params: Dict) -> List[str]:
    graph = make_graph(params)
    name, build = _MATCH_PATTERNS[int(params["pattern"]) % len(_MATCH_PATTERNS)]
    pattern = build()
    with tempfile.TemporaryDirectory(prefix="check-store-") as tmp:
        stored = _build_and_open(graph, params, tmp)
        out = same_values(
            count_matches(graph, pattern),
            count_matches(stored, pattern),
            f"count[{name}]",
        )
        stored.close()
    return out


@invariant(
    "store.manifest.roundtrip", "store", gen=_gen_store,
    floors={"n": 4, "num_parts": 1, "store_partitioner": 0},
    description="Partition shards re-assemble to the exact original CSR; "
    "manifest counts match the shards; every manifest-listed file "
    "verifies; chunked ingest writes byte-identical shards to the "
    "one-shot build under the same streaming partitioner.",
)
def _check_manifest_roundtrip(params: Dict) -> List[str]:
    graph = make_graph(params)
    out: List[str] = []
    partitioner = STORE_PARTITIONERS[
        int(params["store_partitioner"]) % len(STORE_PARTITIONERS)
    ]
    parts = max(1, int(params["num_parts"]))
    seed = int(params.get("part_seed", 0))
    with tempfile.TemporaryDirectory(prefix="check-store-") as tmp:
        root = os.path.join(tmp, "g")
        manifest = build_store(
            graph, root, partition=partitioner, num_parts=parts, seed=seed
        )
        loaded = Manifest.load(root)
        if loaded.as_dict() != manifest.as_dict():
            out.append("manifest: save/load round-trip drifted")
        for entry in loaded.files.values():
            verify_file(root, entry)
        slot_total = 0
        for part in loaded.partitions:
            for entry in part.files.values():
                verify_file(root, entry)
            slot_total += part.num_edge_slots
        if slot_total != loaded.num_edge_slots:
            out.append(
                f"manifest: partition slots sum to {slot_total}, "
                f"manifest says {loaded.num_edge_slots}"
            )
        stored = open_store(root)
        rebuilt = stored.to_graph()
        out += same_bits(graph.indptr, rebuilt.indptr, "indptr")
        out += same_bits(graph.indices, rebuilt.indices, "indices")
        if rebuilt != graph:
            out.append("roundtrip: Graph equality failed")
        stored.close()
        # Chunked == one-shot, byte for byte, when the partitioner can
        # stream (pure function of the vertex id).
        if partitioner in STREAMING_PARTITIONERS and not graph.directed:
            chunked_root = os.path.join(tmp, "chunked")
            one_shot_root = os.path.join(tmp, "one_shot")
            build_store(
                graph, one_shot_root, partition=partitioner,
                num_parts=parts, seed=seed,
            )
            ingest_edge_stream(
                graph.edges(), graph.num_vertices, chunked_root,
                directed=False, partition=partitioner, num_parts=parts,
                seed=seed, chunk_edges=7,
            )
            for part in Manifest.load(one_shot_root).partitions:
                for key, entry in part.files.items():
                    with open(os.path.join(one_shot_root, entry.path), "rb") as a:
                        want = a.read()
                    with open(os.path.join(chunked_root, entry.path), "rb") as b:
                        have = b.read()
                    if want != have:
                        out.append(
                            f"ingest: part{part.part_id}/{key} differs "
                            f"between chunked and one-shot builds"
                        )
    return out


def _tree_digest(root: str) -> str:
    """SHA-256 over every file under ``root`` (relative path + bytes)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fname in sorted(filenames):
            full = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(full, root).encode() + b"\0")
            with open(full, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\1")
    return digest.hexdigest()


def _gen_journal(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 48))
    params["num_parts"] = int(rng.integers(1, 4))
    params["stream_partitioner"] = int(rng.integers(len(STREAMING_PARTITIONERS)))
    params["part_seed"] = int(rng.integers(1 << 16))
    params["chunk_edges"] = int(rng.integers(3, 13))
    params["crash_pick"] = int(rng.integers(1 << 16))
    return params


@invariant(
    "store.journal.resume_vs_oneshot", "store", gen=_gen_journal,
    floors={"n": 4, "num_parts": 1, "stream_partitioner": 0,
            "chunk_edges": 2, "crash_pick": 0},
    description="Chunked ingest crashed at a randomly drawn journaled "
    "chunk boundary — and once torn mid-flush — then resumed produces a "
    "store whose full-tree SHA-256 equals the uninterrupted build's.",
)
def _check_journal_resume(params: Dict) -> List[str]:
    graph = make_graph(params)
    out: List[str] = []
    partitioner = STREAMING_PARTITIONERS[
        int(params["stream_partitioner"]) % len(STREAMING_PARTITIONERS)
    ]
    edges = [(int(u), int(v)) for u, v in graph.edges()]
    effective = sum(1 for u, v in edges if u != v)
    if effective == 0:
        return out  # nothing to spill — no chunk boundary to crash on
    chunk_edges = max(2, int(params["chunk_edges"]))
    # Pass 1 flushes once ``2 * chunk_edges`` slots accumulate; an
    # undirected edge contributes two slots, a directed arc one.
    slots_per_edge = 1 if graph.directed else 2
    edges_per_chunk = -(-2 * chunk_edges // slots_per_edge)
    n_chunks = max(1, -(-effective // edges_per_chunk))
    crash_chunk = int(params["crash_pick"]) % n_chunks
    kwargs = dict(
        num_vertices=graph.num_vertices, directed=graph.directed,
        partition=partitioner, num_parts=max(1, int(params["num_parts"])),
        seed=int(params.get("part_seed", 0)), chunk_edges=chunk_edges,
        name="g",
    )
    with tempfile.TemporaryDirectory(prefix="check-journal-") as tmp:
        ref = os.path.join(tmp, "ref")
        ingest_edge_stream(iter(edges), path=ref, **kwargs)
        want = _tree_digest(ref)

        crash_dir = os.path.join(tmp, "crash")
        injector = FaultPlan(seed=0).crash_at_chunk(crash_chunk).build()
        try:
            ingest_edge_stream(
                iter(edges), path=crash_dir, injector=injector, **kwargs
            )
            out.append(
                f"journal: crash_at_chunk({crash_chunk}) never fired "
                f"({n_chunks} chunks expected)"
            )
        except FaultError:
            ingest_edge_stream(iter(edges), path=crash_dir, resume=True, **kwargs)
            if _tree_digest(crash_dir) != want:
                out.append(
                    f"journal: resume after crash at chunk {crash_chunk} is "
                    f"not byte-identical to the one-shot build"
                )

        torn_dir = os.path.join(tmp, "torn")
        injector = FaultPlan(seed=0).torn_write(chunk=0).build()
        try:
            ingest_edge_stream(
                iter(edges), path=torn_dir, injector=injector, **kwargs
            )
            out.append("journal: torn_write(0) never fired")
        except FaultError:
            ingest_edge_stream(iter(edges), path=torn_dir, resume=True, **kwargs)
            if _tree_digest(torn_dir) != want:
                out.append(
                    "journal: resume after a torn spill tail is not "
                    "byte-identical to the one-shot build"
                )
    return out


def per_edge_pass1(
    edges: Iterable[Tuple[int, int]],
    num_vertices: int,
    *,
    directed: bool,
    assignment: np.ndarray,
    num_parts: int,
    chunk_edges: int,
) -> Tuple[List[Tuple[int, int, List[bytes]]], Optional[Exception]]:
    """Pass 1 of ``ingest_edge_stream`` as the per-edge loop it replaced.

    The reference for ``store.ingest.chunked_vs_per_edge``: one Python
    iteration per input pair.  Returns ``(commits, error)`` — one
    ``(items_consumed, slots_spilled, spill_bytes)`` per journal commit,
    ``spill_bytes[k]`` being partition ``k``'s whole spill file after
    it, and the error the loop stopped on (``None`` at end of stream).
    """
    n = int(num_vertices)
    spills = [b""] * max(1, int(num_parts))
    commits: List[Tuple[int, int, List[bytes]]] = []
    chunk_src: List[int] = []
    chunk_dst: List[int] = []
    consumed = total = 0

    def flush() -> None:
        nonlocal total
        if not chunk_src:
            return
        src = np.asarray(chunk_src, dtype=np.int64)
        dst = np.asarray(chunk_dst, dtype=np.int64)
        owner = assignment[src]
        for k in np.unique(owner):
            mask = owner == k
            pairs = np.empty((int(mask.sum()), 2), dtype=np.int64)
            pairs[:, 0] = src[mask]
            pairs[:, 1] = dst[mask]
            spills[int(k)] += pairs.tobytes()
        total += src.size
        chunk_src.clear()
        chunk_dst.clear()
        commits.append((consumed, total, list(spills)))

    try:
        for u, v in edges:
            consumed += 1
            u, v = int(u), int(v)
            if u < 0 or v < 0 or u >= n or v >= n:
                raise StoreError(
                    f"edge ({u}, {v}) references a vertex outside 0..{n - 1}"
                )
            if u == v:
                continue
            chunk_src.append(u)
            chunk_dst.append(v)
            if not directed:
                chunk_src.append(v)
                chunk_dst.append(u)
            if len(chunk_src) >= 2 * chunk_edges:
                flush()
        flush()
    except Exception as exc:  # the loop's error is part of its contract
        return commits, exc
    return commits, None


#: How ``store.ingest.chunked_vs_per_edge`` hands the same edges over.
STREAM_FORMS = ("pairs", "array", "blocks", "mixed")


def stream_form(edges: np.ndarray, form: str, cuts: Sequence[int] = ()):
    """``edges`` (an ``(m, 2)`` array) as an ingest stream of one form.

    ``pairs``: a list of int tuples; ``array``: the array itself;
    ``blocks``: ``(k, 2)`` arrays split at the sorted row indices
    ``cuts`` (empty ones included); ``mixed``: those blocks alternating
    with runs of tuples.
    """
    if form == "pairs":
        return [tuple(e) for e in edges.tolist()]
    if form == "array":
        return edges
    blocks = np.split(edges, cuts)
    if form == "blocks":
        return blocks
    out: list = []
    for i, block in enumerate(blocks):
        if i % 2:
            out.append(block)
        else:
            out.extend(tuple(e) for e in block.tolist())
    return out


def _noisy_edges(graph, rng: np.random.Generator) -> np.ndarray:
    """``graph``'s edges plus self-loops and repeats, shuffled and flipped."""
    base = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    loops = np.repeat(rng.integers(graph.num_vertices, size=(rng.integers(4), 1)),
                      2, axis=1)
    repeats = base[rng.integers(base.shape[0], size=rng.integers(4))] \
        if base.shape[0] else base
    edges = np.concatenate([base, loops, repeats])
    edges = edges[rng.permutation(edges.shape[0])]
    flip = rng.random(edges.shape[0]) < 0.5
    edges[flip] = edges[flip, ::-1]
    return edges


def _gen_ingest(rng: np.random.Generator) -> Dict:
    params = _gen_journal(rng)
    params["directed"] = int(rng.integers(2))
    params["form"] = int(rng.integers(len(STREAM_FORMS)))
    params["stream_seed"] = int(rng.integers(1 << 16))
    return params


@pair(
    "store.ingest.chunked_vs_per_edge", "store", BIT_IDENTICAL,
    gen=_gen_ingest,
    floors={"n": 4, "num_parts": 1, "stream_partitioner": 0,
            "chunk_edges": 1, "crash_pick": 0, "directed": 0, "form": 0},
    description="Array pass 1 vs the per-edge loop it replaced: the same "
    "edges (self-loops and repeats mixed in) handed over as tuples, one "
    "array, random (k, 2) blocks or a mix, crashed at a drawn chunk, "
    "leave the journal (items consumed, slots, spill sizes) and the spill "
    "bytes the loop committed there; resumed, the store equals the "
    "uninterrupted build of the tuples, full tree SHA-256.",
)
def _check_ingest_vs_per_edge(params: Dict) -> List[str]:
    graph = make_graph(params)
    rng = np.random.default_rng(int(params.get("stream_seed", 0)))
    edges = _noisy_edges(graph, rng)
    form = STREAM_FORMS[int(params.get("form", 0)) % len(STREAM_FORMS)]
    cuts = np.sort(rng.integers(0, edges.shape[0] + 1, size=rng.integers(6)))
    stream = stream_form(edges, form, cuts)
    partitioner = STREAMING_PARTITIONERS[
        int(params["stream_partitioner"]) % len(STREAMING_PARTITIONERS)
    ]
    kwargs = dict(
        num_vertices=graph.num_vertices, directed=bool(params.get("directed")),
        partition=partitioner, num_parts=max(1, int(params["num_parts"])),
        seed=int(params.get("part_seed", 0)),
        chunk_edges=max(1, int(params["chunk_edges"])), name="g",
    )
    assignment = streaming_assignment(
        partitioner, graph.num_vertices, kwargs["num_parts"], kwargs["seed"]
    )
    commits, error = per_edge_pass1(
        stream_form(edges, "pairs"), graph.num_vertices,
        directed=kwargs["directed"], assignment=assignment,
        num_parts=kwargs["num_parts"], chunk_edges=kwargs["chunk_edges"],
    )
    if error is not None:
        return [f"reference: per-edge loop raised {error!r}"]
    out: List[str] = []
    with tempfile.TemporaryDirectory(prefix="check-ingest-") as tmp:
        ref = os.path.join(tmp, "ref")
        ingest_edge_stream(stream_form(edges, "pairs"), path=ref, **kwargs)
        want = _tree_digest(ref)
        root = os.path.join(tmp, form)
        if not commits:
            ingest_edge_stream(stream, path=root, **kwargs)
        else:
            crash = int(params["crash_pick"]) % len(commits)
            injector = FaultPlan(seed=0).crash_at_chunk(crash).build()
            try:
                ingest_edge_stream(stream, path=root, injector=injector, **kwargs)
                return [f"journal: crash_at_chunk({crash}) never fired "
                        f"({len(commits)} chunks expected)"]
            except FaultError:
                pass
            journal = IngestJournal.load(root)
            consumed, slots, spills = commits[crash]
            got = (journal.chunks_committed, journal.items_consumed,
                   journal.slots_spilled, journal.spill_bytes)
            expect = (crash + 1, consumed, slots, [len(s) for s in spills])
            if got != expect:
                out.append(f"journal at chunk {crash}: (chunks, items, slots, "
                           f"spill sizes) {got}, per-edge loop {expect}")
            for k, data in enumerate(spills):
                path = os.path.join(journal.dir, f"part{k}.edges.bin")
                with open(path, "rb") as handle:
                    if handle.read() != data:
                        out.append(f"spill part{k} after chunk {crash} "
                                   f"differs from the per-edge loop's")
            ingest_edge_stream(stream, path=root, resume=True, **kwargs)
        if _tree_digest(root) != want:
            out.append(f"store from {form!r} stream differs from the "
                       f"uninterrupted build of the tuples")
    return out


@invariant(
    "store.cache.accounting", "store", gen=_gen_store,
    floors={"n": 4, "num_parts": 1, "store_partitioner": 0},
    description="Shard-cache accounting: hits + misses equals pages "
    "requested (2 per neighbors() call), bytes_paged sums the missed "
    "shards, and the store.* obs counters mirror the in-object stats.",
)
def _check_cache_accounting(params: Dict) -> List[str]:
    graph = make_graph(params)
    out: List[str] = []
    obs = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="check-store-") as tmp:
        stored = _build_and_open(graph, params, tmp, obs=obs)
        n = stored.num_vertices
        requested = 0
        for v in range(0, n, 3):
            stored.neighbors(v)
            requested += 2  # one indptr page + one indices page
        stats = stored.cache.stats
        if stats.hits + stats.misses != requested:
            out.append(
                f"cache: hits({stats.hits}) + misses({stats.misses}) != "
                f"pages requested ({requested})"
            )
        if stats.pages_requested != requested:
            out.append(
                f"cache: pages_requested={stats.pages_requested}, "
                f"expected {requested}"
            )
        counters = {
            "store.shard_hits": stats.hits,
            "store.shard_misses": stats.misses,
            "store.shard_evictions": stats.evictions,
            "store.bytes_paged": stats.bytes_paged,
        }
        for name, want in counters.items():
            metric = obs.counter(name)
            got = sum(metric.series().values())
            if int(got) != int(want):
                out.append(f"obs: {name}={got}, cache stats say {want}")
        budget = stored.cache.budget
        if budget is not None and len(stored.cache) > 1:
            if stored.cache.resident_bytes > max(
                budget, max(e.nbytes for p in stored.manifest.partitions
                            for e in p.files.values())
            ):
                out.append(
                    f"cache: resident {stored.cache.resident_bytes} bytes "
                    f"exceeds budget {budget} with multiple entries"
                )
        stored.close()
        if stored.cache.resident_bytes != 0:
            out.append("cache: close() left resident bytes")
    return out
