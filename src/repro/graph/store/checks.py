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
  **byte-identical**, full tree SHA-256, to the uninterrupted build.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Dict, List

import numpy as np

from ...check.invariants import same_bits, same_values
from ...check.registry import BIT_IDENTICAL, invariant, pair
from ...check.workloads import gen_graph_params, make_graph
from ...matching.backtrack import count_matches
from ...matching.pattern import path_pattern, star_pattern, triangle_pattern
from ...obs import MetricsRegistry
from ...resilience.faults import FaultError, FaultPlan
from ...tlav.vectorized import bfs_dense, pagerank_dense, wcc_dense
from .format import Manifest, verify_file
from .handle import as_handle
from .stored import open_store
from .writer import STREAMING_PARTITIONERS, build_store, ingest_edge_stream

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
