"""The on-disk store: format round-trips, paging, and the handle API.

Pins the storage-layer contracts DESIGN's "Storage layer" section
promises:

* chunked ingest writes **byte-identical** shards to the one-shot
  build (same partitioner, same seed);
* a corrupt or truncated shard raises a clear :class:`StoreError` at
  page-in, not a numpy decode error three frames later;
* repeated open/close cycles release their memory maps — no file
  descriptor leak;
* the pre-store ``graph=`` keyword spelling is a ``TypeError``;
* every engine family gives identical answers through a paged
  :class:`StoredGraph` and the in-memory graph;
* ``expand_frontier`` equals the per-vertex concatenation on every
  handle while requesting each touched partition's shards once.
"""

import gc
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.csr import Graph, GraphBuilder
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.partition import metis_like_partition
from repro.graph.store import (
    MANIFEST_FILENAME,
    InMemoryGraph,
    Manifest,
    StoreCatalog,
    StoredGraph,
    StoreError,
    as_handle,
    build_store,
    ingest_edge_stream,
    open_store,
    repair_store,
    streaming_assignment,
)
from repro.obs import MetricsRegistry


@pytest.fixture
def graph():
    return barabasi_albert(80, 3, seed=11)


def _shard_files(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for fname in files:
            if fname.endswith(".npy"):
                full = os.path.join(dirpath, fname)
                with open(full, "rb") as handle:
                    out[os.path.relpath(full, root)] = handle.read()
    return out


class TestBuildRoundTrip:
    @pytest.mark.parametrize("partitioner", ["hash", "range", "metis"])
    def test_to_graph_reassembles_exactly(self, graph, tmp_path, partitioner):
        build_store(graph, tmp_path / "g", partition=partitioner, num_parts=3)
        stored = open_store(tmp_path / "g")
        assert stored.to_graph() == graph
        stored.close()

    def test_custom_partition_object(self, graph, tmp_path):
        part = metis_like_partition(graph, 3, seed=1)
        manifest = build_store(graph, tmp_path / "g", partition=part)
        assert manifest.partitioner == "custom"
        stored = open_store(tmp_path / "g")
        assert stored.to_graph() == graph
        stored.close()

    def test_manifest_counts_match_shards(self, graph, tmp_path):
        manifest = build_store(graph, tmp_path / "g", num_parts=4)
        assert manifest.num_vertices == graph.num_vertices
        assert manifest.num_edges == graph.num_edges
        assert sum(p.num_edge_slots for p in manifest.partitions) \
            == graph.indices.size
        reloaded = Manifest.load(tmp_path / "g")
        assert reloaded.as_dict() == manifest.as_dict()

    def test_features_and_labels_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        graph = erdos_renyi(40, 0.15, seed=5)
        labeled = Graph(
            graph.indptr, graph.indices, directed=graph.directed,
            vertex_labels=rng.integers(0, 4, graph.num_vertices),
            edge_labels=rng.integers(0, 3, graph.indices.size),
        )
        feats = rng.normal(size=(labeled.num_vertices, 6))
        build_store(labeled, tmp_path / "g", num_parts=3, features=feats)
        stored = open_store(tmp_path / "g")
        assert stored.feature_dim == 6
        np.testing.assert_array_equal(stored.features(), feats)
        ids = np.array([7, 0, 33])
        np.testing.assert_array_equal(stored.features(ids), feats[ids])
        assert stored.to_graph() == labeled
        np.testing.assert_array_equal(
            stored.vertex_labels, labeled.vertex_labels
        )
        stored.close()

    def test_overwrite_required_to_replace(self, graph, tmp_path):
        build_store(graph, tmp_path / "g")
        with pytest.raises(StoreError, match="exists"):
            build_store(graph, tmp_path / "g")
        build_store(graph, tmp_path / "g", overwrite=True)


class TestChunkedIngest:
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    @pytest.mark.parametrize("chunk_edges", [5, 64, 10_000])
    def test_chunked_equals_one_shot_bytes(
        self, graph, tmp_path, partitioner, chunk_edges
    ):
        build_store(
            graph, tmp_path / "one", partition=partitioner, num_parts=4,
            seed=9,
        )
        ingest_edge_stream(
            graph.edges(), graph.num_vertices, tmp_path / "chunk",
            partition=partitioner, num_parts=4, seed=9,
            chunk_edges=chunk_edges,
        )
        assert _shard_files(tmp_path / "one") == _shard_files(tmp_path / "chunk")

    def test_streaming_assignment_matches_partitioners(self, graph):
        from repro.graph.partition import hash_partition, range_partition

        n = graph.num_vertices
        np.testing.assert_array_equal(
            streaming_assignment("hash", n, 4, seed=7),
            hash_partition(graph, 4, seed=7).assignment,
        )
        np.testing.assert_array_equal(
            streaming_assignment("range", n, 4, seed=7),
            range_partition(graph, 4).assignment,
        )

    def test_out_of_range_vertex_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="outside"):
            ingest_edge_stream([(0, 9)], 4, tmp_path / "g")

    def test_duplicate_and_self_loop_slots_collapse(self, tmp_path):
        edges = [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]
        ingest_edge_stream(edges, 3, tmp_path / "g", num_parts=2)
        stored = open_store(tmp_path / "g")
        rebuilt = stored.to_graph()
        np.testing.assert_array_equal(rebuilt.neighbors(0), [1])
        np.testing.assert_array_equal(rebuilt.neighbors(2), [1])
        assert rebuilt.num_edges == 2
        stored.close()


class TestCorruption:
    def _one_shard(self, root, name="indices.npy"):
        for dirpath, _dirs, files in os.walk(root):
            if name in files:
                return os.path.join(dirpath, name)
        raise AssertionError(f"no {name} under {root}")

    def test_corrupt_shard_raises_store_error(self, graph, tmp_path):
        build_store(graph, tmp_path / "g", num_parts=2)
        shard = self._one_shard(tmp_path / "g")
        blob = bytearray(open(shard, "rb").read())
        blob[-1] ^= 0xFF
        open(shard, "wb").write(bytes(blob))
        stored = open_store(tmp_path / "g")
        with pytest.raises(StoreError, match="corrupt shard"):
            stored.to_graph()
        # The batched gather pages through the same verified path.
        with pytest.raises(StoreError, match="corrupt shard"):
            stored.expand_frontier(np.arange(graph.num_vertices))
        stored.close()

    def test_truncated_shard_raises_store_error(self, graph, tmp_path):
        build_store(graph, tmp_path / "g", num_parts=2)
        shard = self._one_shard(tmp_path / "g")
        blob = open(shard, "rb").read()
        open(shard, "wb").write(blob[: len(blob) // 2])
        stored = open_store(tmp_path / "g", checksum=False)
        with pytest.raises(StoreError, match="truncated shard"):
            stored.to_graph()
        stored.close()

    def test_missing_manifest_is_not_a_store(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StoreError, match="graph.json"):
            as_handle(str(tmp_path / "empty"))

    def test_checksum_false_skips_crc_but_not_size(self, graph, tmp_path):
        build_store(graph, tmp_path / "g", num_parts=2)
        shard = self._one_shard(tmp_path / "g")
        blob = bytearray(open(shard, "rb").read())
        blob[-1] ^= 0xFF
        open(shard, "wb").write(bytes(blob))
        stored = open_store(tmp_path / "g", checksum=False)
        stored.to_graph()  # same size, CRC unchecked: loads
        stored.close()


def _edit_manifest(root, edit):
    path = os.path.join(root, MANIFEST_FILENAME)
    with open(path) as handle:
        manifest = json.load(handle)
    edit(manifest)
    with open(path, "w") as handle:
        json.dump(manifest, handle)


def _read_everything(root):
    with open_store(root) as stored:
        stored.to_graph()
        stored.neighbors(0)


class TestHostileManifest:
    """A ``graph.json`` is input: a bad one is a :class:`StoreError` at
    load, before any path it names is opened or moved."""

    @pytest.mark.parametrize("absolute", [False, True], ids=["dotdot", "absolute"])
    def test_file_paths_stay_inside_the_store(self, graph, tmp_path, absolute):
        root = tmp_path / "a" / "b" / "store"
        build_store(graph, root, num_parts=2)
        victim = tmp_path / "a" / "victim.npy"
        victim.write_bytes(b"not a shard")
        path = str(victim) if absolute else "../../victim.npy"

        def escape(manifest):
            # Size mismatched, so a sweep that follows the path quarantines it.
            manifest["partitions"][0]["files"]["indices"] = {
                "path": path, "bytes": 1, "crc32": 0,
            }

        _edit_manifest(root, escape)
        with pytest.raises(StoreError, match="inside the store"):
            repair_store(root)
        assert victim.read_bytes() == b"not a shard"
        assert not (tmp_path / "a" / "b" / "victim.npy").exists()
        with pytest.raises(StoreError, match="inside the store"):
            _read_everything(root)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.update(num_vertices=-1),
            lambda m: m.update(num_vertices=True),
            lambda m: m.update(num_vertices=10**9),
            lambda m: m.update(partitions={}),
            lambda m: m.update(partitions=[]),
            lambda m: m.update(partitions=m["partitions"][::-1]),
            lambda m: m.update(files=[]),
        ],
        ids=[
            "negative-count", "bool-count", "count-disagrees", "partitions-dict",
            "partitions-empty", "partitions-out-of-order", "files-list",
        ],
    )
    def test_malformed_fields_are_store_errors(self, graph, tmp_path, edit):
        build_store(graph, tmp_path / "g", num_parts=2)
        _edit_manifest(tmp_path / "g", edit)
        with pytest.raises(StoreError):
            _read_everything(tmp_path / "g")


class TestPageIn:
    """One verified map per page-in; the header memo never skips a check."""

    @pytest.fixture
    def root(self, graph, tmp_path):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(graph.num_vertices, 3))
        build_store(graph, tmp_path / "g", num_parts=2, features=feats)
        return tmp_path / "g"

    @staticmethod
    def _shard(root, kind="indices", part=0):
        entry = Manifest.load(root).partitions[part].files[kind]
        return os.path.join(root, entry.path)

    def test_same_size_corruption_after_first_page_in(self, graph, root):
        with open_store(root, cache_budget=0) as stored:
            expected = stored.to_graph()  # every shard paged in once
            assert expected == graph
            with open(self._shard(root), "r+b") as handle:
                handle.seek(-1, os.SEEK_END)
                last = handle.read(1)
                handle.seek(-1, os.SEEK_END)
                handle.write(bytes([last[0] ^ 0xFF]))
            with pytest.raises(StoreError, match="corrupt shard"):
                stored.to_graph()

    def test_served_shards_are_read_only(self, root):
        with open_store(root) as stored:
            view = stored.partition(0)
            for array in (view.indptr, view.indices, stored._shard(0, "features")):
                assert array.flags.writeable is False
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_truncation_after_first_page_in_is_typed(self, root):
        with open_store(root, cache_budget=0, checksum=False) as stored:
            stored.to_graph()
            gc.collect()  # drop the first maps before shrinking the file
            path = self._shard(root)
            os.truncate(path, os.path.getsize(path) - 8)
            with pytest.raises(StoreError, match="truncated shard"):
                stored.to_graph()

    def test_changed_header_is_reparsed_not_memoised(self, root):
        path = self._shard(root)
        with open_store(root, cache_budget=0, checksum=False) as stored:
            before = stored.partition(0).indices
            assert before.dtype == np.int64
            with open(path, "r+b") as handle:
                head = handle.read(128)
                assert b"'<i8'" in head
                handle.seek(0)
                handle.write(head.replace(b"'<i8'", b"'<f8'"))
            after = stored.partition(0).indices
            assert after.dtype == np.float64
            np.testing.assert_array_equal(after.view(np.int64), before)


class TestFdHygiene:
    def test_repeated_open_close_leaks_no_fds(self, graph, tmp_path):
        build_store(graph, tmp_path / "g", num_parts=3)
        # Warm up interpreter-level fds (import caches etc.) first.
        for _ in range(2):
            stored = open_store(tmp_path / "g")
            stored.degrees()
            stored.close()
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(12):
            stored = open_store(tmp_path / "g")
            stored.neighbors(0)
            stored.to_graph()
            stored.close()
        gc.collect()
        after = len(os.listdir("/proc/self/fd"))
        assert after <= before, f"fd count grew {before} -> {after}"

    def test_close_empties_cache(self, graph, tmp_path):
        build_store(graph, tmp_path / "g", num_parts=2)
        stored = open_store(tmp_path / "g")
        stored.neighbors(1)
        assert stored.cache.resident_bytes > 0
        stored.close()
        assert stored.cache.resident_bytes == 0

    def test_context_manager_closes(self, graph, tmp_path):
        build_store(graph, tmp_path / "g")
        with open_store(tmp_path / "g") as stored:
            stored.neighbors(0)
        assert stored.cache.resident_bytes == 0


class TestShardCache:
    def test_budget_caps_resident_bytes(self, graph, tmp_path):
        manifest = build_store(graph, tmp_path / "g", num_parts=4)
        budget = manifest.shard_bytes // 3
        obs = MetricsRegistry()
        stored = open_store(tmp_path / "g", cache_budget=budget, obs=obs)
        for v in range(graph.num_vertices):
            stored.neighbors(v)
        stats = stored.cache.stats
        assert stats.evictions > 0
        largest = max(
            e.nbytes for p in manifest.partitions for e in p.files.values()
        )
        assert stored.cache.resident_bytes <= max(budget, largest)
        assert stats.hits + stats.misses == stats.pages_requested
        # The obs counters mirror the in-object ledger.
        assert sum(
            obs.counter("store.shard_misses").series().values()
        ) == stats.misses
        stored.close()

    def test_zero_budget_repages_every_pass(self, graph, tmp_path):
        build_store(graph, tmp_path / "g", num_parts=2)
        stored = open_store(tmp_path / "g", cache_budget=0)
        from repro.tlav.vectorized import pagerank_dense

        pagerank_dense(stored, iterations=2)
        first = stored.cache.stats.bytes_paged
        pagerank_dense(stored, iterations=2)
        assert stored.cache.stats.bytes_paged == 2 * first
        stored.close()

    def test_paging_traffic_grows_with_the_graph(self, tmp_path):
        """At a half-working-set budget every pass re-pages shards, and
        both the bytes paged and the evictions grow with graph size."""
        from repro.tlav.vectorized import pagerank_dense

        traffic = []
        for n, parts in ((300, 4), (900, 6), (2000, 8)):
            g = barabasi_albert(n, 4, seed=11)
            manifest = build_store(g, tmp_path / f"g{n}", num_parts=parts)
            budget = manifest.shard_bytes // 2
            with open_store(tmp_path / f"g{n}", cache_budget=budget) as stored:
                pagerank_dense(stored, iterations=3)
                stats = stored.cache_stats()
            assert stats["bytes_paged"] > manifest.shard_bytes
            traffic.append((stats["bytes_paged"], stats["evictions"]))
        paged, evictions = zip(*traffic)
        assert list(paged) == sorted(set(paged))
        assert list(evictions) == sorted(set(evictions)) and evictions[0] > 0

    def test_unbounded_cache_never_evicts(self, graph, tmp_path):
        build_store(graph, tmp_path / "g", num_parts=3)
        stored = open_store(tmp_path / "g")
        for v in range(graph.num_vertices):
            stored.neighbors(v)
        assert stored.cache.stats.evictions == 0
        assert stored.cache.stats.misses == 6  # 3 parts x (indptr, indices)
        stored.close()


class TestHandleProtocol:
    def test_as_handle_coercions(self, graph, tmp_path):
        handle = as_handle(graph)
        assert isinstance(handle, InMemoryGraph)
        assert as_handle(handle) is handle
        build_store(graph, tmp_path / "g")
        stored = as_handle(str(tmp_path / "g"))
        assert isinstance(stored, StoredGraph)
        stored.close()
        with pytest.raises(TypeError, match="graph handle"):
            as_handle(42)

    def test_surfaces_agree(self, graph, tmp_path):
        build_store(graph, tmp_path / "g", num_parts=3)
        mem = as_handle(graph)
        stored = open_store(tmp_path / "g")
        assert stored.num_vertices == mem.num_vertices
        assert stored.num_edges == mem.num_edges
        assert stored.num_edge_slots == mem.num_edge_slots
        np.testing.assert_array_equal(stored.degrees(), mem.degrees())
        for v in (0, 7, graph.num_vertices - 1):
            np.testing.assert_array_equal(
                stored.neighbors(v), mem.neighbors(v)
            )
            assert stored.degree(v) == mem.degree(v)
        assert stored.has_edge(0, int(mem.neighbors(0)[0]))
        stored.close()

    def test_out_of_range_ids_raise_on_both_handles(self, tmp_path):
        # numpy wraps -1 to the last row and the stored lookup wrapped it
        # to a partition-local row: both answered with another vertex.
        g = erdos_renyi(20, 0.3, seed=1)
        feats = np.arange(20 * 2, dtype=np.float64).reshape(20, 2)
        build_store(g, tmp_path / "g", num_parts=3, features=feats)
        part = metis_like_partition(g, 3, seed=1)
        with open_store(tmp_path / "g") as stored:
            handles = (
                stored,
                InMemoryGraph(g, features=feats),
                InMemoryGraph(g, features=feats, partition=part),
            )
            for handle in handles:
                for bad in (-1, 20):
                    with pytest.raises(IndexError):
                        handle.features([bad])
                    with pytest.raises(IndexError):
                        handle.features([3, bad])
                    with pytest.raises(IndexError):
                        handle.degree(bad)
                    with pytest.raises(IndexError):
                        handle.part_of(bad)
                np.testing.assert_array_equal(handle.features([19, 0]), feats[[19, 0]])
                assert handle.degree(np.int64(19)) == g.degree(19)
            assert stored.part_of(19) == int(stored.assignment[19])

    def test_label_and_edge_lookups_check_ids(self, tmp_path):
        # vertex_label(-1) answered with vertex 19's label, the stored
        # edge_label(-1, 2) with edge (0, 2)'s, and has_edge(-1, v) was
        # False in memory but raised on the store.
        rng = np.random.default_rng(0)
        builder = GraphBuilder()
        for u, v in erdos_renyi(20, 0.3, seed=1).edges():
            builder.add_edge(u, v, label=int(rng.integers(1, 5)))
        g = builder.build(num_vertices=20, vertex_labels=rng.integers(0, 4, size=20))
        build_store(g, tmp_path / "g", partition="hash", num_parts=3)
        with open_store(tmp_path / "g") as stored:
            u, w = 0, int(g.neighbors(0)[0])
            for handle in (stored, InMemoryGraph(g)):
                for bad in (-1, 20):
                    with pytest.raises(IndexError, match=r"\[0, 20\)"):
                        handle.vertex_label(bad)
                    for a, b in ((bad, w), (u, bad)):
                        with pytest.raises(IndexError, match=r"\[0, 20\)"):
                            handle.edge_label(a, b)
                        with pytest.raises(IndexError, match=r"\[0, 20\)"):
                            handle.has_edge(a, b)
                assert handle.vertex_label(np.int64(19)) == g.vertex_label(19)
                assert handle.edge_label(u, np.int64(w)) == g.edge_label(u, w)
                assert handle.has_edge(np.int64(u), w)
                assert not handle.has_edge(u, u)

    def test_neighbors_checks_ids_on_both_handles(self, graph, tmp_path):
        # InMemoryGraph.neighbors(-1) returned an empty row and
        # neighbors(n) numpy's bare "index 81 is out of bounds".
        n = graph.num_vertices
        build_store(graph, tmp_path / "g", partition="hash", num_parts=3)
        with open_store(tmp_path / "g") as stored:
            for handle in (stored, InMemoryGraph(graph)):
                for bad in (-1, n, np.int64(-2)):
                    with pytest.raises(IndexError, match=rf"\[0, {n}\)"):
                        handle.neighbors(bad)
                np.testing.assert_array_equal(
                    handle.neighbors(np.int64(n - 1)), graph.neighbors(n - 1)
                )

    def test_partition_views_cover_graph(self, graph, tmp_path):
        build_store(graph, tmp_path / "g", partition="hash", num_parts=3)
        stored = open_store(tmp_path / "g")
        seen = []
        for k in range(stored.num_parts):
            view = stored.partition(k)
            assert view.part_id == k
            seen.extend(int(v) for v in view.nodes)
            some = int(view.nodes[0])
            np.testing.assert_array_equal(
                view.neighbors(some), graph.neighbors(some)
            )
            with pytest.raises(KeyError):
                other = (some + 1) % graph.num_vertices
                if other not in set(int(v) for v in view.nodes):
                    view.neighbors(other)
                else:
                    raise KeyError("skip: both owned")
        assert sorted(seen) == list(range(graph.num_vertices))
        stored.close()

    def test_iter_csr_runs_reassembles(self, graph, tmp_path):
        build_store(graph, tmp_path / "g", partition="hash", num_parts=4)
        stored = open_store(tmp_path / "g")
        n = graph.num_vertices
        degs = np.zeros(n, dtype=np.int64)
        chunks = {}
        last_hi = 0
        for lo, hi, run_ptr, run_idx in stored.iter_csr_runs():
            assert lo >= last_hi  # ascending, non-overlapping
            last_hi = hi
            degs[lo:hi] = np.diff(run_ptr)
            chunks[lo] = np.asarray(run_idx)
        np.testing.assert_array_equal(degs, graph.degrees())
        indices = np.concatenate([chunks[lo] for lo in sorted(chunks)])
        np.testing.assert_array_equal(indices, graph.indices)
        stored.close()

    def test_version_bump_persists(self, graph, tmp_path):
        build_store(graph, tmp_path / "g")
        stored = open_store(tmp_path / "g")
        v0 = stored.version
        stored.bump_version()
        stored.close()
        assert Manifest.load(tmp_path / "g").version == v0 + 1


_FRONTIER_N = 90
_FRONTIER_PARTS = 4
_frontiers = st.lists(st.integers(0, _FRONTIER_N - 1), max_size=40)


def _per_vertex(handle, vertices):
    """The loop ``expand_frontier`` replaces, kept as the reference."""
    slices = [np.asarray(handle.neighbors(int(v))) for v in vertices]
    owners = np.repeat(
        np.arange(len(slices), dtype=np.int64), [s.size for s in slices]
    )
    neighbors = np.concatenate(slices + [np.empty(0, dtype=np.int64)])
    return owners, neighbors


def _assert_expands_like_loop(handle, reference, vertices):
    owners, neighbors = handle.expand_frontier(vertices)
    want_owners, want_neighbors = _per_vertex(reference, vertices)
    assert owners.dtype == neighbors.dtype == np.int64
    np.testing.assert_array_equal(neighbors, want_neighbors)
    np.testing.assert_array_equal(owners, want_owners)


class TestExpandFrontier:
    """One batched adjacency primitive on every handle."""

    @pytest.fixture(scope="class")
    def sparse(self):
        # Sparse enough to hold isolated (zero-degree) vertices.
        g = erdos_renyi(_FRONTIER_N, 0.03, seed=4)
        assert (g.degrees() == 0).any()
        return g

    @pytest.fixture(scope="class")
    def roots(self, sparse, tmp_path_factory):
        base = tmp_path_factory.mktemp("frontier")
        out = {}
        for partitioner in ("hash", "range", "metis"):
            manifest = build_store(
                sparse, base / partitioner, partition=partitioner,
                num_parts=_FRONTIER_PARTS, seed=3,
            )
            out[partitioner] = (base / partitioner, manifest.shard_bytes)
        return out

    @given(vertices=_frontiers)
    @example(vertices=[])
    @example(vertices=[7, 7, 2, 89, 7])
    @settings(max_examples=25, deadline=None)
    def test_in_memory_equals_per_vertex(self, sparse, vertices):
        part = metis_like_partition(sparse, 3, seed=1)
        for handle in (as_handle(sparse), InMemoryGraph(sparse, partition=part)):
            _assert_expands_like_loop(handle, sparse, vertices)

    @pytest.mark.parametrize("budget", ["unbounded", "zero", "half"])
    @pytest.mark.parametrize("partitioner", ["hash", "range", "metis"])
    @given(vertices=_frontiers)
    @example(vertices=[])
    @example(vertices=[7, 7, 2, 89, 7])
    @settings(max_examples=15, deadline=None)
    def test_stored_equals_per_vertex(
        self, sparse, roots, partitioner, budget, vertices
    ):
        root, shard_bytes = roots[partitioner]
        cache_budget = {
            "unbounded": None, "zero": 0, "half": shard_bytes // 2
        }[budget]
        with open_store(root, cache_budget=cache_budget) as stored:
            _assert_expands_like_loop(stored, sparse, vertices)
            ids = np.asarray(vertices, dtype=np.int64)
            touched = np.unique(stored.assignment[ids]).size
            # Two shards per touched partition, however many vertices.
            assert stored.cache_stats()["pages_requested"] == 2 * touched

    def test_partition_view_of_in_memory_graph(self, sparse):
        part = metis_like_partition(sparse, 3, seed=1)
        handle = InMemoryGraph(sparse, partition=part)
        for k in range(3):
            view = handle.partition(k)
            np.testing.assert_array_equal(
                np.diff(view.indptr), sparse.degrees()[view.nodes]
            )
            np.testing.assert_array_equal(
                view.indices, _per_vertex(sparse, view.nodes)[1]
            )

    def test_out_of_range_ids_raise(self, sparse, roots):
        n = sparse.num_vertices
        with open_store(roots["hash"][0]) as stored:
            for bad in (-1, n):
                # numpy would wrap -1 to another vertex's row: the
                # stored handle must refuse, not answer.
                with pytest.raises(IndexError):
                    stored.neighbors(bad)
                for handle in (stored, as_handle(sparse)):
                    with pytest.raises(IndexError):
                        handle.expand_frontier([0, bad])
            assert stored.cache_stats()["pages_requested"] == 0

    def test_every_page_in_is_verified(self, sparse, roots, monkeypatch):
        from repro.graph.store import stored as stored_module

        verified = []
        real = stored_module.map_verified

        def spy(root, entry, checksum=True):
            verified.append((entry.path, checksum))
            return real(root, entry, checksum=checksum)

        with open_store(roots["hash"][0], cache_budget=0) as stored:
            monkeypatch.setattr(stored_module, "map_verified", spy)
            stored.expand_frontier(np.arange(sparse.num_vertices))
            stored.expand_frontier(np.arange(sparse.num_vertices))
            assert stored.cache_stats()["misses"] == 4 * _FRONTIER_PARTS
        assert len(verified) == 4 * _FRONTIER_PARTS
        assert all(checksum for _path, checksum in verified)

    def test_closed_store_raises_store_error(self, sparse, roots):
        stored = open_store(roots["range"][0])
        stored.close()
        with pytest.raises(StoreError, match="closed"):
            stored.expand_frontier([0, 1])


class TestCatalog:
    def test_names_open_and_manifest(self, graph, tmp_path):
        build_store(graph, tmp_path / "a")
        build_store(erdos_renyi(30, 0.2, seed=2), tmp_path / "b")
        (tmp_path / "not-a-store").mkdir()
        catalog = StoreCatalog(tmp_path)
        assert catalog.names() == ["a", "b"]
        assert "a" in catalog and "not-a-store" not in catalog
        assert catalog.manifest("a").num_vertices == graph.num_vertices
        stored = catalog.open("b", cache_budget=128)
        assert stored.cache.budget == 128
        stored.close()
        with pytest.raises(StoreError, match="no store named"):
            catalog.path("missing")


class TestDeprecatedSpellings:
    """The pre-store ``graph=`` keyword is gone, not deprecated."""

    def test_graph_keyword_is_a_type_error(self, graph):
        from repro.tlav.algorithms import pagerank

        with pytest.raises(TypeError, match="graph"):
            pagerank(graph=graph)

    def test_missing_graph_is_an_error(self):
        from repro.tlav.algorithms import pagerank

        with pytest.raises(TypeError, match="missing"):
            pagerank()


class TestEnginesOverStoredGraphs:
    """Every engine family answers identically through a paged store."""

    @pytest.fixture
    def stored(self, graph, tmp_path):
        manifest = build_store(
            graph, tmp_path / "g", partition="hash", num_parts=3
        )
        stored = open_store(
            tmp_path / "g", cache_budget=manifest.shard_bytes // 2
        )
        yield stored
        stored.close()

    def test_pregel_engine(self, graph, stored):
        from repro.tlav.algorithms import pagerank, sssp

        np.testing.assert_array_equal(
            pagerank(stored, iterations=6), pagerank(graph, iterations=6)
        )
        np.testing.assert_array_equal(
            sssp(stored, source=0), sssp(graph, source=0)
        )

    def test_task_engine(self, graph, stored):
        from repro.tlag.engine import TaskEngine
        from repro.tlag.programs import TriangleProgram

        assert sorted(TaskEngine(stored, TriangleProgram()).run()) \
            == sorted(TaskEngine(graph, TriangleProgram()).run())

    def test_matching(self, graph, stored):
        from repro.matching.backtrack import count_matches
        from repro.matching.pattern import triangle_pattern
        from repro.matching.triangles import triangle_count

        assert count_matches(stored, triangle_pattern()) \
            == count_matches(graph, triangle_pattern())
        assert triangle_count(stored) == triangle_count(graph)

    def test_gnn_training(self, graph, stored):
        from repro.gnn.models import NodeClassifier
        from repro.gnn.train import train_full_graph

        rng = np.random.default_rng(1)
        feats = rng.normal(size=(graph.num_vertices, 5))
        labels = rng.integers(0, 3, graph.num_vertices)
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[::2] = True

        def run(g):
            return train_full_graph(
                NodeClassifier(5, 8, 3, seed=4), g, features=feats, labels=labels,
                train_mask=mask, val_mask=~mask, epochs=3,
            )

        assert run(stored).losses == run(graph).losses

    def test_paging_actually_happened(self, stored):
        from repro.tlav.vectorized import wcc_dense

        wcc_dense(stored)
        assert stored.cache.stats.evictions > 0
