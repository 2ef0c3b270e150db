"""Versioned LRU result cache."""

import pytest

from repro.graph.generators import barabasi_albert
from repro.serve.cache import ResultCache
from repro.serve.endpoints import GraphRegistry, canonical_params


def _key(epoch=0, **params):
    return ResultCache.key("ep", "default", epoch, canonical_params(params))


class TestLookupAndPut:
    def test_miss_then_hit(self):
        cache = ResultCache()
        hit, _ = cache.lookup(_key(x=1))
        assert not hit
        cache.put(_key(x=1), "answer")
        hit, value = cache.lookup(_key(x=1))
        assert hit and value == "answer"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_epoch_is_part_of_identity(self):
        cache = ResultCache()
        cache.put(_key(epoch=0, x=1), "old")
        hit, _ = cache.lookup(_key(epoch=1, x=1))
        assert not hit

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put(_key(x=1), "a")
        cache.put(_key(x=2), "b")
        cache.lookup(_key(x=1))  # refresh x=1
        cache.put(_key(x=3), "c")  # evicts x=2, the stalest
        assert _key(x=1) in cache
        assert _key(x=2) not in cache
        assert _key(x=3) in cache
        assert cache.as_dict()["evictions"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestInvalidation:
    def test_invalidate_graph_drops_stale_epochs_only(self):
        cache = ResultCache()
        cache.put(_key(epoch=0, x=1), "old")
        cache.put(_key(epoch=1, x=1), "new")
        dropped = cache.invalidate_graph("default", current_epoch=1)
        assert dropped == 1
        assert _key(epoch=1, x=1) in cache
        assert _key(epoch=0, x=1) not in cache

    def test_attach_reclaims_on_registry_bump(self):
        graphs = GraphRegistry()
        graphs.register("default", barabasi_albert(20, 2, seed=1))
        cache = ResultCache().attach(graphs)
        cache.put(_key(epoch=0, x=1), "stale-to-be")
        graphs.bump_epoch("default")
        assert len(cache) == 0
        assert cache.as_dict()["invalidated"] == 1

    def test_other_graphs_untouched(self):
        cache = ResultCache()
        other = ResultCache.key("ep", "mesh", 0, canonical_params({}))
        cache.put(other, "keep")
        cache.put(_key(x=1), "drop")
        cache.invalidate_graph("default", current_epoch=5)
        assert other in cache
        assert len(cache) == 1


class TestStaleWhileRevalidate:
    def test_stale_lookup_needs_a_prior_epoch(self):
        cache = ResultCache(max_stale_epochs=2)
        found, _, _ = cache.lookup_stale("ep", "default", 1, canonical_params({"x": 1}))
        assert not found
        cache.put(_key(epoch=1, x=1), "current")
        # An entry at the *current* epoch is never served as stale.
        found, _, _ = cache.lookup_stale("ep", "default", 1, canonical_params({"x": 1}))
        assert not found
        assert cache.as_dict()["stale_misses"] == 2

    def test_newest_prior_epoch_wins(self):
        cache = ResultCache(max_stale_epochs=4)
        cache.put(_key(epoch=0, x=1), "older")
        cache.put(_key(epoch=2, x=1), "newer")
        found, value, staleness = cache.lookup_stale(
            "ep", "default", 3, canonical_params({"x": 1})
        )
        assert found and value == "newer"
        assert staleness == 1
        assert cache.as_dict()["stale_hits"] == 1

    def test_staleness_is_epoch_distance(self):
        cache = ResultCache(max_stale_epochs=8)
        cache.put(_key(epoch=2, x=1), "v")
        found, _, staleness = cache.lookup_stale(
            "ep", "default", 7, canonical_params({"x": 1})
        )
        assert found and staleness == 5

    def test_params_must_match_exactly(self):
        cache = ResultCache(max_stale_epochs=2)
        cache.put(_key(epoch=0, x=1), "v")
        found, _, _ = cache.lookup_stale(
            "ep", "default", 1, canonical_params({"x": 2})
        )
        assert not found

    def test_retention_floor_bounds_staleness(self):
        """invalidate_graph keeps only the max_stale_epochs newest prior
        epochs, so a stale answer can never exceed the bound."""
        cache = ResultCache(max_stale_epochs=2)
        for epoch in range(5):
            cache.put(_key(epoch=epoch, x=1), f"e{epoch}")
        cache.invalidate_graph("default", current_epoch=5)
        # Floor is 5 - 2 = 3: epochs 0-2 reclaimed, 3-4 retained.
        assert _key(epoch=2, x=1) not in cache
        assert _key(epoch=3, x=1) in cache
        assert _key(epoch=4, x=1) in cache
        found, value, staleness = cache.lookup_stale(
            "ep", "default", 5, canonical_params({"x": 1})
        )
        assert found and value == "e4"
        assert 1 <= staleness <= cache.max_stale_epochs

    def test_zero_stale_epochs_disables_the_ladder(self):
        cache = ResultCache(max_stale_epochs=0)
        cache.put(_key(epoch=0, x=1), "v")
        cache.invalidate_graph("default", current_epoch=1)
        found, _, _ = cache.lookup_stale(
            "ep", "default", 1, canonical_params({"x": 1})
        )
        assert not found

    def test_negative_stale_epochs_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_stale_epochs=-1)


class TestUnattachedStalenessBound:
    def test_lookup_stale_enforces_bound_without_registry(self):
        """Regression: an *unattached* cache (no registry eagerly
        reclaiming old epochs) must still refuse answers older than
        max_stale_epochs — the bound lives inside lookup_stale, not
        only in invalidate_graph's retention floor."""
        cache = ResultCache(max_stale_epochs=2)
        cache.put(_key(epoch=0, x=1), "ancient")
        # No invalidate_graph call: the entry is still resident.
        found, _, _ = cache.lookup_stale(
            "ep", "default", 5, canonical_params({"x": 1})
        )
        assert not found, "epoch 0 is 5 behind; bound is 2"
        # Within the bound it is served.
        found, value, staleness = cache.lookup_stale(
            "ep", "default", 2, canonical_params({"x": 1})
        )
        assert found and value == "ancient" and staleness == 2

    def test_bound_is_inclusive(self):
        cache = ResultCache(max_stale_epochs=3)
        cache.put(_key(epoch=4, x=1), "v")
        found, _, staleness = cache.lookup_stale(
            "ep", "default", 7, canonical_params({"x": 1})
        )
        assert found and staleness == 3
        found, _, _ = cache.lookup_stale(
            "ep", "default", 8, canonical_params({"x": 1})
        )
        assert not found


class TestInvalidateWithoutCurrentEpoch:
    def test_floor_resolves_from_newest_cached_epoch(self):
        cache = ResultCache(max_stale_epochs=2)
        for epoch in range(6):
            cache.put(_key(epoch=epoch, x=1), f"e{epoch}")
        reclaimed = cache.invalidate_graph("default")
        # Newest cached epoch is 5 -> floor 3: epochs 0-2 reclaimed,
        # 3-4 retained as the stale tail, 5 untouched (current).
        assert reclaimed == 3
        assert _key(epoch=5, x=1) in cache
        assert _key(epoch=4, x=1) in cache
        assert _key(epoch=3, x=1) in cache
        assert _key(epoch=2, x=1) not in cache

    def test_counters_account_reclaimed_vs_retained(self):
        cache = ResultCache(max_stale_epochs=1)
        for epoch in range(4):
            cache.put(_key(epoch=epoch, x=1), f"e{epoch}")
        cache.invalidate_graph("default")
        d = cache.as_dict()
        assert d["invalidated"] == 2  # epochs 0, 1
        assert d["retained"] == 1     # epoch 2
        assert len(cache) == 2        # epochs 2, 3

    def test_unknown_graph_is_a_noop(self):
        cache = ResultCache()
        assert cache.invalidate_graph("nope") == 0


class TestPartitionScopedInvalidation:
    def test_disjoint_footprint_promoted_to_new_epoch(self):
        cache = ResultCache()
        cache.put(_key(epoch=0, x=1), "clean", partitions={2})
        cache.put(_key(epoch=0, x=2), "dirty", partitions={0, 2})
        cache.put(_key(epoch=0, x=3), "whole-graph")  # None footprint
        cache.invalidate_graph("default", current_epoch=1,
                               dirty_partitions={0})
        hit, value = cache.lookup(_key(epoch=1, x=1))
        assert hit and value == "clean"
        hit, _ = cache.lookup(_key(epoch=1, x=2))
        assert not hit
        hit, _ = cache.lookup(_key(epoch=1, x=3))
        assert not hit
        assert cache.as_dict()["promoted"] == 1

    def test_empty_dirty_set_promotes_everything(self):
        """An empty dirty set is the registry's proof the batch was a
        structural no-op: even whole-graph entries stay fresh."""
        cache = ResultCache()
        cache.put(_key(epoch=0, x=1), "a", partitions={3})
        cache.put(_key(epoch=0, x=2), "b")
        cache.invalidate_graph("default", current_epoch=1,
                               dirty_partitions=frozenset())
        assert cache.lookup(_key(epoch=1, x=1))[0]
        assert cache.lookup(_key(epoch=1, x=2))[0]
        assert cache.as_dict()["promoted"] == 2

    def test_no_dirty_info_means_no_promotion(self):
        cache = ResultCache()
        cache.put(_key(epoch=0, x=1), "a", partitions={3})
        cache.invalidate_graph("default", current_epoch=1)
        assert not cache.lookup(_key(epoch=1, x=1))[0]
        assert cache.as_dict()["promoted"] == 0

    def test_promotion_does_not_clobber_existing_entry(self):
        cache = ResultCache()
        cache.put(_key(epoch=0, x=1), "old", partitions={5})
        cache.put(_key(epoch=1, x=1), "already-fresh", partitions={5})
        cache.invalidate_graph("default", current_epoch=1,
                               dirty_partitions={0})
        hit, value = cache.lookup(_key(epoch=1, x=1))
        assert hit and value == "already-fresh"
        assert cache.index_consistent()
        # The displaced candidate is accounted, not silently dropped.
        assert cache.as_dict()["invalidated"] == 1
        assert cache.as_dict()["promoted"] == 0

    def test_multi_bump_does_not_resurrect_dirtied_entry(self):
        """Regression: an entry whose footprint was dirtied at epoch N
        must never be promoted by a *later* batch whose dirty set is
        disjoint (or empty) — only the immediately preceding epoch is
        judged against each batch."""
        cache = ResultCache(max_stale_epochs=8)
        cache.put(_key(epoch=1, x=1), "pre-mutation", partitions={3})
        # Batch 1 dirties partition 3: correctly not promoted.
        cache.invalidate_graph("default", current_epoch=2,
                               dirty_partitions={3})
        assert not cache.lookup(_key(epoch=2, x=1))[0]
        # Batch 2 dirties a disjoint partition: must not re-key the
        # stale-tail survivor to the current epoch.
        cache.invalidate_graph("default", current_epoch=3,
                               dirty_partitions={7})
        assert not cache.lookup(_key(epoch=3, x=1))[0]
        # A structural no-op batch must not resurrect it either.
        cache.invalidate_graph("default", current_epoch=4,
                               dirty_partitions=frozenset())
        assert not cache.lookup(_key(epoch=4, x=1))[0]
        assert cache.as_dict()["promoted"] == 0
        # It remains reachable only via the degraded stale path.
        found, value, staleness = cache.lookup_stale(
            "ep", "default", 4, canonical_params({"x": 1})
        )
        assert found and value == "pre-mutation" and staleness == 3

    def test_clean_entry_rides_consecutive_disjoint_batches(self):
        """An entry untouched by every batch is re-promoted each bump
        and stays fresh across the whole chain."""
        cache = ResultCache(max_stale_epochs=4)
        cache.put(_key(epoch=0, x=1), "clean", partitions={2})
        for cur in (1, 2, 3):
            cache.invalidate_graph("default", current_epoch=cur,
                                   dirty_partitions={9})
        hit, value = cache.lookup(_key(epoch=3, x=1))
        assert hit and value == "clean"
        assert cache.as_dict()["promoted"] == 3

    def test_stale_tail_entry_never_promoted(self):
        """Only epoch cur-1 is judged against a batch; an older retained
        entry stays in the stale tail even with a disjoint footprint."""
        cache = ResultCache(max_stale_epochs=4)
        cache.put(_key(epoch=0, x=1), "tail", partitions={2})
        cache.put(_key(epoch=2, x=1), "prev", partitions={2})
        cache.invalidate_graph("default", current_epoch=3,
                               dirty_partitions={9})
        hit, value = cache.lookup(_key(epoch=3, x=1))
        assert hit and value == "prev"
        assert _key(epoch=0, x=1) in cache  # retained, not re-keyed
        assert cache.as_dict()["promoted"] == 1

    def test_attached_registry_reports_dirty_partitions(self):
        import numpy as np

        from repro.graph.partition import hash_partition
        from repro.graph.store import InMemoryGraph

        g = barabasi_albert(40, 2, seed=9)
        part = hash_partition(g, 8)
        graphs = GraphRegistry()
        graphs.register("default", InMemoryGraph(g, partition=part))
        cache = ResultCache(max_stale_epochs=2).attach(graphs)
        clean_part = int(part.assignment[20])
        dirty_pair = next(
            (u, v)
            for u in range(g.num_vertices)
            for v in range(u + 1, g.num_vertices)
            if not g.has_edge(u, v)
        )
        dirty_parts = {int(part.assignment[v]) for v in dirty_pair}
        if clean_part in dirty_parts:  # keep the fixture meaningful
            clean_part = next(
                p for p in range(8) if p not in dirty_parts
            )
        cache.put(_key(epoch=0, x=1), "clean", partitions={clean_part})
        cache.put(_key(epoch=0, x=2), "dirty", partitions=dirty_parts)
        graphs.apply_updates(
            "default", inserts=np.array([dirty_pair]), deletes=()
        )
        assert cache.lookup(_key(epoch=1, x=1))[0]
        assert not cache.lookup(_key(epoch=1, x=2))[0]


class TestIndexAccounting:
    def test_randomized_operations_keep_index_consistent(self):
        import numpy as np

        rng = np.random.default_rng(42)
        cache = ResultCache(capacity=16, max_stale_epochs=2)
        graphs = ["g0", "g1", "g2"]
        epochs = {g: 0 for g in graphs}
        for step in range(600):
            op = rng.integers(4)
            g = graphs[int(rng.integers(len(graphs)))]
            if op == 0:
                key = ResultCache.key(
                    "ep", g, epochs[g],
                    canonical_params({"x": int(rng.integers(6))}),
                )
                parts = (
                    None if rng.integers(2) == 0
                    else {int(p) for p in rng.integers(0, 4, 2)}
                )
                cache.put(key, step, partitions=parts)
            elif op == 1:
                key = ResultCache.key(
                    "ep", g, epochs[g],
                    canonical_params({"x": int(rng.integers(6))}),
                )
                cache.lookup(key)
            elif op == 2:
                cache.lookup_stale(
                    "ep", g, epochs[g],
                    canonical_params({"x": int(rng.integers(6))}),
                )
            else:
                epochs[g] += 1
                dirty = (
                    None if rng.integers(2) == 0
                    else {int(p) for p in rng.integers(0, 4, 1)}
                )
                cache.invalidate_graph(
                    g, current_epoch=epochs[g], dirty_partitions=dirty
                )
            assert cache.index_consistent(), f"index drifted at step {step}"
        assert len(cache) <= cache.capacity


class TestHitRateAccounting:
    def test_stale_hits_do_not_inflate_fresh_hit_rate(self):
        cache = ResultCache(max_stale_epochs=4)
        cache.put(_key(epoch=0, x=1), "v")
        cache.lookup(_key(epoch=1, x=1))  # fresh miss
        found, _, _ = cache.lookup_stale(
            "ep", "default", 1, canonical_params({"x": 1})
        )
        assert found
        assert cache.hit_rate == 0.0  # 0 fresh hits / 1 fresh miss
        assert cache.stale_hit_rate == 1.0
        d = cache.as_dict()
        assert d["hit_rate"] == 0.0
        assert d["stale_hits"] == 1 and d["stale_misses"] == 0
        assert d["stale_hit_rate"] == 1.0

    def test_as_dict_mirrors_counters(self):
        cache = ResultCache(max_stale_epochs=1)
        cache.put(_key(epoch=0, x=1), "v", partitions={1})
        cache.lookup(_key(epoch=0, x=1))
        cache.invalidate_graph("default", current_epoch=1,
                               dirty_partitions={1})
        d = cache.as_dict()
        assert d["hits"] == cache.hits == 1
        assert d["retained"] == 1 and d["promoted"] == 0
        assert d["max_stale_epochs"] == 1


class TestServedTrickle:
    """One seeded 1%-of-edges trickle against a hot adjacency set,
    served through the full stack: footprint-scoped promotion keeps a
    strictly higher hit rate than hearing no dirty set per bump."""

    @staticmethod
    def _serve(scoped):
        import numpy as np

        from repro.graph.delta import random_edge_updates
        from repro.graph.partition import hash_partition
        from repro.graph.store import InMemoryGraph
        from repro.serve import Server, builtin_endpoints
        from repro.serve.scheduler import Request

        graph = barabasi_albert(600, 3, seed=1)
        graphs = GraphRegistry()
        graphs.register("default", InMemoryGraph(
            graph, partition=hash_partition(graph, 128), name="default",
        ))
        server = Server(
            graphs, endpoints=builtin_endpoints(),
            num_workers=2, queue_bound=256, batch_window=0,
        )
        if not scoped:
            # Same cache, but its listener withholds the dirty set.
            server.cache = ResultCache(server.cache.capacity)
            graphs.subscribe(
                lambda name, epoch, _dirty:
                server.cache.invalidate_graph(name, epoch)
            )
        rng = np.random.default_rng(0)
        arrival = 0
        batches = random_edge_updates(graph, 6, edge_fraction=0.01, seed=7)
        for wave in [None] + batches:
            if wave is not None:
                graphs.apply_updates("default", inserts=wave[0], deletes=wave[1])
            for _ in range(32):
                arrival += 50
                server.submit(Request(
                    endpoint="graph.neighbors",
                    params={"node": int(rng.integers(32))},
                    tenant="hot", arrival=arrival,
                ))
            assert all(r.ok for r in server.run())
        assert server.cache.index_consistent()
        return server.cache.as_dict()

    def test_footprint_scoping_beats_whole_graph_invalidation(self):
        scoped, whole = self._serve(True), self._serve(False)
        assert scoped["promoted"] > 0 and whole["promoted"] == 0
        assert scoped["hit_rate"] > whole["hit_rate"]
