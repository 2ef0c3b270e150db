"""Endpoint/graph registries and the served-engine contract."""

import numpy as np
import pytest

from repro.graph.delta import random_edge_updates
from repro.graph.generators import barabasi_albert
from repro.matching.backtrack import count_matches
from repro.matching.cliques import count_k_cliques
from repro.matching.pattern import triangle_pattern
from repro.serve.endpoints import (
    Endpoint,
    EndpointRegistry,
    GraphRegistry,
    builtin_endpoints,
    canonical_params,
    named_pattern,
)
from repro.tlav.algorithms import bfs, pagerank, wcc


@pytest.fixture
def graphs():
    registry = GraphRegistry()
    registry.register("default", barabasi_albert(60, 3, seed=5))
    return registry


class TestCanonicalParams:
    def test_order_independent(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params(
            {"b": 2, "a": 1}
        )

    def test_numpy_scalars_normalized(self):
        assert canonical_params({"x": np.int64(3)}) == canonical_params({"x": 3})
        assert canonical_params({"x": np.float64(0.5)}) == canonical_params(
            {"x": 0.5}
        )

    def test_lists_and_tuples_collapse(self):
        assert canonical_params({"nodes": [1, 2]}) == canonical_params(
            {"nodes": (1, 2)}
        )

    def test_distinct_params_distinct(self):
        assert canonical_params({"k": 3}) != canonical_params({"k": 4})

    def test_hashable(self):
        {canonical_params({"nested": {"a": [1]}}): True}


class TestGraphRegistry:
    def test_epoch_bumps_on_replace(self, graphs):
        assert graphs.epoch("default") == 0
        graphs.replace("default", barabasi_albert(60, 3, seed=6))
        assert graphs.epoch("default") == 1

    def test_bump_epoch_declares_mutation(self, graphs):
        assert graphs.bump_epoch("default") == 1
        assert graphs.bump_epoch("default") == 2

    def test_subscribers_notified(self, graphs):
        seen = []
        graphs.subscribe(lambda name, epoch, dirty: seen.append((name, epoch)))
        graphs.replace("default", barabasi_albert(60, 3, seed=7))
        graphs.bump_epoch("default")
        assert seen == [("default", 1), ("default", 2)]

    def test_duplicate_register_rejected(self, graphs):
        with pytest.raises(ValueError):
            graphs.register("default", barabasi_albert(10, 2, seed=0))

    def test_unknown_graph_rejected(self, graphs):
        with pytest.raises(KeyError):
            graphs.get("nope")

    def test_derived_state_rebuilt_after_bump(self, graphs):
        record = graphs.get("default")
        gt_before = record.tensors()
        planner_before = record.planner()
        assert record.tensors() is gt_before  # cached within an epoch
        graphs.bump_epoch("default")
        assert record.tensors() is not gt_before
        assert record.planner() is not planner_before

    def test_ensure_gnn_deterministic(self, graphs):
        record = graphs.get("default")
        record.ensure_gnn()
        feats = record.features.copy()
        other = GraphRegistry()
        other.register("default", barabasi_albert(60, 3, seed=5))
        twin = other.get("default")
        twin.ensure_gnn()
        np.testing.assert_array_equal(feats, twin.features)


class TestEndpointRegistry:
    def test_builtin_covers_every_family(self):
        registry = builtin_endpoints()
        assert registry.families() == ["gnn", "graph", "matching", "tlag", "tlav"]

    def test_duplicate_rejected(self):
        registry = EndpointRegistry()
        ep = Endpoint("x", "test", lambda rec, p, ex: (1, 1))
        registry.register(ep)
        with pytest.raises(ValueError):
            registry.register(Endpoint("x", "test", lambda rec, p, ex: (1, 1)))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(KeyError):
            builtin_endpoints().get("tlav.sssp")

    def test_cost_clamped_to_one(self, graphs):
        ep = Endpoint("zero", "test", lambda rec, p, ex: ("v", 0))
        _, cost = ep.run(graphs.get("default"), {})
        assert cost == 1

    def test_run_batch_requires_merge(self):
        ep = Endpoint("solo", "test", lambda rec, p, ex: (1, 1))
        assert not ep.merge_batch
        with pytest.raises(TypeError):
            ep.run_batch(None, [{}])

    def test_unknown_pattern_rejected(self):
        with pytest.raises(KeyError):
            named_pattern("pentagon")


class TestBuiltinEndpointsMatchEngines:
    """The serve contract: results are the direct engine answers."""

    def test_pagerank(self, graphs):
        record = graphs.get("default")
        result, cost = builtin_endpoints().get("tlav.pagerank").run(
            record, {"iterations": 5}
        )
        np.testing.assert_array_equal(
            result, pagerank(record.graph, iterations=5)
        )
        assert cost == 5 * record.graph.indices.size

    def test_bfs(self, graphs):
        record = graphs.get("default")
        result, _ = builtin_endpoints().get("tlav.bfs").run(
            record, {"source": 3}
        )
        np.testing.assert_array_equal(result, bfs(record.graph, 3))

    def test_wcc(self, graphs):
        record = graphs.get("default")
        result, _ = builtin_endpoints().get("tlav.wcc").run(record, {})
        np.testing.assert_array_equal(result, wcc(record.graph))

    @pytest.mark.parametrize("kind", ["memory", "mutated", "stored"])
    def test_tlav_serves_the_engine_bits_at_the_engine_cost(
        self, kind, tmp_path
    ):
        """Serving executes the dense kernels; the per-vertex engine is
        the oracle, so value bits and billed cost are the engine's."""
        from repro.graph.store import build_store

        g = barabasi_albert(70, 2, seed=9)
        graphs = GraphRegistry()
        if kind == "stored":
            path = str(tmp_path / "store")
            build_store(g, path, partition="hash", num_parts=3)
            graphs.register("g", path)
        else:
            graphs.register("g", g)
        if kind == "mutated":
            for inserts, deletes in random_edge_updates(g, 2, 0.05, seed=2):
                graphs.apply_updates("g", inserts=inserts, deletes=deletes)
        record = graphs.get("g")
        graph = record.graph
        n, slots = graph.num_vertices, graph.num_edge_slots
        rounds = int(np.log2(n)) + 1
        cases = [
            ("tlav.pagerank", {"iterations": 4, "damping": 0.8},
             pagerank(graph, damping=0.8, iterations=4), 4 * slots),
            ("tlav.bfs", {"source": n + 5}, bfs(graph, 5), slots + n),
            ("tlav.wcc", {}, wcc(graph), rounds * (slots + n)),
        ]
        for name, params, want, want_cost in cases:
            got, cost = builtin_endpoints().get(name).run(record, params)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert cost == want_cost

    def test_matching_count(self, graphs):
        record = graphs.get("default")
        result, cost = builtin_endpoints().get("matching.count").run(
            record, {"pattern": "triangle"}
        )
        assert result == count_matches(record.graph, triangle_pattern())
        assert cost >= 1

    def test_cliques(self, graphs):
        record = graphs.get("default")
        result, _ = builtin_endpoints().get("matching.cliques").run(
            record, {"k": 3}
        )
        assert result == count_k_cliques(record.graph, 3)

    def test_subgraph_query_matches_count(self, graphs):
        record = graphs.get("default")
        tlag, _ = builtin_endpoints().get("tlag.subgraph_query").run(
            record, {"pattern": "triangle"}
        )
        assert tlag == count_matches(record.graph, triangle_pattern())

    def test_gnn_predict_batch_equals_singles(self, graphs):
        record = graphs.get("default")
        ep = builtin_endpoints().get("gnn.predict")
        assert ep.merge_batch
        params = [{"nodes": [0, 1]}, {"nodes": [5]}, {"nodes": [2, 3, 4]}]
        batched, _ = ep.run_batch(record, params)
        singles = [ep.run(record, p)[0] for p in params]
        assert batched == singles


class TestApplyUpdates:
    def _registry(self, num_parts=4):
        from repro.graph.partition import hash_partition
        from repro.graph.store import InMemoryGraph

        g = barabasi_albert(40, 2, seed=21)
        part = hash_partition(g, num_parts)
        graphs = GraphRegistry()
        graphs.register("default", InMemoryGraph(g, partition=part))
        return graphs, g, part

    @staticmethod
    def _non_edge(g):
        return next(
            (u, v)
            for u in range(g.num_vertices)
            for v in range(u + 1, g.num_vertices)
            if not g.has_edge(u, v)
        )

    def test_bumps_epoch_per_batch(self):
        graphs, g, _ = self._registry()
        u, v = self._non_edge(g)
        graphs.apply_updates("default", inserts=np.array([[u, v]]))
        assert graphs.get("default").epoch == 1
        graphs.apply_updates("default", deletes=np.array([[u, v]]))
        assert graphs.get("default").epoch == 2

    def test_mutation_visible_through_handle(self):
        graphs, g, _ = self._registry()
        u, v = self._non_edge(g)
        graphs.apply_updates("default", inserts=np.array([[u, v]]))
        record = graphs.get("default")
        assert v in record.graph.neighbors(u)
        assert u in record.graph.neighbors(v)

    def test_partition_layout_survives_mutation(self):
        graphs, g, part = self._registry()
        u, v = self._non_edge(g)
        graphs.apply_updates("default", inserts=np.array([[u, v]]))
        handle = graphs.get("default").graph
        assert handle.num_parts == part.num_parts
        assert np.array_equal(handle.assignment, part.assignment)

    def test_listener_receives_dirty_partitions(self):
        graphs, g, part = self._registry()
        seen = []
        graphs.subscribe(
            lambda name, epoch, dirty: seen.append((name, epoch, dirty))
        )
        u, v = self._non_edge(g)
        delta = graphs.apply_updates("default", inserts=np.array([[u, v]]))
        assert seen == [("default", 1, delta.dirty_partitions(part.assignment))]
        assert seen[0][2] == frozenset(
            int(part.assignment[w]) for w in (u, v)
        )

    def test_unpartitioned_graph_dirties_partition_zero(self):
        graphs = GraphRegistry()
        g = barabasi_albert(20, 2, seed=22)
        graphs.register("default", g)
        u, v = self._non_edge(g)
        seen = []
        graphs.subscribe(
            lambda name, epoch, dirty: seen.append(dirty)
        )
        graphs.apply_updates("default", inserts=np.array([[u, v]]))
        assert seen == [frozenset({0})]

    def test_noop_batch_reports_empty_dirty_set_but_bumps(self):
        graphs, g, _ = self._registry()
        present = (0, int(g.neighbors(0)[0]))
        seen = []
        graphs.subscribe(lambda name, epoch, dirty: seen.append(dirty))
        delta = graphs.apply_updates(
            "default", inserts=np.array([present])
        )
        assert not delta.changed
        assert seen == [frozenset()]
        assert graphs.get("default").epoch == 1

    def test_stored_graph_mutation_becomes_overlay(self, tmp_path):
        from repro.graph.store import build_store

        g = barabasi_albert(30, 2, seed=23)
        path = str(tmp_path / "store")
        build_store(g, path, partition="hash", num_parts=3)
        graphs = GraphRegistry()
        graphs.register("stored", path)
        record = graphs.get("stored")
        before = record.epoch
        assignment = np.asarray(record.graph.assignment).copy()
        u, v = self._non_edge(g)
        delta = graphs.apply_updates("stored", inserts=np.array([[u, v]]))
        record = graphs.get("stored")
        assert record.epoch == before + 1
        assert v in record.graph.neighbors(u)
        # Stored assignment frozen into the in-memory overlay.
        assert np.array_equal(record.graph.assignment, assignment)
        assert record.dirty_partitions(delta) == frozenset(
            int(assignment[w]) for w in (u, v)
        )


class TestNeighborsEndpoint:
    def test_neighbors_and_footprint(self):
        from repro.graph.partition import hash_partition
        from repro.graph.store import InMemoryGraph
        from repro.serve.endpoints import builtin_endpoints

        g = barabasi_albert(30, 2, seed=24)
        part = hash_partition(g, 5)
        graphs = GraphRegistry()
        graphs.register("default", InMemoryGraph(g, partition=part))
        record = graphs.get("default")
        ep = builtin_endpoints().get("graph.neighbors")
        assert ep.family == "graph"
        value, cost = ep.run(record, {"node": 7}, None)
        assert value == [int(w) for w in g.neighbors(7)]
        assert cost >= 1
        assert ep.partitions_read(record, {"node": 7}) == frozenset(
            {int(part.assignment[7])}
        )

    def test_footprint_is_none_when_unpartitioned(self):
        from repro.serve.endpoints import builtin_endpoints

        graphs = GraphRegistry()
        graphs.register("default", barabasi_albert(20, 2, seed=25))
        record = graphs.get("default")
        ep = builtin_endpoints().get("graph.neighbors")
        # InMemoryGraph without a Partition: part_of exists and maps
        # everything to 0, so the footprint is exact, not None.
        assert ep.partitions_read(record, {"node": 3}) == frozenset({0})


class TestEpochMonotonicityProperty:
    def test_strictly_monotonic_across_storage_kinds(self, tmp_path):
        """Property: every mutating registry operation — bump_epoch,
        replace (to in-memory or stored), apply_updates — strictly
        increases the record's epoch, across randomized interleavings
        that swap the backing store between in-memory and on-disk."""
        from repro.graph.store import build_store

        rng = np.random.default_rng(7)
        base = barabasi_albert(24, 2, seed=26)
        stores = []
        for i in range(2):
            path = str(tmp_path / f"store{i}")
            build_store(
                barabasi_albert(24, 2, seed=30 + i), path,
                partition="hash", num_parts=2,
            )
            stores.append(path)
        graphs = GraphRegistry()
        graphs.register("default", base)
        history = [graphs.get("default").epoch]
        for step in range(40):
            op = int(rng.integers(4))
            if op == 0:
                graphs.bump_epoch("default")
            elif op == 1:
                graphs.replace(
                    "default", barabasi_albert(24, 2, seed=int(rng.integers(99)))
                )
            elif op == 2:
                graphs.replace("default", stores[int(rng.integers(2))])
            else:
                live = graphs.get("default").graph.to_graph()
                batches = random_edge_updates(
                    live, 1, edge_fraction=0.02, seed=int(rng.integers(99))
                )
                ins, dels = batches[0]
                graphs.apply_updates("default", inserts=ins, deletes=dels)
            epoch = graphs.get("default").epoch
            assert epoch > history[-1], (
                f"step {step} op {op}: epoch {epoch} did not increase "
                f"past {history[-1]}"
            )
            history.append(epoch)
