"""Sampled ``gnn.predict``: bounded cost, determinism, exact footprints.

On stored (paged) graphs — or graphs too large for a per-request full
forward — serve answers ``gnn.predict`` via ``infer_sampled``: the
per-request cost is bounded by ``batch x fanout``, not ``|E|``, and
the partition footprint is exact, so PR 9's partition-scoped cache
invalidation applies to inference answers too.
"""

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert
from repro.graph.store import build_store
from repro.serve.endpoints import (
    SAMPLED_FANOUTS,
    SAMPLED_PREDICT_MAX_FULL,
    GraphRegistry,
    builtin_endpoints,
)
from repro.serve.loadgen import run_scenario, scenario_requests
from repro.serve.scheduler import Request, Server

N = 120
NUM_PARTS = 4


def _sampled_cost_bound(num_seeds, fanouts, num_layers):
    """Worst-case message count of one sampled predict, times layers.

    Per seed the 2-layer block holds at most ``1 + f1 + f1*f2`` nodes;
    each sampled edge appears in both directions (undirected) and every
    block node carries a self-loop, so messages are at most
    ``2*(f1 + f1*f2) + (1 + f1 + f1*f2)`` per seed.
    """
    f1, f2 = fanouts
    sampled_edges = f1 + f1 * f2
    block_nodes = 1 + sampled_edges
    per_seed = 2 * sampled_edges + block_nodes
    return num_seeds * per_seed * num_layers


@pytest.fixture
def graphs(tmp_path):
    rng = np.random.default_rng(11)
    build_store(
        barabasi_albert(N, 3, seed=7),
        tmp_path / "stored",
        partition="hash",
        num_parts=NUM_PARTS,
        features=rng.normal(size=(N, 8)),
        name="stored",
    )
    registry = GraphRegistry()
    registry.register("stored", tmp_path / "stored")
    registry.register("small", barabasi_albert(60, 3, seed=5))
    return registry


@pytest.fixture
def predict():
    return builtin_endpoints().get("gnn.predict")


class TestModeSelection:
    def test_stored_graph_with_nodes_goes_sampled(self, graphs, predict):
        record = graphs.get("stored")
        assert predict.partitions_read(record, {"nodes": [1, 2]}) is not None

    def test_small_in_memory_graph_stays_full(self, graphs, predict):
        record = graphs.get("small")
        assert record.graph.num_vertices <= SAMPLED_PREDICT_MAX_FULL
        assert predict.partitions_read(record, {"nodes": [1, 2]}) is None

    def test_all_nodes_request_stays_full(self, graphs, predict):
        # Predicting every node has no cheaper path than one forward.
        record = graphs.get("stored")
        assert predict.partitions_read(record, {}) is None

    def test_mode_param_overrides_auto(self, graphs, predict):
        small = graphs.get("small")
        parts = predict.partitions_read(
            small, {"nodes": [0, 1], "mode": "sampled"}
        )
        # Sampled mode on an in-memory graph: no partition assignment,
        # so the footprint stays conservative (None = whole graph).
        assert parts is None
        _, cost = predict.run(small, {"nodes": [0, 1], "mode": "sampled"})
        bound = _sampled_cost_bound(2, SAMPLED_FANOUTS, small.model.num_layers)
        assert cost <= bound


class TestBoundedCost:
    def test_cost_bounded_by_batch_times_fanout(self, graphs, predict):
        record = graphs.get("stored")
        nodes = [3, 17, 42, 99]
        result, cost = predict.run(record, {"nodes": nodes})
        assert len(result) == len(nodes)
        assert all(isinstance(p, int) for p in result)
        bound = _sampled_cost_bound(
            len(nodes), SAMPLED_FANOUTS, record.model.num_layers
        )
        assert 1 <= cost <= bound

    def test_sampled_much_cheaper_than_full(self, graphs, predict):
        record = graphs.get("stored")
        nodes = [3, 17, 42, 99]
        _, sampled_cost = predict.run(record, {"nodes": nodes})
        _, full_cost = predict.run(record, {"nodes": nodes, "mode": "full"})
        assert sampled_cost < full_cost

    def test_cost_scales_with_fanout_param(self, graphs, predict):
        record = graphs.get("stored")
        nodes = [3, 17, 42, 99]
        _, small_cost = predict.run(
            record, {"nodes": nodes, "fanouts": [1, 1]}
        )
        bound = _sampled_cost_bound(
            len(nodes), (1, 1), record.model.num_layers
        )
        assert small_cost <= bound


class TestDuplicateNodes:
    @pytest.mark.parametrize("nodes", [[3, 3], [3, 3 + N], [3, 17, 3]])
    def test_repeated_node_answers_like_the_distinct_request(
        self, graphs, predict, nodes
    ):
        # Full fanout draws nothing, so the request seed cannot matter:
        # a repeated id must read the same block as the distinct ids.
        record = graphs.get("stored")
        full = {"fanouts": [-1, -1]}
        distinct = list(dict.fromkeys(v % N for v in nodes))
        answers, cost = predict.run(record, {"nodes": distinct, **full})
        by_node = dict(zip(distinct, answers))
        repeated, repeated_cost = predict.run(record, {"nodes": nodes, **full})
        assert repeated == [by_node[v % N] for v in nodes]
        # No phantom row: the repeat is not billed a second gather.
        assert repeated_cost == cost


class TestDeterminism:
    def test_repeat_requests_identical(self, graphs, predict):
        record = graphs.get("stored")
        params = {"nodes": [5, 9, 33]}
        first = predict.run(record, params)
        second = predict.run(record, params)
        assert first == second

    def test_footprint_stable_across_calls(self, graphs, predict):
        record = graphs.get("stored")
        params = {"nodes": [5, 9, 33]}
        assert predict.partitions_read(
            record, params
        ) == predict.partitions_read(record, params)

    def test_distinct_node_sets_may_differ(self, graphs, predict):
        record = graphs.get("stored")
        a, _ = predict.run(record, {"nodes": list(range(30))})
        b, _ = predict.run(record, {"nodes": list(range(30, 60))})
        assert len(a) == len(b) == 30  # both answered, independently


class TestFootprint:
    def test_footprint_valid_partition_subset(self, graphs, predict):
        record = graphs.get("stored")
        parts = predict.partitions_read(record, {"nodes": [3, 17, 42]})
        assert parts is not None and parts
        assert parts <= set(range(NUM_PARTS))

    def test_footprint_covers_seed_owners(self, graphs, predict):
        record = graphs.get("stored")
        nodes = [3, 17, 42, 99]
        parts = predict.partitions_read(record, {"nodes": nodes})
        assignment = np.asarray(record.graph.assignment)
        owners = {int(p) for p in assignment[nodes]}
        assert owners <= parts

    def test_batch_mixes_full_and_sampled(self, graphs, predict):
        record = graphs.get("stored")
        params = [
            {"nodes": [1, 2]},            # sampled (stored + nodes)
            {},                            # full (every node)
            {"nodes": [7], "mode": "full"},
        ]
        batched, cost = predict.run_batch(record, params)
        singles = [predict.run(record, p)[0] for p in params]
        assert batched == singles
        assert cost >= 1


class TestServed:
    def test_served_equals_direct(self, graphs, predict):
        record = graphs.get("stored")
        params = {"nodes": [3, 17, 42, 99]}
        direct, direct_cost = predict.run(record, params)

        server = Server(graphs, endpoints=builtin_endpoints(), num_workers=1)
        server.submit(
            Request(endpoint="gnn.predict", graph="stored", params=params)
        )
        (response,) = server.run()
        assert response.ok
        assert response.value == direct
        assert response.cost == direct_cost
        bound = _sampled_cost_bound(
            4, SAMPLED_FANOUTS, record.model.num_layers
        )
        assert response.cost <= bound

    def test_mixed_scenario_has_stored_predicts(self):
        spec = scenario_requests("mixed", seed=0)
        stored = [
            r
            for wave in spec["waves"]
            for r in wave["requests"]
            if r.endpoint == "gnn.predict" and r.graph == "stored"
        ]
        assert stored
        assert all(r.params.get("nodes") for r in stored)

    def test_mixed_scenario_answers_stored_predicts(self):
        report = run_scenario("mixed", seed=0)
        assert report["overall"]["ledger_ok"]
        gnn = report["endpoints"]["gnn.predict"]
        assert gnn["ok"] > 0
