"""Micro-batch formation and execution."""

import pytest

from repro.graph.generators import barabasi_albert
from repro.serve.batcher import MicroBatcher
from repro.serve.endpoints import (
    Endpoint,
    GraphRegistry,
    builtin_endpoints,
    canonical_params,
)
from repro.serve.scheduler import Request


@pytest.fixture
def record():
    graphs = GraphRegistry()
    return graphs.register("default", barabasi_albert(40, 3, seed=2))


def _requests(endpoint, params_list, graph="default"):
    reqs = [
        Request(endpoint=endpoint, params=p, graph=graph, arrival=i)
        for i, p in enumerate(params_list)
    ]
    for i, r in enumerate(reqs):  # what Server.submit sets
        r.id = i
        r.canon = canonical_params(r.params)
    return reqs


class TestBatchFormation:
    def test_duplicates_coalesce(self):
        batcher = MicroBatcher(window=10, max_batch=8)
        ep = Endpoint("test.dup", "test", lambda rec, p, ex: (p["x"], 10))
        reqs = _requests("test.dup", [{"x": 1}, {"x": 1}, {"x": 2}, {"x": 1}])
        batch = batcher.collect(reqs[0], reqs, ep, 0)
        # Same canonical params ride along; {"x": 2} stays queued.
        assert [r.id for r in batch] == [0, 1, 3]

    def test_merge_endpoint_ignores_params(self, record):
        batcher = MicroBatcher(window=10, max_batch=8)
        ep = builtin_endpoints().get("gnn.predict")
        reqs = _requests(
            "gnn.predict", [{"nodes": [0]}, {"nodes": [1]}, {"nodes": [2]}]
        )
        batch = batcher.collect(reqs[0], reqs, ep, 0)
        assert [r.id for r in batch] == [0, 1, 2]

    def test_max_batch_caps_membership(self):
        batcher = MicroBatcher(window=10, max_batch=2)
        ep = Endpoint("test.dup", "test", lambda rec, p, ex: (p["x"], 10))
        reqs = _requests("test.dup", [{"x": 1}] * 5)
        batch = batcher.collect(reqs[0], reqs, ep, 0)
        assert [r.id for r in batch] == [0, 1]

    def test_epoch_in_key_blocks_cross_version(self):
        batcher = MicroBatcher()
        ep = Endpoint("test.dup", "test", lambda rec, p, ex: (p["x"], 10))
        canon = canonical_params({"x": 1})
        assert batcher.batch_key(ep, "default", 0, canon) != batcher.batch_key(
            ep, "default", 1, canon
        )

    def test_dispatch_time_window(self):
        assert MicroBatcher(window=0).dispatch_time(clock=100, head_arrival=90) == 100
        assert MicroBatcher(window=50).dispatch_time(clock=100, head_arrival=90) == 140
        # A window already elapsed never moves the clock backwards.
        assert MicroBatcher(window=5).dispatch_time(clock=100, head_arrival=10) == 100

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(window=-1)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)


class TestBatchExecution:
    def test_duplicate_batch_runs_engine_once(self, record):
        calls = []

        def run(rec, params, ex):
            calls.append(params)
            return params["x"] * 2, 10

        ep = Endpoint("test.dup", "test", run)
        reqs = _requests("test.dup", [{"x": 3}] * 4)
        values, cost = MicroBatcher().execute(ep, record, reqs)
        assert values == [6, 6, 6, 6]
        assert len(calls) == 1
        assert cost == 10

    def test_merge_batch_equals_singles(self, record):
        ep = builtin_endpoints().get("gnn.predict")
        reqs = _requests(
            "gnn.predict", [{"nodes": [0, 1]}, {"nodes": [7]}, {"nodes": [3, 9]}]
        )
        batched, _ = MicroBatcher().execute(ep, record, reqs)
        singles = [ep.run(record, r.params)[0] for r in reqs]
        assert batched == singles
