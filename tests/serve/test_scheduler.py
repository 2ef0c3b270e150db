"""Scheduler edges: deadlines, shedding, fairness, caching, batching."""

import pytest

from repro.graph.generators import barabasi_albert
from repro.resilience import RetryPolicy
from repro.serve.endpoints import Endpoint, EndpointRegistry, GraphRegistry
from repro.serve.scheduler import Request, Server


def _test_endpoints():
    """Fixed-cost endpoints so clock arithmetic is exact in tests."""
    registry = EndpointRegistry()
    registry.register(Endpoint(
        "test.work", "test",
        lambda rec, p, ex: (("w", p.get("x", 0)), int(p.get("cost", 100))),
    ))

    def boom(rec, p, ex):
        raise ValueError("engine down")

    registry.register(Endpoint("test.boom", "test", boom))
    return registry


@pytest.fixture
def graphs():
    registry = GraphRegistry()
    registry.register("default", barabasi_albert(20, 2, seed=3))
    return registry


def _server(graphs, **kwargs):
    kwargs.setdefault("endpoints", _test_endpoints())
    kwargs.setdefault("num_workers", 1)
    return Server(graphs, **kwargs)


class TestBasics:
    def test_single_request_lifecycle(self, graphs):
        server = _server(graphs)
        server.submit(Request(endpoint="test.work", params={"x": 7, "cost": 50}))
        (response,) = server.run()
        assert response.ok
        assert response.value == ("w", 7)
        assert response.cost == 50
        assert response.latency == 50
        assert server.stats.in_flight == 0

    def test_unknown_endpoint_rejected(self, graphs):
        with pytest.raises(KeyError):
            _server(graphs).submit(Request(endpoint="test.missing"))

    def test_unknown_graph_rejected(self, graphs):
        with pytest.raises(KeyError):
            _server(graphs).submit(Request(endpoint="test.work", graph="mesh"))

    def test_responses_in_id_order(self, graphs):
        server = _server(graphs, num_workers=2)
        for i in range(5):
            server.submit(Request(
                endpoint="test.work", params={"x": i, "cost": 10 * (5 - i)},
            ))
        responses = server.run()
        assert [r.request.id for r in responses] == list(range(5))


class TestDeadlines:
    def test_expiry_mid_queue(self, graphs):
        """A queued request whose deadline passes while a long request
        holds the only worker is dropped as expired, never executed."""
        server = _server(graphs)
        server.submit(Request(
            endpoint="test.work", params={"cost": 10_000}, arrival=0,
        ))
        server.submit(Request(
            endpoint="test.work", params={"x": 1}, arrival=0, deadline=100,
        ))
        slow, expired = server.run()
        assert slow.ok
        assert expired.status == "expired"
        assert expired.deadline_missed
        assert expired.value is None
        assert server.stats.expired == 1
        assert server.stats.deadline_misses == 1

    def test_late_completion_counts_miss_but_answers(self, graphs):
        server = _server(graphs)
        server.submit(Request(
            endpoint="test.work", params={"cost": 10_000}, arrival=0,
        ))
        server.submit(Request(
            endpoint="test.work", params={"x": 1}, arrival=0, deadline=10_050,
        ))
        _, late = server.run()
        assert late.ok  # still answered ...
        assert late.deadline_missed  # ... but counted as a miss
        assert late.completed == 10_100
        assert server.stats.deadline_misses == 1

    def test_deadline_met_is_clean(self, graphs):
        server = _server(graphs)
        server.submit(Request(
            endpoint="test.work", params={"cost": 50}, deadline=100,
        ))
        (response,) = server.run()
        assert response.ok and not response.deadline_missed
        assert server.stats.deadline_misses == 0


class TestBackpressure:
    def test_burst_beyond_bound_sheds(self, graphs):
        server = _server(graphs, queue_bound=2)
        for i in range(5):
            server.submit(Request(
                endpoint="test.work", params={"x": i}, arrival=0,
            ))
        responses = server.run()
        assert [r.status for r in responses] == ["ok", "ok", "shed", "shed", "shed"]
        assert server.stats.shed == 3
        assert server.stats.peak_queue_depth <= 2

    def test_drained_queue_readmits(self, graphs):
        """Shedding is instantaneous backpressure, not a permanent ban:
        arrivals after the queue drains are admitted again."""
        server = _server(graphs, queue_bound=1)
        server.submit(Request(endpoint="test.work", params={"cost": 10}, arrival=0))
        server.submit(Request(endpoint="test.work", params={"x": 1}, arrival=500))
        responses = server.run()
        assert [r.status for r in responses] == ["ok", "ok"]

    def test_ledger_holds_under_mixed_outcomes(self, graphs):
        server = _server(graphs, queue_bound=3)
        for i in range(8):
            server.submit(Request(
                endpoint="test.work", params={"x": i, "cost": 1_000},
                arrival=0, deadline=1_500,
            ))
        server.run()
        stats = server.stats
        assert stats.in_flight == 0
        assert stats.admitted == stats.completed + stats.shed + stats.expired
        assert stats.admitted == 8


    def test_ledger_matches_the_status_label_exactly(self, graphs):
        """An endpoint name that spells another status inside it is
        still one response under one status."""
        endpoints = _test_endpoints()
        endpoints.register(Endpoint(
            "probe.status=shed", "test", lambda rec, p, ex: ("probe", 5),
        ))
        server = _server(graphs, endpoints=endpoints)
        server.submit(Request(endpoint="probe.status=shed"))
        (response,) = server.run()
        assert response.ok
        stats = server.stats
        assert (stats.completed, stats.shed, stats.in_flight) == (1, 0, 0)
        assert stats.admitted == (
            stats.completed + stats.shed + stats.expired + stats.degraded
        )


class TestFairnessAndPriority:
    def test_least_served_tenant_interleaves(self, graphs):
        """Max-min fairness: a light tenant's requests overtake a heavy
        tenant's backlog instead of waiting behind all of it."""
        server = _server(graphs, enable_cache=False, max_batch=1)
        for i in range(3):
            server.submit(Request(
                endpoint="test.work", params={"x": i, "cost": 1_000},
                tenant="hog",
            ))
        for i in range(3):
            server.submit(Request(
                endpoint="test.work", params={"x": i, "cost": 10},
                tenant="mouse",
            ))
        responses = server.run()
        mouse_last = max(
            r.completed for r in responses if r.request.tenant == "mouse"
        )
        hog_second = sorted(
            r.completed for r in responses if r.request.tenant == "hog"
        )[1]
        assert mouse_last < hog_second
        work = server.tenant_work
        assert work["hog"] == 3_000 and work["mouse"] == 30

    def test_priority_lane_overtakes_fifo(self, graphs):
        server = _server(graphs)
        server.submit(Request(endpoint="test.work", params={"cost": 1_000}))
        server.submit(Request(
            endpoint="test.work", params={"x": 1, "cost": 10},
            arrival=10, priority=0,
        ))
        server.submit(Request(
            endpoint="test.work", params={"x": 2, "cost": 10},
            arrival=20, priority=1,
        ))
        _, low, high = server.run()
        assert high.completed < low.completed


class TestCache:
    def test_hit_is_cheap_and_equal(self, graphs):
        server = _server(graphs)
        server.submit(Request(endpoint="test.work", params={"x": 5}, arrival=0))
        (cold,) = server.run()
        server.submit(Request(
            endpoint="test.work", params={"x": 5}, arrival=server.clock,
        ))
        (hot,) = server.run()
        assert not cold.cache_hit and hot.cache_hit
        assert hot.value == cold.value
        assert hot.cost == 1
        assert server.cache.hits == 1

    def test_epoch_bump_invalidates(self, graphs):
        server = _server(graphs)
        request = dict(endpoint="test.work", params={"x": 5})
        server.submit(Request(**request, arrival=0))
        server.run()
        server.submit(Request(**request, arrival=server.clock))
        (hot,) = server.run()
        assert hot.cache_hit

        graphs.bump_epoch("default")
        assert len(server.cache) == 0  # eagerly reclaimed
        server.submit(Request(**request, arrival=server.clock))
        (fresh,) = server.run()
        assert not fresh.cache_hit  # epoch is in the key: forced re-miss

    def test_disabled_cache_never_hits(self, graphs):
        server = _server(graphs, enable_cache=False)
        for arrival in (0, 1_000):
            server.submit(Request(
                endpoint="test.work", params={"x": 5}, arrival=arrival,
            ))
        responses = server.run()
        assert not any(r.cache_hit for r in responses)
        assert server.cache is None


class TestBatching:
    def test_window_coalesces_duplicates(self, graphs):
        server = _server(
            graphs, batch_window=200, max_batch=4, enable_cache=False,
        )
        for arrival in (0, 50, 100):
            server.submit(Request(
                endpoint="test.work", params={"x": 9}, arrival=arrival,
            ))
        responses = server.run()
        assert [r.batch_size for r in responses] == [3, 3, 3]
        assert all(r.value == ("w", 9) for r in responses)
        # One engine call charged once; members share the dispatch clock.
        assert len({r.completed for r in responses}) == 1

    def test_any_batch_cut_matches_unbatched(self, graphs):
        """Batcher determinism: values and statuses are identical for
        every batch cut the window/size cap can produce."""
        stream = [
            Request(endpoint="test.work", params={"x": i % 2}, arrival=i * 40,
                    tenant=("a", "b")[i % 2])
            for i in range(6)
        ]

        def run_with(max_batch, window):
            graphs_local = GraphRegistry()
            graphs_local.register("default", barabasi_albert(20, 2, seed=3))
            server = _server(
                graphs_local, batch_window=window, max_batch=max_batch,
                enable_cache=False,
            )
            for req in stream:
                server.submit(Request(
                    endpoint=req.endpoint, params=dict(req.params),
                    arrival=req.arrival, tenant=req.tenant,
                ))
            return [(r.status, r.value) for r in server.run()]

        baseline = run_with(max_batch=1, window=0)
        for max_batch in (2, 3, 8):
            assert run_with(max_batch, window=200) == baseline


class TestErrorsAndFeedback:
    def test_exhausted_retries_yield_error_response(self, graphs):
        server = _server(graphs, retry=RetryPolicy(max_attempts=2))
        server.submit(Request(endpoint="test.boom"))
        (response,) = server.run()
        assert response.status == "error"
        assert "ValueError" in response.error
        assert server.stats.completed == 1  # errors are terminal, not lost
        assert server.stats.in_flight == 0

    def test_second_terminal_for_one_request_raises(self, graphs):
        server = _server(graphs)
        server.submit(Request(endpoint="test.work"))
        (response,) = server.run()
        with pytest.raises(RuntimeError, match="already recorded a terminal"):
            server.stats.record_response(response)

    def test_terminal_tracking_is_bounded_by_in_flight(self, graphs):
        """Only open ids are tracked: a drained server remembers none."""
        server = _server(graphs, enable_cache=False)
        for wave in range(50):
            for i in range(100):
                server.submit(Request(
                    endpoint="test.work", params={"x": i, "cost": 1},
                    arrival=wave * 1000,
                ))
            server.run()
        assert server.stats.admitted == 5000 and server.stats.in_flight == 0
        assert len(server.stats._open_ids) == 0

    def test_closed_loop_feedback_submits_followup(self, graphs):
        server = _server(graphs)

        def feedback(response):
            if response.request.params.get("x") == 0:
                return Request(
                    endpoint="test.work", params={"x": 1, "cost": 10},
                    arrival=0,  # too early: must be clamped to completion
                )
            return None

        server.submit(Request(endpoint="test.work", params={"x": 0, "cost": 50}))
        first, follow = server.run(feedback=feedback)
        assert follow.request.arrival >= first.completed
        assert follow.ok
        assert server.stats.admitted == 2
