"""Circuit breaker state machine and its ride through the scheduler."""

import pytest

from repro.graph.generators import barabasi_albert
from repro.obs import MetricsRegistry
from repro.serve.breaker import (
    BREAKER_STATES,
    BreakerBoard,
    BreakerConfig,
    CircuitBreaker,
)
from repro.serve.endpoints import Endpoint, EndpointRegistry, GraphRegistry
from repro.serve.scheduler import Request, Server


def _breaker(**overrides):
    config = dict(
        window=4, failure_threshold=0.5, min_samples=2,
        open_ops=500, half_open_probes=1,
    )
    config.update(overrides)
    return CircuitBreaker("test.ep", BreakerConfig(**config))


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(window=0),
        dict(failure_threshold=0.0),
        dict(failure_threshold=1.5),
        dict(min_samples=0),
        dict(open_ops=0),
        dict(half_open_probes=0),
    ])
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            BreakerConfig(**bad)


class TestStateMachine:
    def test_closed_allows_traffic(self):
        breaker = _breaker()
        assert breaker.state == "closed"
        assert breaker.allow(0) == "execute"

    def test_opens_at_failure_threshold(self):
        breaker = _breaker()
        breaker.record_failure(100)
        assert breaker.state == "closed"  # below min_samples
        breaker.record_failure(200)
        assert breaker.state == "open"
        assert breaker.opened_at == 200

    def test_successes_keep_it_closed(self):
        breaker = _breaker()
        for clock in range(0, 1000, 100):
            breaker.record_success(clock)
            breaker.record_failure(clock + 50)
        # 50% failures with threshold 0.5 over a window of 4: opens
        # only once the window majority tips; interleaved S/F alternates
        # around the threshold, so the breaker must have opened at the
        # first window where failures/len >= 0.5.
        assert breaker.state == "open"

    def test_minority_failures_never_open(self):
        breaker = _breaker(window=8, failure_threshold=0.75)
        for clock in range(0, 800, 100):
            (breaker.record_failure if clock % 300 == 0
             else breaker.record_success)(clock)
        assert breaker.state == "closed"

    def test_open_rejects_until_cooldown(self):
        breaker = _breaker()
        breaker.record_failure(0)
        breaker.record_failure(10)
        assert breaker.state == "open"
        assert breaker.allow(10 + 499) == "reject"
        assert int(breaker.obs.counter("serve.breaker.rejected").total) == 1

    def test_cooldown_elapse_probes_half_open(self):
        breaker = _breaker()
        breaker.record_failure(0)
        breaker.record_failure(10)
        assert breaker.allow(10 + 500) == "probe"
        assert breaker.state == "half_open"
        # A serial event loop keeps one probe in flight at a time.
        assert breaker.allow(10 + 501) == "probe"

    def test_probe_success_closes_and_resets_window(self):
        breaker = _breaker()
        breaker.record_failure(0)
        breaker.record_failure(10)
        breaker.allow(510)
        breaker.record_success(520)
        assert breaker.state == "closed"
        # The window was cleared: one more failure is below min_samples.
        breaker.record_failure(530)
        assert breaker.state == "closed"

    def test_probe_failure_reopens(self):
        breaker = _breaker()
        breaker.record_failure(0)
        breaker.record_failure(10)
        breaker.allow(510)
        breaker.record_failure(520)
        assert breaker.state == "open"
        assert breaker.opened_at == 520
        assert breaker.allow(520 + 499) == "reject"

    def test_multi_probe_closing(self):
        breaker = _breaker(half_open_probes=2)
        breaker.record_failure(0)
        breaker.record_failure(10)
        breaker.allow(510)
        breaker.record_success(520)
        assert breaker.state == "half_open"
        breaker.record_success(530)
        assert breaker.state == "closed"

    def test_transition_metrics(self):
        obs = MetricsRegistry()
        breaker = CircuitBreaker(
            "test.ep",
            BreakerConfig(window=4, min_samples=2, open_ops=500),
            obs=obs,
        )
        breaker.record_failure(0)
        breaker.record_failure(10)
        breaker.allow(510)
        breaker.record_success(520)
        series = obs.counter("serve.breaker.transitions").series()
        by_state = {
            state: sum(v for k, v in series.items() if f"to={state}" in k)
            for state in ("open", "half_open", "closed")
        }
        assert by_state == {"open": 1, "half_open": 1, "closed": 1}
        gauge = obs.gauge("serve.breaker.state").series()
        assert list(gauge.values()) == [BREAKER_STATES["closed"]]

    def test_soak_reads_transitions_by_exact_label(self):
        from repro.serve.soak import _breaker_transitions

        # An endpoint whose name holds "to=open" must not count its
        # half-open and closed transitions as openings.
        obs = MetricsRegistry()
        breaker = CircuitBreaker(
            "probe.to=open",
            BreakerConfig(window=4, min_samples=2, open_ops=500),
            obs=obs,
        )
        breaker.record_failure(0)
        breaker.record_failure(10)
        breaker.allow(510)
        breaker.record_success(520)
        assert _breaker_transitions(obs) == {
            "closed": 1, "open": 1, "half_open": 1,
        }


class TestBoard:
    def test_one_breaker_per_endpoint(self):
        board = BreakerBoard(BreakerConfig(window=4))
        a = board.get("ep.a")
        assert board.get("ep.a") is a
        assert board.get("ep.b") is not a
        assert set(board.snapshot()) == {"ep.a", "ep.b"}


class _Flaky:
    """An endpoint handler that fails while ``broken`` is set."""

    def __init__(self):
        self.broken = False

    def __call__(self, record, params, executor):
        if self.broken:
            raise RuntimeError("dependency down")
        return ("v", params.get("x", 0)), 100


@pytest.fixture
def flaky_server():
    flaky = _Flaky()
    endpoints = EndpointRegistry()
    endpoints.register(Endpoint("test.flaky", "test", flaky))
    graphs = GraphRegistry()
    graphs.register("default", barabasi_albert(20, 2, seed=3))
    server = Server(
        graphs,
        endpoints=endpoints,
        num_workers=1,
        breaker=BreakerConfig(
            window=4, failure_threshold=0.5, min_samples=2,
            open_ops=500, half_open_probes=1,
        ),
        degrade=True,
        max_stale_epochs=4,
    )
    return server, graphs, flaky


class TestThroughScheduler:
    def test_full_cycle_closed_open_half_open_closed(self, flaky_server):
        server, graphs, flaky = flaky_server
        request = dict(endpoint="test.flaky", params={"x": 1})

        # Closed: a healthy request populates the cache.
        server.submit(Request(**request, arrival=0))
        (warm,) = server.run()
        assert warm.ok and not warm.degraded

        # Epoch bump: the cached answer is now stale-only fodder.
        graphs.bump_epoch("default")
        flaky.broken = True
        server.submit(Request(**request, arrival=200))
        server.submit(Request(**request, arrival=400))
        first, second = server.run()
        # Organic failures surface as errors and trip the breaker.
        assert {first.status, second.status} <= {"error", "degraded"}
        assert server.breakers.get("test.flaky").state == "open"

        # Open: the ladder answers stale instead of touching the engine.
        server.submit(Request(**request, arrival=server.clock + 10))
        (stale,) = server.run()
        assert stale.status == "degraded"
        assert stale.degraded_reason == "breaker_open"
        assert stale.staleness == 1
        assert stale.value == warm.value

        # Half-open after the cooldown: a healthy probe closes it.
        flaky.broken = False
        server.submit(Request(**request, arrival=server.clock + 600))
        (probe,) = server.run()
        assert probe.ok
        assert server.breakers.get("test.flaky").state == "closed"

        series = server.obs.counter("serve.breaker.transitions").series()
        by_state = {
            state: sum(v for k, v in series.items() if f"to={state}" in k)
            for state in ("open", "half_open", "closed")
        }
        assert by_state["open"] >= 1
        assert by_state["half_open"] >= 1
        assert by_state["closed"] >= 1

    def test_ledger_includes_degraded(self, flaky_server):
        server, graphs, flaky = flaky_server
        request = dict(endpoint="test.flaky", params={"x": 1})
        server.submit(Request(**request, arrival=0))
        server.run()
        graphs.bump_epoch("default")
        flaky.broken = True
        for i in range(4):
            server.submit(Request(**request, arrival=200 + i * 100))
        server.run()
        stats = server.stats
        assert stats.degraded > 0
        assert stats.admitted == (
            stats.completed + stats.shed + stats.expired + stats.degraded
        )
        assert stats.in_flight == 0
