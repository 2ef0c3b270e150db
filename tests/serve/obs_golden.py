"""Pinned observability output of one seeded :class:`Server` scenario.

``compute()`` runs two scenarios and returns the registry JSON and
``ServeStats.as_dict()`` of each as the exact strings the server emits.
``faults`` drives fixed-cost endpoints through every terminal status
(ok, error, shed, expired, degraded), duplicate and merge batching,
cache hits, a circuit breaker's full cycle, a timeout hedge, injected
endpoint faults and all three degradation reasons (shed, breaker_open,
failure).  ``loadgen`` serves the built-in endpoints under seeded open
and closed loops with a mutation between waves (cache promotion and
invalidation) and also pins every response's summary.  ``serve_obs_golden.json``
beside this file is that output; ``test_obs_golden.py`` compares the
two byte for byte, so a change to what the scheduler records — or to
how the metrics layer renders it — cannot land unnoticed.

Re-capture (only when the emitted metrics are *meant* to move)::

    PYTHONPATH=src python -m tests.serve.obs_golden > tests/serve/serve_obs_golden.json
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.graph.generators import barabasi_albert
from repro.graph.partition import hash_partition
from repro.graph.store import InMemoryGraph
from repro.obs import MetricsRegistry
from repro.resilience import FaultInjector, FaultPlan, RetryPolicy
from repro.serve.breaker import BreakerConfig
from repro.serve.endpoints import Endpoint, EndpointRegistry, GraphRegistry
from repro.serve.loadgen import ClosedLoop, MixEntry, open_loop
from repro.serve.scheduler import Request, Server


class _Switch:
    """A fixed-cost handler that raises while ``broken`` is set."""

    def __init__(self) -> None:
        self.broken = False

    def __call__(self, record, params, executor):
        if self.broken:
            raise RuntimeError("dependency down")
        return ("flaky", params.get("x", 0)), 80


def _endpoints(flaky: _Switch, slow: Dict[str, int]) -> EndpointRegistry:
    registry = EndpointRegistry()
    registry.register(Endpoint(
        "test.work", "test",
        lambda rec, p, ex: (("w", p.get("x", 0)), int(p.get("cost", 100))),
    ))
    registry.register(Endpoint(
        "test.merge", "test",
        lambda rec, p, ex: (2 * p["x"], 60),
        run_batch=lambda rec, ps, ex: ([2 * p["x"] for p in ps], 50 + 10 * len(ps)),
    ))
    registry.register(Endpoint("test.flaky", "test", flaky))
    registry.register(Endpoint(
        "test.slow", "test",
        lambda rec, p, ex: (("s", p.get("x", 0)), slow["cost"]),
        timeout_ops=150,
    ))

    def boom(rec, p, ex):
        raise ValueError("engine down")

    registry.register(Endpoint("test.boom", "test", boom, degradable=False))
    registry.register(Endpoint(
        "test.inject", "test", lambda rec, p, ex: (("i", p.get("x", 0)), 40),
    ))
    return registry


def scenario() -> Server:
    """Run the scenario; returns the drained server."""
    flaky = _Switch()
    slow = {"cost": 100}
    graphs = GraphRegistry()
    graphs.register("default", barabasi_albert(20, 2, seed=3))
    obs = MetricsRegistry()
    server = Server(
        graphs,
        endpoints=_endpoints(flaky, slow),
        num_workers=2,
        queue_bound=4,
        batch_window=20,
        max_batch=3,
        retry=RetryPolicy(max_attempts=2),
        obs=obs,
        breaker=BreakerConfig(
            window=4, failure_threshold=0.5, min_samples=2,
            open_ops=500, half_open_probes=1,
        ),
        degrade=True,
        max_stale_epochs=2,
        injector=FaultInjector(
            FaultPlan(seed=11).fail_endpoint("test.inject", 0.5), obs=obs
        ),
    )

    def wave(requests: List[Request]) -> None:
        for request in requests:
            server.submit(request)
        server.run()

    # Warm: duplicates coalesce, merge requests share one call, two
    # tenants and two lanes compete, a late finisher misses its deadline.
    wave([
        Request("test.work", {"x": 1}, tenant="alice", arrival=0),
        Request("test.work", {"x": 1}, tenant="bob", arrival=5),
        Request("test.work", {"x": 1}, tenant="alice", arrival=8),
        Request("test.merge", {"x": 3}, tenant="bob", arrival=10),
        Request("test.merge", {"x": 4}, tenant="alice", arrival=12),
        Request("test.flaky", {"x": 9}, tenant="carol", arrival=14),
        Request("test.work", {"x": 2, "cost": 300}, tenant="carol",
                priority=1, arrival=15, deadline=200),
        Request("test.inject", {"x": 5}, tenant="bob", arrival=30),
        Request("test.inject", {"x": 6}, tenant="alice", arrival=31),
    ])
    t = server.clock + 50
    # Hot: the same params come back as cache hits.
    wave([
        Request("test.work", {"x": 1}, tenant="alice", arrival=t),
        Request("test.merge", {"x": 3}, tenant="bob", arrival=t + 1),
        Request("test.flaky", {"x": 9}, tenant="carol", arrival=t + 2),
    ])
    # Epoch bump: everything cached is stale-only now.  A burst past
    # the queue bound sheds; cached params degrade instead.
    graphs.bump_epoch("default")
    t = server.clock + 50
    wave([
        Request("test.work", {"x": 7, "cost": 400}, tenant="dan", arrival=t),
        Request("test.work", {"x": 8, "cost": 400}, tenant="dan", arrival=t),
    ] + [
        Request("test.work", {"x": 10 + i}, tenant="erin", arrival=t + 1)
        for i in range(5)
    ] + [
        Request("test.work", {"x": 1}, tenant="alice", arrival=t + 2),
        Request("test.merge", {"x": 3}, tenant="bob", arrival=t + 2),
        Request("test.work", {"x": 99}, tenant="bob", arrival=t + 2),
    ])
    # Deadlines: queued behind two urgent long requests, a short
    # deadline expires in the queue and a longer one finishes late.
    t = server.clock + 50
    wave([
        Request("test.work", {"x": 20, "cost": 500}, tenant="dan",
                priority=1, arrival=t),
        Request("test.work", {"x": 21, "cost": 500}, tenant="dan",
                priority=1, arrival=t),
        Request("test.work", {"x": 22}, tenant="erin", arrival=t + 1,
                deadline=t + 100),
        Request("test.work", {"x": 23}, tenant="erin", arrival=t + 2,
                deadline=t + 600),
    ])
    # Breaker: the flaky dependency fails, trips the breaker, and an
    # open breaker answers stale (cached params) or errors (cold ones).
    flaky.broken = True
    t = server.clock + 50
    wave([
        Request("test.flaky", {"x": 9}, tenant="carol", arrival=t),
        Request("test.flaky", {"x": 10}, tenant="carol", arrival=t + 200),
        Request("test.flaky", {"x": 9}, tenant="carol", arrival=t + 400),
        Request("test.flaky", {"x": 11}, tenant="carol", arrival=t + 410),
    ])
    # Timeouts hedge once, then fail: degraded from the stale entry if
    # one exists, an error otherwise; a non-degradable endpoint errors.
    t = server.clock + 50
    wave([Request("test.slow", {"x": 1}, tenant="dan", arrival=t)])
    graphs.bump_epoch("default")
    slow["cost"] = 200
    t = server.clock + 50
    wave([
        Request("test.slow", {"x": 1}, tenant="dan", arrival=t),
        Request("test.slow", {"x": 2}, tenant="dan", arrival=t),
    ])
    # Cooldown elapsed: a healthy half-open probe closes the breaker.
    flaky.broken = False
    t = server.clock + 600
    wave([
        Request("test.flaky", {"x": 12}, tenant="carol", arrival=t),
        Request("test.boom", {}, tenant="erin", arrival=t + 1),
        Request("test.inject", {"x": 7}, tenant="bob", arrival=t + 2),
        Request("test.inject", {"x": 8}, tenant="bob", arrival=t + 3),
    ])
    # A closed loop: each completion submits a follow-up.
    t = server.clock + 50
    server.submit(Request("test.work", {"x": 30}, tenant="fay", arrival=t))
    left = [3]

    def follow(response):
        if left[0] == 0:
            return None
        left[0] -= 1
        return Request(
            "test.work", {"x": 30 + left[0] % 2}, tenant="fay",
            arrival=response.completed,
        )

    server.run(feedback=follow)
    return server


def loadgen_scenario() -> Tuple[Server, List[Dict[str, Any]]]:
    """The built-in endpoints under four waves of seeded open and closed
    loops, one edge mutation before the third; returns the server and
    every response's summary in id order."""
    rng = np.random.default_rng(5)
    graph = barabasi_albert(120, 3, seed=5)
    graphs = GraphRegistry()
    graphs.register("mem", InMemoryGraph(
        graph, features=rng.normal(size=(120, 4)),
        partition=hash_partition(graph, 8), name="mem",
    ))
    server = Server(graphs, num_workers=4, queue_bound=1_000, batch_window=128)
    pools = [
        ("graph.neighbors", 4.0, [{"node": k} for k in range(6)]),
        ("tlav.bfs", 2.0, [{"source": k} for k in range(2)]),
        ("tlav.pagerank", 1.0, [{"iterations": 3}]),
        ("tlav.wcc", 1.0, [{}]),
        ("matching.count", 1.0, [{"pattern": "triangle"}]),
        ("gnn.predict", 3.0, [{"nodes": [k, k + 7]} for k in range(4)]),
    ]
    mix = [
        MixEntry(
            endpoint,
            lambda r, pool=pool: dict(pool[int(r.integers(len(pool)))]),
            weight=weight, graph="mem",
        )
        for endpoint, weight, pool in pools
    ]
    responses = []
    for wave in range(4):
        if wave == 2:
            graphs.apply_updates("mem", inserts=[(0, 50), (3, 77)])
        start = server.clock
        for request in open_loop(
            mix, num_requests=60, mean_interarrival=40,
            tenants=("alice", "bob"), seed=wave, start=start,
        ):
            server.submit(request)
        closed = ClosedLoop(
            mix, clients=("dan",), requests_per_client=5, think_ops=400,
            seed=wave + 100, start=start,
        )
        for request in closed.initial_requests():
            server.submit(request)
        responses += server.run(feedback=closed.feedback)
    return server, [r.as_dict() for r in responses]


def compute() -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    server = scenario()
    out["faults"] = {
        "registry_json": json.dumps(server.obs.as_dict(), sort_keys=True),
        "stats_json": json.dumps(server.stats.as_dict(), sort_keys=True),
    }
    server, responses = loadgen_scenario()
    out["loadgen"] = {
        "registry_json": json.dumps(server.obs.as_dict(), sort_keys=True),
        "stats_json": json.dumps(server.stats.as_dict(), sort_keys=True),
        "responses_json": json.dumps(responses, sort_keys=True),
    }
    return out


if __name__ == "__main__":
    json.dump(compute(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
