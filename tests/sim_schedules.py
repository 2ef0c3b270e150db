"""Every simulated-worker schedule the repo quotes, at fixed seeds.

``compute()`` drives each client of :mod:`repro.sim` through its public
API only and returns plain JSON data; ``sim_schedules.json`` beside this
file is that output **captured at the parent of the PR that introduced
repro.sim** (commit ddb26f4, seven hand-written clock heaps).  The
golden test in ``test_sim.py`` compares the two exactly, so a change to
a tie-break, a wake time or a victim choice cannot land unnoticed.

Re-capture (only when a schedule is *meant* to move)::

    PYTHONPATH=src python -m tests.sim_schedules > tests/sim_schedules.json
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

from repro.fsm.prefixfpm import GraphPatterns, PrefixMiner, SequencePatterns
from repro.fsm.single_graph import mni_support_parallel
from repro.gnn.serverless import simulate_fleet
from repro.graph.csr import Graph
from repro.graph.generators import (
    barabasi_albert,
    planted_motif_graph,
    random_labeled_transactions,
)
from repro.graph.partition import hash_partition, metis_like_partition
from repro.matching.pattern import (
    PatternGraph,
    diamond_pattern,
    path_pattern,
    triangle_pattern,
)
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve.endpoints import Endpoint, EndpointRegistry, GraphRegistry
from repro.serve.scheduler import Request, Server
from repro.tlag.distributed import DistributedTaskEngine
from repro.tlag.engine import TaskEngine
from repro.tlag.programs import MaximalCliqueProgram
from repro.tlag.query import Query, QueryServer


def _engine_row(engine) -> Dict[str, Any]:
    s = engine.stats
    return {
        "results": len(engine.results),
        "tasks": s.tasks_executed,
        "forked": s.tasks_forked,
        "steals": s.steals,
        "total_ops": s.total_ops,
        "worker_busy": s.worker_busy,
        "makespan": s.makespan,
        "peak_pending": s.peak_pending_tasks,
        "balance": s.balance,
    }


def _task_engine() -> Dict[str, Any]:
    g = barabasi_albert(150, 5, seed=4)
    out: Dict[str, Any] = {}
    for workers in (1, 4, 16):
        for steal in (True, False):
            for budget in (None, 40):
                for chunk in (None, 8):
                    engine = TaskEngine(
                        g, MaximalCliqueProgram(), num_workers=workers,
                        steal=steal, task_budget=budget, chunk_size=chunk,
                    )
                    engine.run()
                    key = f"w{workers}-steal{int(steal)}-b{budget}-c{chunk}"
                    out[key] = _engine_row(engine)
    for workers, every in ((4, 5), (16, 7)):
        injector = FaultPlan(seed=7).fail_task(23).fail_task(61).build()
        engine = TaskEngine(
            g, MaximalCliqueProgram(), num_workers=workers, task_budget=40,
            injector=injector, checkpoint_every=every,
        )
        engine.run()
        row = _engine_row(engine)
        row["restores"] = engine.snapshots.restores()
        row["checkpoints"] = engine.snapshots.checkpoints_taken()
        out[f"w{workers}-fail23+61-every{every}"] = row
    return out


def _distributed() -> Dict[str, Any]:
    g = barabasi_albert(150, 5, seed=4)
    out: Dict[str, Any] = {}
    partitions = {
        "hash": hash_partition(g, 4),
        "metis": metis_like_partition(g, 4, seed=0),
    }
    for name, partition in partitions.items():
        for steal, capacity in ((True, 64), (True, 0), (False, 64)):
            engine = DistributedTaskEngine(
                g, MaximalCliqueProgram(), partition, task_budget=40,
                steal=steal, cache_capacity=capacity,
            )
            engine.run()
            row = _engine_row(engine)
            row["remote_bytes"] = engine.remote_bytes
            row["cache"] = engine.aggregate_cache_stats().as_dict()
            out[f"{name}-steal{int(steal)}-cache{capacity}"] = row
    return out


def _prefix_miner() -> Dict[str, Any]:
    sequences = [
        "abcabdacb", "abcbdda", "acbdabc", "babdcca", "dcabacbd", "cabdbca",
    ]
    db = random_labeled_transactions(
        12, 9, 0.3, num_vertex_labels=2, seed=5
    )
    out: Dict[str, Any] = {}
    for workers in (1, 3, 8):
        for name, domain, minsup in (
            ("seq", SequencePatterns(sequences), 3),
            ("graph", GraphPatterns(db, max_edges=3), 4),
        ):
            miner = PrefixMiner(domain, minsup, num_workers=workers)
            mined = miner.run()
            s = miner.stats
            out[f"{name}-w{workers}"] = {
                "patterns": len(mined),
                "tasks": s.tasks,
                "total_ops": s.total_ops,
                "steals": s.steals,
                "worker_busy": s.worker_busy,
                "makespan": s.makespan,
                "balance": s.balance,
            }
    return out


def _query_server() -> Dict[str, Any]:
    g = barabasi_albert(120, 3, seed=7)
    queries = [
        (diamond_pattern(), 0), (triangle_pattern(), 40),
        (path_pattern(3), 40), (triangle_pattern(), 5000),
    ]
    out: Dict[str, Any] = {}
    for workers in (1, 3):
        for mode in ("serve", "run_sequentially"):
            server = QueryServer(g, num_workers=workers)
            for pattern, arrival in queries:
                server.submit(Query(pattern, arrival=arrival))
            out[f"{mode}-w{workers}"] = [
                [r.embeddings, r.completion_time, r.work, r.response_time]
                for r in getattr(server, mode)()
            ]
    return out


def _mni_parallel() -> Dict[str, Any]:
    motif = Graph.from_edges([(0, 1), (1, 2), (2, 0)], vertex_labels=[5, 5, 5])
    g = planted_motif_graph(
        n=120, p=0.02, motif=motif, copies=8, num_vertex_labels=4, seed=3
    )
    out: Dict[str, Any] = {}
    for workers in (1, 4, 16):
        result, makespan = mni_support_parallel(
            g, PatternGraph(motif), num_workers=workers
        )
        out[f"w{workers}"] = {
            "support": result.support,
            "checks": result.existence_checks,
            "search_ops": result.search_ops,
            "makespan": makespan,
        }
    return out


def _serve_closed_loop() -> Dict[str, Any]:
    endpoints = EndpointRegistry()
    endpoints.register(Endpoint(
        "test.work", "test",
        lambda rec, p, ex: (("w", p["x"]), int(p["cost"])),
    ))
    graphs = GraphRegistry()
    graphs.register("default", barabasi_albert(20, 2, seed=3))
    server = Server(
        graphs, endpoints=endpoints, num_workers=3, queue_bound=7,
        batch_window=16,
    )
    remaining = {"alice": 6, "bob": 6, "carol": 6, "dan": 6}

    def feedback(response):
        tenant = response.request.tenant
        if remaining[tenant] == 0:
            return None
        remaining[tenant] -= 1
        x = response.request.params["x"] + 1
        return Request(
            endpoint="test.work", tenant=tenant,
            params={"x": x % 5, "cost": 30 + 17 * (x % 4)},
            arrival=response.completed + 25 * (x % 3),
            deadline=response.completed + 150,
        )

    for i, tenant in enumerate(remaining):
        for k in range(3):
            server.submit(Request(
                endpoint="test.work", tenant=tenant, arrival=10 * i + k,
                params={"x": i + k, "cost": 60 + 10 * i}, priority=i % 2,
            ))
    first = server.run(feedback=feedback)
    # A second wave long after the first: the idle-jump path.
    for i, tenant in enumerate(remaining):
        server.submit(Request(
            endpoint="test.work", tenant=tenant, arrival=5000 + 40 * i,
            params={"x": 9, "cost": 35},
        ))
    second = server.run()
    return {
        "responses": [
            [r.request.id, r.status, r.dispatched, r.completed, r.cost,
             r.cache_hit, r.batch_size]
            for r in first + second
        ],
        "clock": server.clock,
        "tenant_work": server.tenant_work,
        "stats": server.stats.extra_dict(),
        "peak_in_flight": int(server.stats._g_in_flight.value()),
    }


def _fleet() -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    plan = FaultPlan(seed=7).fail_lambda(0.2, straggler=0.1)
    retry = RetryPolicy(max_attempts=3, timeout=0.5, seed=7)
    out["retry"] = simulate_fleet(
        48, 1.0, 6, injector=plan.build(), retry=retry
    ).as_dict()
    out["no-retry"] = simulate_fleet(48, 1.0, 6, injector=plan.build()).as_dict()
    out["clean"] = simulate_fleet(10, 0.3, 4).as_dict()
    return out


def compute() -> Dict[str, Any]:
    """All pinned schedules, as ``json.loads(json.dumps(...))`` data."""
    schedules = {
        "task_engine": _task_engine(),
        "distributed": _distributed(),
        "prefix_miner": _prefix_miner(),
        "query_server": _query_server(),
        "mni_parallel": _mni_parallel(),
        "serve_closed_loop": _serve_closed_loop(),
        "fleet": _fleet(),
    }
    return json.loads(json.dumps(schedules))


if __name__ == "__main__":
    json.dump(compute(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
