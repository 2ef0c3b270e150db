"""Differential checks for the resilience layer.

The layer's contract: **recovery changes the cost surface, never the
answer**.  A checkpointed TLAV run that crashes and replays must equal
the failure-free run bit for bit; a lossy link with ack/retransmit must
deliver exactly the messages a reliable link delivers; and a snapshot
store must round-trip arbitrary engine state (the checkpoint
save -> restore invariant).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..check.invariants import same_multiset, same_values
from ..check.registry import BIT_IDENTICAL, invariant, pair
from ..check.workloads import gen_graph_params, make_graph
from ..cluster.comm import Network
from ..tlav.algorithms import BFSProgram, pagerank
from ..tlav.engine import PregelEngine
from ..tlav.fault_tolerance import CheckpointedEngine
from .faults import FaultPlan
from .retry import RetryPolicy
from .snapshot import SnapshotStore


def _gen_recovery(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 48))
    params["source"] = int(rng.integers(1 << 16))
    params["fail_superstep"] = int(rng.integers(1, 6))
    params["checkpoint_interval"] = int(rng.integers(1, 4))
    return params


@pair(
    "resilience.tlav.recovery_vs_plain", "resilience", BIT_IDENTICAL,
    gen=_gen_recovery,
    floors={"n": 4, "fail_superstep": 1, "checkpoint_interval": 1},
    description="A BFS run that crashes mid-computation, restores the "
    "latest checkpoint and replays must produce exactly the values of "
    "the failure-free run, and must record the injected failure.",
)
def _check_recovery(params: Dict) -> List[str]:
    graph = make_graph(params)
    source = int(params["source"]) % graph.num_vertices
    reference = PregelEngine(
        graph, BFSProgram(source), max_supersteps=graph.num_vertices + 1
    )
    plain = reference.run()
    # A fault scheduled past the superstep where the run stops never
    # fires; move it to that last boundary so every case recovers.
    fail_at = min(int(params["fail_superstep"]), reference.superstep)
    plan = FaultPlan(seed=0).fail_superstep(fail_at)
    engine = CheckpointedEngine(
        graph,
        BFSProgram(source),
        checkpoint_interval=int(params["checkpoint_interval"]),
        max_supersteps=graph.num_vertices + 1,
        injector=plan.build(),
    )
    recovered = engine.run()
    out = same_values(list(plain), list(recovered), "bfs")
    if engine.stats.failures < 1:
        out.append(
            f"recovery: expected at least one injected failure, saw "
            f"{engine.stats.failures} (fault never fired?)"
        )
    return out


def _gen_lossy(rng: np.random.Generator) -> Dict:
    return {
        "num_workers": int(rng.integers(2, 6)),
        "messages": int(rng.integers(8, 129)),
        "rounds": int(rng.integers(1, 5)),
        "drop": round(float(rng.uniform(0.05, 0.5)), 3),
        "duplicate": round(float(rng.uniform(0.0, 0.3)), 3),
        "fault_seed": int(rng.integers(1 << 16)),
    }


@pair(
    "resilience.network.lossy_retry_vs_reliable", "resilience", BIT_IDENTICAL,
    gen=_gen_lossy,
    floors={"num_workers": 2, "messages": 1, "rounds": 1, "drop": 0.0,
            "duplicate": 0.0},
    description="Sender-side ack/retransmit over a dropping, "
    "duplicating link gives exactly-once delivery: every worker "
    "receives exactly the multiset of payloads a lossless link "
    "delivers.",
)
def _check_lossy(params: Dict) -> List[str]:
    workers = int(params["num_workers"])
    messages = int(params["messages"])
    rounds = int(params["rounds"])

    def pump(network: Network) -> List[List]:
        received: List[List] = [[] for _ in range(workers)]
        seq = 0
        for _ in range(rounds):
            for _ in range(messages):
                src = seq % workers
                dst = (seq * 7 + 3) % workers
                network.send(src, dst, ("payload", seq))
                seq += 1
            network.deliver()
            for w in range(workers):
                received[w].extend(m.payload for m in network.receive(w))
        # Drain delayed/straggler deliveries.
        for _ in range(8):
            if not network.deliver():
                break
            for w in range(workers):
                received[w].extend(m.payload for m in network.receive(w))
        return received

    reliable = pump(Network(workers))
    plan = FaultPlan(seed=int(params["fault_seed"])).lossy_network(
        drop=float(params["drop"]), duplicate=float(params["duplicate"])
    )
    lossy = pump(
        Network(
            workers,
            injector=plan.build(),
            retry=RetryPolicy(max_attempts=6, seed=int(params["fault_seed"])),
        )
    )
    out: List[str] = []
    for w in range(workers):
        out += same_multiset(reliable[w], lossy[w], f"worker[{w}]")
    return out


def _gen_snapshot(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 32))
    params["iterations"] = int(rng.integers(1, 5))
    params["keep"] = int(rng.integers(1, 4))
    params["saves"] = int(rng.integers(1, 7))
    return params


@invariant(
    "resilience.snapshot.roundtrip", "resilience", gen=_gen_snapshot,
    floors={"n": 4, "iterations": 1, "keep": 1, "saves": 1},
    description="SnapshotStore round-trips real engine state (float "
    "arrays, nested dicts) bit-exactly, keeps exactly the newest "
    "`keep` snapshots, and its checkpoint counter matches the saves "
    "issued.",
)
def _check_snapshot(params: Dict) -> List[str]:
    graph = make_graph(params)
    ranks = pagerank(graph, iterations=int(params["iterations"]))
    store = SnapshotStore(keep=int(params["keep"]))
    saves = int(params["saves"])
    state = None
    for step in range(saves):
        state = {
            "step": step,
            "ranks": ranks * (step + 1),
            "halted": [bool(i % 2) for i in range(graph.num_vertices)],
            "nested": {"labels": list(range(step + 1))},
        }
        store.save("check", step, state)
    restored = store.restore_latest("check")
    out: List[str] = []
    if restored["step"] != state["step"]:
        out.append(
            f"snapshot: restored step {restored['step']} != {state['step']}"
        )
    if not np.array_equal(restored["ranks"], state["ranks"]):
        out.append("snapshot: ranks array did not round-trip bit-exactly")
    out += same_values(state["halted"], restored["halted"], "halted")
    out += same_values(
        state["nested"]["labels"], restored["nested"]["labels"], "labels"
    )
    if store.checkpoints_taken("check") != saves:
        out.append(
            f"snapshot: checkpoints_taken {store.checkpoints_taken('check')} "
            f"!= {saves} saves"
        )
    history = store._by_tag.get("check", [])
    if len(history) != min(saves, int(params["keep"])):
        out.append(
            f"snapshot: store holds {len(history)} snapshots, expected "
            f"{min(saves, int(params['keep']))} (keep={params['keep']})"
        )
    return out
