"""Differential checks for the TLAG task engine.

``num_workers=1, task_budget=None`` degenerates the engine to a plain
serial DFS, which is the reference; multi-worker runs (with stealing
and budget-triggered splitting) and explicit chunking may reorder the
result stream but never change the result *set* — the declared relation
is permutation equality, with the count cross-checked against the
independent ``repro.matching`` triangle counter.  The distributed
engine is the same loop plus placement and priced reads, so its clique
multiset equals the shared-memory one under any partitioner and cache
size; and whatever the knobs, a schedule conserves work: every task runs
once, the clocks add up, and no worker retires next to a full deque.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..check.invariants import same_multiset, same_values
from ..check.registry import PERMUTATION, invariant, pair
from ..check.workloads import gen_graph_params, make_graph
from ..graph.generators import path_graph
from ..graph.partition import hash_partition, metis_like_partition, range_partition
from ..matching.triangles import triangle_count
from .distributed import DistributedTaskEngine
from .engine import TaskEngine
from .programs import MaximalCliqueProgram, TriangleProgram
from .task import Task, TaskProgram


def _gen_workers(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 64))
    params["num_workers"] = int(rng.integers(2, 7))
    params["task_budget"] = int(rng.integers(4, 64))
    return params


@pair(
    "tlag.triangles.workers_vs_serial", "tlag", PERMUTATION,
    gen=_gen_workers,
    floors={"n": 4, "num_workers": 2, "task_budget": 4},
    description="Work stealing and budget splits reorder task "
    "execution; the enumerated triangle set must be a permutation of "
    "the serial DFS's, and its size must match the matching-subsystem "
    "count.",
)
def _check_workers(params: Dict) -> List[str]:
    graph = make_graph(params)
    serial = TaskEngine(graph, TriangleProgram(), num_workers=1).run()
    multi = TaskEngine(
        graph,
        TriangleProgram(),
        num_workers=int(params["num_workers"]),
        task_budget=int(params["task_budget"]),
    ).run()
    out = same_multiset(serial, multi, "triangles")
    out += same_values(len(serial), triangle_count(graph), "count")
    return out


def _gen_chunked(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 64))
    params["num_workers"] = int(rng.integers(2, 5))
    params["chunk_size"] = int(rng.integers(1, 9))
    return params


@pair(
    "tlag.triangles.chunked_vs_default", "tlag", PERMUTATION,
    gen=_gen_chunked,
    floors={"n": 4, "num_workers": 2, "chunk_size": 1},
    description="Root-chunked task spawning is a scheduling choice: "
    "any chunk_size yields a permutation of the default spawn order's "
    "results.",
)
def _check_chunked(params: Dict) -> List[str]:
    graph = make_graph(params)
    workers = int(params["num_workers"])
    default = TaskEngine(graph, TriangleProgram(), num_workers=workers).run()
    chunked = TaskEngine(
        graph,
        TriangleProgram(),
        num_workers=workers,
        chunk_size=int(params["chunk_size"]),
    ).run()
    return same_multiset(default, chunked, "triangles")


_PARTITIONERS = {
    "hash": hash_partition, "range": range_partition, "metis": metis_like_partition,
}


def _gen_distributed(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 64))
    params["partitioner"] = str(rng.choice(sorted(_PARTITIONERS)))
    params["num_parts"] = int(rng.integers(1, 7))
    params["cache_capacity"] = int(rng.choice([0, 0, 1, 8, 256]))
    params["task_budget"] = int(rng.integers(4, 64))
    return params


@pair(
    "tlag.cliques.distributed_vs_shared", "tlag", PERMUTATION,
    gen=_gen_distributed,
    floors={"n": 4, "num_parts": 1, "cache_capacity": 0, "task_budget": 4},
    description="Partitioning, home placement, the vertex cache (off "
    "at capacity 0) and priced steals move bytes, never answers: the "
    "distributed engine's maximal cliques are a permutation of the "
    "serial shared-memory engine's.",
)
def _check_distributed(params: Dict) -> List[str]:
    graph = make_graph(params)
    partition = _PARTITIONERS[params["partitioner"]](
        graph, int(params["num_parts"])
    )
    shared = TaskEngine(graph, MaximalCliqueProgram(), num_workers=1).run()
    distributed = DistributedTaskEngine(
        graph, MaximalCliqueProgram(), partition,
        cache_capacity=int(params["cache_capacity"]),
        task_budget=int(params["task_budget"]),
    ).run()
    return same_multiset(shared, distributed, "maximal cliques")


class _ForkTree(TaskProgram):
    """A seeded random task tree that books every task it is shown.

    Few roots and near-critical branching keep the deques close to
    empty, the regime mining on small inputs rarely reaches.
    """

    def __init__(self, seed: int, roots: int, depth: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.roots, self.depth = roots, depth
        self.engine: TaskEngine = None
        self.created: List[Task] = []  # kept alive, so ids stay unique
        self.ran: List[int] = []
        self.cost = 0
        self.slept_on_work = 0

    def spawn(self, graph):
        self.created = [Task((i,), self.depth) for i in range(self.roots)]
        return iter(self.created)

    def process(self, task, ctx) -> None:
        sched = self.engine.schedule
        if sched.steal and sched.pending:
            # Only the executing worker may be off the clocks.
            self.slept_on_work += len(sched.clocks.state()["retired"]) - 1
        ctx.charge(int(self.rng.integers(0, 9)))  # zero-cost tasks included
        if task.state > 0:
            for k in range(int(self.rng.integers(0, 3))):
                ctx.fork(Task(task.subgraph + (k,), task.state - 1))
        self.ran.append(id(task))
        self.created += ctx.forked
        self.cost += ctx.ops


def _gen_schedule(rng: np.random.Generator) -> Dict:
    return {
        "seed": int(rng.integers(1 << 16)),
        "roots": int(rng.integers(1, 7)),
        "depth": int(rng.integers(0, 9)),
        "num_workers": int(rng.integers(1, 9)),
        "steal": bool(rng.integers(4)),
        "chunk_size": int(rng.integers(1, 5)),
    }


@invariant(
    "tlag.schedule.work_conserved", "tlag", gen=_gen_schedule,
    floors={"roots": 1, "depth": 0, "num_workers": 1, "chunk_size": 1},
    description="Whatever the workers / steal / chunk knobs and the "
    "fork tree, every spawned or forked task executes exactly once, the "
    "charged ops add up to total_ops, ceil(total_ops / W) <= makespan "
    "<= total_ops + tasks, and with stealing on no worker stays retired "
    "while a deque holds work.",
)
def _check_schedule(params: Dict) -> List[str]:
    program = _ForkTree(
        int(params["seed"]), int(params["roots"]), int(params["depth"])
    )
    workers = int(params["num_workers"])
    engine = program.engine = TaskEngine(
        path_graph(2), program, num_workers=workers,
        steal=bool(params["steal"]), chunk_size=int(params["chunk_size"]),
        collect_results=False,
    )
    engine.run()
    stats = engine.stats
    out = same_multiset(
        [id(t) for t in program.created], program.ran, "tasks executed once"
    )
    out += same_values(program.cost, stats.total_ops, "total_ops")
    out += same_values(len(program.ran), stats.tasks_executed, "tasks_executed")
    if not -(-stats.total_ops // workers) <= stats.makespan <= (
        stats.total_ops + stats.tasks_executed
    ):
        out.append(
            f"makespan {stats.makespan} outside [ceil({stats.total_ops}/"
            f"{workers}), {stats.total_ops} + {stats.tasks_executed}]"
        )
    if program.slept_on_work:
        out.append(f"{program.slept_on_work} workers retired beside queued work")
    return out
