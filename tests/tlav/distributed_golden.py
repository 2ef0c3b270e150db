"""Pinned results of the distributed and checkpointed TLAV engines.

``compute()`` runs WCC, BFS, SSSP (weighted) and PageRank (with the
``dangling`` aggregator, stopped by ``max_supersteps``) through
:class:`DistributedPregel` over hash,
range and METIS-like partitions, with sender-side combining on and off,
and records the final vertex values, the superstep reached and
``CommStats.as_dict()`` (per-link bytes included).  It also runs
:class:`CheckpointedEngine` in light and full mode under an injected
``fail_superstep`` fault and records the values and :class:`FaultStats`.
The graph has a second component and isolated vertices, so WCC labels
and PageRank's dangling mass are both exercised.

``distributed_golden.json`` beside this file is that output;
``test_distributed_golden.py`` compares the two exactly, so message
order, combining, routing and checkpoint billing cannot move unnoticed.

Re-capture (only when the results are *meant* to move)::

    PYTHONPATH=src python -m tests.tlav.distributed_golden > tests/tlav/distributed_golden.json
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any, Callable, Dict, Tuple

from repro.graph.csr import Graph
from repro.graph.generators import barabasi_albert
from repro.graph.partition import (
    hash_partition,
    metis_like_partition,
    range_partition,
)
from repro.obs import json_safe
from repro.resilience import FaultPlan
from repro.tlav.algorithms import (
    BFSProgram,
    PageRankProgram,
    SSSPProgram,
    WCCProgram,
)
from repro.tlav.distributed import DistributedPregel
from repro.tlav.engine import Aggregator
from repro.tlav.fault_tolerance import CheckpointedEngine


def golden_graph() -> Graph:
    """A BA core, a detached path and three isolated vertices."""
    core = barabasi_albert(60, 3, seed=5)
    edges = [(int(u), int(v)) for u, v in core.edges()]
    edges += [(60 + i, 61 + i) for i in range(7)]  # 60..67, its own component
    return Graph.from_edges(edges, num_vertices=71)  # 68, 69, 70 isolated


def _weight(u: int, v: int) -> float:
    return 1.0 + ((7 * u + 3 * v) % 5) / 4.0


def _dangling() -> Dict[str, Aggregator]:
    return {"dangling": Aggregator(reduce=lambda a, b: a + b, initial=0.0)}


PROGRAMS: Dict[str, Callable[[], Tuple[Any, Dict[str, Aggregator], int]]] = {
    "wcc": lambda: (WCCProgram(), {}, 100),
    "bfs": lambda: (BFSProgram(0), {}, 100),
    "sssp": lambda: (SSSPProgram(0, weight=_weight), {}, 100),
    "pagerank": lambda: (PageRankProgram(iterations=6), _dangling(), 6),
}

PARTITIONS = {
    "hash": lambda g: hash_partition(g, 4, seed=0),
    "range": lambda g: range_partition(g, 3),
    "metis": lambda g: metis_like_partition(g, 4, seed=0),
}


def distributed_runs(graph: Graph) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name, make in PROGRAMS.items():
        for part_name, partition in PARTITIONS.items():
            for combine in (True, False):
                program, aggregators, limit = make()
                engine = DistributedPregel(
                    graph, program, partition(graph),
                    aggregators=aggregators, max_supersteps=limit,
                    combine_remote=combine,
                )
                values = engine.run()
                key = f"{name}/{part_name}/combine={int(combine)}"
                out[key] = json.dumps(json_safe({
                    "values": values,
                    "superstep": engine.superstep,
                    "comm": engine.network.stats.as_dict(),
                }), sort_keys=True)
    return out


def checkpointed_runs(graph: Graph) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name in ("wcc", "pagerank"):
        for mode in ("light", "full"):
            program, aggregators, limit = PROGRAMS[name]()
            engine = CheckpointedEngine(
                graph, program, checkpoint_interval=2, mode=mode,
                aggregators=aggregators, max_supersteps=limit,
                injector=FaultPlan().fail_superstep(3).build(),
            )
            values = engine.run()
            out[f"{name}/{mode}"] = json.dumps(json_safe({
                "values": values,
                "stats": dataclasses.asdict(engine.stats),
            }), sort_keys=True)
    return out


def compute() -> Dict[str, Any]:
    graph = golden_graph()
    return {
        "distributed": distributed_runs(graph),
        "checkpointed": checkpointed_runs(graph),
    }


if __name__ == "__main__":
    json.dump(compute(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
