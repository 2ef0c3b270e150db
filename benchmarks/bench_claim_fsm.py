"""C6 — single-graph FSM: GraMi prunings and T-FSM task parallelism.

Paper claims (Section 2): T-FSM is the most efficient single-graph FSM
system because it decomposes pattern support evaluation into independent
subgraph-matching tasks for parallel backtracking, and it supports all
of GraMi's pruning techniques.

Reproduced shape: (a) each GraMi pruning (NLF filter, early stop,
embedding reuse) cuts existence-check work, all agreeing on supports;
(b) T-FSM-style task-parallel evaluation scales the makespan down with
workers; (c) a support-threshold sweep shows the anti-monotone pattern
count growth the miners rely on.
"""

import pytest

from _harness import report
from repro.fsm.single_graph import SingleGraphFSM, mni_support, mni_support_parallel
from repro.graph.csr import Graph
from repro.graph.generators import planted_motif_graph
from repro.matching.pattern import PatternGraph


def _run():
    motif = Graph.from_edges(
        [(0, 1), (1, 2), (2, 0)], vertex_labels=[5, 5, 5]
    )
    g = planted_motif_graph(
        n=200, p=0.015, motif=motif, copies=12, num_vertex_labels=4, seed=3
    )
    pattern = PatternGraph(motif)
    rows = []
    configs = [
        ("no prunings", dict(prune_nlf=False, early_stop=False, reuse_embeddings=False)),
        ("+NLF filter", dict(prune_nlf=True, early_stop=False, reuse_embeddings=False)),
        ("+early stop", dict(prune_nlf=True, early_stop=True, reuse_embeddings=False)),
        ("+embedding reuse (all)", dict(prune_nlf=True, early_stop=True, reuse_embeddings=True)),
    ]
    supports = set()
    for name, kwargs in configs:
        result = mni_support(g, pattern, min_support=8, **kwargs)
        supports.add(result.support >= 8)
        rows.append(["GraMi " + name, result.existence_checks, result.search_ops, "-"])
    assert supports == {True}

    for workers in (1, 4, 16):
        result, makespan = mni_support_parallel(g, pattern, num_workers=workers)
        rows.append(
            [f"T-FSM tasks, {workers} workers", result.existence_checks,
             result.search_ops, makespan]
        )

    miner = SingleGraphFSM(min_support=10, max_edges=3)
    patterns = miner.run(g)
    rows.append(
        ["full mine (minsup=10, <=3 edges)", miner.total_existence_checks,
         miner.total_search_ops, f"{len(patterns)} patterns"]
    )
    return rows


def test_claim_c6_fsm(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    report(
        "C6",
        "Single-graph FSM: pruning ablation + task-parallel MNI",
        ["configuration", "existence checks", "search ops", "makespan/out"],
        rows,
    )
    # Prunings cut existence checks and search ops (the frequency
    # decisions agreed inside _run), and each one is no worse than the last.
    checks = [row[1] for row in rows[:4]]
    pruning_ops = [row[2] for row in rows[:4]]
    assert checks[-1] < checks[0] and pruning_ops[-1] < pruning_ops[0]
    assert checks == sorted(checks, reverse=True)
    assert pruning_ops == sorted(pruning_ops, reverse=True)
    # Task parallelism cuts makespan: 16 workers < 4 < 1, and one worker
    # runs the search ops back to back.
    one, four, sixteen = rows[4:7]
    assert sixteen[3] < four[3] < one[3]
    assert one[3] == one[2]
    # Same tasks whatever the worker count.
    assert one[1:3] == four[1:3] == sixteen[1:3]
