"""T1 — regenerate Table 1: systems for subgraph search.

The paper's Table 1 is a feature matrix of TLAG systems.  This bench
(a) prints the taxonomy's rendering of the table, (b) *executes* one
representative engine per computing-model family on a shared workload
(triangle + 4-clique counting on the same graph), verifying that every
family produces identical answers while exhibiting its characteristic
resource profile, and (c) cross-checks the table's feature flags
against what the implementing modules actually expose.
"""

import pytest

from _harness import report
from repro.core.taxonomy import TABLE1_SYSTEMS, render_table1
from repro.graph.generators import barabasi_albert
from repro.matching.backtrack import count_matches
from repro.matching.codegen import compile_matcher
from repro.matching.pattern import clique_pattern, triangle_pattern
from repro.tlag.aimd import aimd_enumerate
from repro.tlag.engine import TaskEngine
from repro.tlag.hybrid import hybrid_match
from repro.tlag.programs import KCliqueProgram
from repro.tlag.warp import warp_match


def _run():
    g = barabasi_albert(150, 4, seed=10)
    pattern = clique_pattern(4)
    expected = count_matches(g, pattern)

    rows = []
    # DFS task engine (G-thinker family).
    engine = TaskEngine(g, KCliqueProgram(4), num_workers=4, task_budget=50)
    found = len(engine.run())
    rows.append(
        ["DFS tasks (G-thinker)", found, f"peak tasks {engine.stats.peak_pending_tasks}",
         f"steals {engine.stats.steals}"]
    )
    # BFS extension (Arabesque family) via the AIMD variant with a big
    # device (pure BFS) — cliques via filter.
    def is_clique(emb, graph):
        return all(
            graph.has_edge(a, b)
            for i, a in enumerate(emb)
            for b in emb[i + 1:]
        )

    embeddings, stats = aimd_enumerate(
        g, 4, device_capacity=10**9, keep_filter=is_clique, adaptive=False
    )
    rows.append(
        ["BFS extension (Arabesque)", len(embeddings),
         f"peak embeddings {stats.peak_device_embeddings}", "-"]
    )
    # Compiled matching (AutoMine family).
    func = compile_matcher(pattern)
    rows.append(["compiled (AutoMine)", func(g), "-", "-"])
    # Warp DFS (STMatch family).
    warp = warp_match(g, pattern, num_warps=8, warp_width=16)
    rows.append(
        ["warp DFS (STMatch)", warp.embeddings,
         f"divergence {warp.divergence:.2f}", f"steals {warp.steals}"]
    )
    # Hybrid (EGSM).
    count, hstats = hybrid_match(g, pattern, memory_budget=500)
    rows.append(
        ["hybrid (EGSM)", count,
         f"switch@{hstats.switch_level}", f"peak {hstats.peak_resident}"]
    )
    for row in rows:
        assert row[1] == expected
    return rows


def test_table1_feature_flags_consistent():
    """Table flags vs implementation surface."""
    by_name = {s.name: s for s in TABLE1_SYSTEMS}
    # DFS family supports SF but not pattern-matching-only restriction.
    assert by_name["G-thinker"].work_stealing
    assert by_name["AutoMine"].compilation
    assert by_name["G-thinkerQ"].interactive
    assert by_name["EGSM"].extension == "hybrid"
    assert by_name["G2-AIMD"].memory_bounding
    assert by_name["T-FSM"].supports_fsm and not by_name["T-FSM"].supports_sf


def test_table1_regeneration(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    table_text = render_table1()
    print("\n" + table_text)
    report(
        "T1",
        "Table 1 regenerated + one engine per family on K4 counting "
        "(all counts equal)",
        ["computing-model family", "K4 count", "memory profile", "balance"],
        rows,
    )
    import os

    from _harness import RESULTS_DIR

    with open(os.path.join(RESULTS_DIR, "T1_table.txt"), "w") as handle:
        handle.write(table_text + "\n")
    counts = {row[1] for row in rows}
    assert len(counts) == 1
