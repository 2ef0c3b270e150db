"""Quickstart: one tour through every subsystem of the library.

Run with::

    python examples/quickstart.py

Covers: building a graph, vertex analytics on the TLAV engine, subgraph
search on the TLAG task engine, compiled pattern matching, FSM, and a
small GNN — the full pipeline of the tutorial's Figure 1 in miniature.
"""

import numpy as np

from repro.gnn.models import NodeClassifier
from repro.gnn.train import train_full_graph
from repro.graph.generators import barabasi_albert, planted_partition
from repro.matching.codegen import compile_matcher
from repro.matching.pattern import clique_pattern, triangle_pattern
from repro.matching.plan import GraphStats, Planner
from repro.tlag.engine import TaskEngine
from repro.tlag.programs import MaximalCliqueProgram
from repro.tlav import pagerank, wcc


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Build a graph (any edge iterable works; generators ship too).
    # ------------------------------------------------------------------
    graph = barabasi_albert(2000, 4, seed=42)
    print(f"graph: {graph}")

    # ------------------------------------------------------------------
    # 2. Vertex analytics on the think-like-a-vertex engine.
    # ------------------------------------------------------------------
    scores = pagerank(graph, iterations=15)
    components = wcc(graph)
    top = int(np.argmax(scores))
    print(f"pagerank: top vertex {top} (score {scores[top]:.5f}), "
          f"{len(set(components.tolist()))} component(s)")

    # ------------------------------------------------------------------
    # 3. Subgraph search on the think-like-a-task engine:
    #    maximal cliques with task splitting + work stealing.
    # ------------------------------------------------------------------
    engine = TaskEngine(
        graph, MaximalCliqueProgram(min_size=4), num_workers=8,
        task_budget=200,
    )
    cliques = engine.run()
    print(f"maximal cliques (>=4): {len(cliques)}; "
          f"workers balanced to {engine.stats.balance:.2f}x ideal, "
          f"{engine.stats.steals} steals")

    # ------------------------------------------------------------------
    # 4. Compiled pattern counting (the AutoMine approach).
    # ------------------------------------------------------------------
    planner = Planner(GraphStats.of(graph))
    plan = planner.plan(triangle_pattern())
    counter = compile_matcher(triangle_pattern(), order=plan.order)
    print(f"triangles (compiled matcher): {counter(graph)}")
    k4 = compile_matcher(clique_pattern(4))
    print(f"4-cliques (compiled matcher): {k4(graph)}")

    # ------------------------------------------------------------------
    # 5. A GNN on a graph with planted communities.
    # ------------------------------------------------------------------
    g2, labels = planted_partition(3, 40, p_in=0.12, p_out=0.008, seed=7)
    rng = np.random.default_rng(0)
    features = np.eye(3)[labels] + rng.normal(0, 1.0, size=(g2.num_vertices, 3))
    train_mask = np.zeros(g2.num_vertices, dtype=bool)
    train_mask[rng.permutation(g2.num_vertices)[:60]] = True
    model = NodeClassifier(3, 16, 3, layer="gcn", seed=0)
    report = train_full_graph(
        model, g2, features=features, labels=labels,
        train_mask=train_mask, val_mask=~train_mask,
        epochs=30, lr=0.05,
    )
    print(f"GCN on planted communities: val accuracy "
          f"{report.final_val_accuracy:.3f} "
          f"(loss {report.losses[0]:.3f} -> {report.losses[-1]:.3f})")


if __name__ == "__main__":
    main()
