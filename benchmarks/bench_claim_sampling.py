"""C7 — neighborhood sampling bounds per-step data volume.

Paper claim (Section 3): neighborhood sampling "limits the number of
neighbors of each node used for training" and is the workhorse of the
industrial systems (Euler, AliGraph, ByteGNN) because full-graph
training touches every vertex every step.

Reproduced shape: per-step gathered-feature volume grows with fanout
and is bounded far below the full graph; accuracy approaches the
full-graph ceiling as fanout rises.
"""

import numpy as np
import pytest

from _harness import report
from repro.gnn.models import NodeClassifier
from repro.gnn.train import train_full_graph, train_sampled
from repro.graph.generators import planted_partition


def _run():
    g, labels = planted_partition(4, 40, p_in=0.12, p_out=0.008, seed=5)
    n = g.num_vertices
    rng = np.random.default_rng(0)
    features = np.eye(4)[labels] + rng.normal(0, 1.2, size=(n, 4))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[: n // 2]] = True
    val_mask = ~train_mask

    rows = []
    full = train_full_graph(
        NodeClassifier(4, 16, 4, layer="sage", seed=0), g,
        features=features, labels=labels, train_mask=train_mask,
        val_mask=val_mask, epochs=10, lr=0.05,
    )
    rows.append(
        ["full-graph", "-", round(full.gathered_features / full.steps, 1),
         round(full.final_val_accuracy, 3)]
    )
    for fanout in (2, 5, 10):
        rep = train_sampled(
            NodeClassifier(4, 16, 4, layer="sage", seed=0), g,
            features=features, labels=labels, train_mask=train_mask,
            val_mask=val_mask, epochs=10, batch_size=20,
            fanouts=(fanout, fanout), lr=0.05, seed=1,
        )
        rows.append(
            [f"sampled fanout={fanout}", f"({fanout},{fanout})",
             round(rep.gathered_features / rep.steps, 1),
             round(rep.final_val_accuracy, 3)]
        )
    return rows, n


def test_claim_c7_sampling(benchmark):
    rows, n = benchmark.pedantic(_run, rounds=1, iterations=1)
    report(
        "C7",
        f"Sampling vs full-graph (|V|={n})",
        ["regime", "fanouts", "gathered rows / step", "val accuracy"],
        rows,
    )
    full_gather = rows[0][2]
    sampled_gathers = [row[2] for row in rows[1:]]
    assert all(gather < full_gather for gather in sampled_gathers)
    assert sampled_gathers == sorted(sampled_gathers)  # grows with fanout
    # Largest fanout should approach full-graph accuracy.
    assert rows[-1][3] >= rows[0][3] - 0.15
