"""Training traces of every layer kind, at fixed seeds.

``compute()`` trains one model per layer kind with ``train_full_graph``
and one with ``train_sampled`` and returns plain JSON data: the loss
and accuracy traces (JSON floats round-trip exactly) and a SHA-256 of
the final parameters' bytes.  ``training_golden.json`` beside this file
is that output **captured before the aggregation primitives moved from
``np.add.at`` to per-column ``np.bincount`` and the tape began to skip
constant operands**; ``test_training_golden.py`` compares the two
exactly, so a kernel rewrite that changes one bit of one gradient
cannot land unnoticed.

Re-capture (only when training is *meant* to move)::

    PYTHONPATH=src python -m tests.gnn.training_golden > tests/gnn/training_golden.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Dict

import numpy as np

from repro.gnn.models import NodeClassifier
from repro.gnn.train import TrainReport, train_full_graph, train_sampled
from repro.graph.generators import planted_partition

LAYER_KINDS = ("gcn", "sage", "sage-pool", "gat", "gin")


def _row(model: NodeClassifier, report: TrainReport) -> Dict[str, Any]:
    digest = hashlib.sha256()
    for p in model.parameters():
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return {
        "losses": report.losses,
        "train_accuracy": report.train_accuracy,
        "val_accuracy": report.val_accuracy,
        "steps": report.steps,
        "gathered_features": report.gathered_features,
        "params_sha256": digest.hexdigest(),
    }


def compute() -> Dict[str, Any]:
    graph, labels = planted_partition(4, 20, p_in=0.25, p_out=0.03, seed=3)
    n = graph.num_vertices
    rng = np.random.default_rng(11)
    features = np.eye(8)[labels] + rng.normal(0.0, 0.8, size=(n, 8))
    train_mask = rng.random(n) < 0.5
    data = {"labels": labels, "train_mask": train_mask,
            "val_mask": ~train_mask, "features": features}
    out: Dict[str, Any] = {}
    for kind in LAYER_KINDS:
        model = NodeClassifier(8, 16, 4, layer=kind, seed=5)
        report = train_full_graph(model, graph, epochs=6, lr=0.05, **data)
        out[f"full-{kind}"] = _row(model, report)
        model = NodeClassifier(8, 16, 4, layer=kind, seed=5)
        report = train_sampled(
            model, graph, epochs=2, batch_size=16, fanouts=(3, 3), lr=0.05,
            seed=7, **data,
        )
        out[f"sampled-{kind}"] = _row(model, report)
    return out


if __name__ == "__main__":
    json.dump(compute(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
