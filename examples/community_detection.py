"""Community detection: the tutorial's vertex-analytics showcases.

Compares four ways to recover planted communities — the "Vertex
Analytics (+ ML)" paths of Figure 1:

1. label propagation (pure TLAV vertex analytics);
2. DeepWalk embeddings + logistic regression;
3. classic topology features + logistic regression
   (Stolman et al. [35]: structural features are competitive);
4. a 2-layer GCN on noisy features.

Run with::

    python examples/community_detection.py
"""

import numpy as np

from repro.core.features import (
    deepwalk_embeddings,
    logistic_regression,
    topology_features,
)
from repro.gnn.models import NodeClassifier
from repro.gnn.train import train_full_graph
from repro.graph.generators import planted_partition
from repro.tlav import label_propagation


def cluster_accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Best-case label-matching accuracy (greedy label alignment)."""
    predicted = np.asarray(predicted)
    accuracy = 0
    for cluster in set(predicted.tolist()):
        members = predicted == cluster
        if members.any():
            best = np.bincount(truth[members]).argmax()
            accuracy += int((truth[members] == best).sum())
    return accuracy / len(truth)


def main() -> None:
    graph, truth = planted_partition(4, 40, p_in=0.15, p_out=0.006, seed=21)
    n = graph.num_vertices
    rng = np.random.default_rng(1)
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[: n // 3]] = True
    print(f"graph: {graph}; 4 planted communities of 40\n")

    # 1. Pure analytics: label propagation needs no supervision.
    lp = label_propagation(graph, iterations=12)
    print(f"label propagation      accuracy {cluster_accuracy(lp, truth):.3f} "
          f"({len(set(lp.tolist()))} communities found)")

    # 2. DeepWalk + shallow classifier.
    emb = deepwalk_embeddings(graph, dim=32, walk_length=10,
                              walks_per_vertex=6, epochs=2, seed=0)
    model = logistic_regression(emb[train_mask], truth[train_mask], epochs=300)
    acc = float((model.predict(emb[~train_mask]) == truth[~train_mask]).mean())
    print(f"DeepWalk + logistic    accuracy {acc:.3f}")

    # 3. Classic structural features + shallow classifier.
    topo = topology_features(graph)
    model = logistic_regression(topo[train_mask], truth[train_mask], epochs=300)
    acc = float((model.predict(topo[~train_mask]) == truth[~train_mask]).mean())
    print(f"topology features      accuracy {acc:.3f} "
          "(structure alone cannot separate symmetric communities)")

    # 4. GCN on noisy node features.
    features = np.eye(4)[truth] + rng.normal(0, 1.5, size=(n, 4))
    gcn = NodeClassifier(4, 16, 4, layer="gcn", seed=0)
    report = train_full_graph(
        gcn, graph, features=features, labels=truth,
        train_mask=train_mask, val_mask=~train_mask,
        epochs=40, lr=0.05,
    )
    print(f"GCN (noisy features)   accuracy {report.final_val_accuracy:.3f}")


if __name__ == "__main__":
    main()
