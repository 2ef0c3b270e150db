"""Structural pattern features for graph classification.

The tutorial's motivation for combining the two trends: frequent
subgraph patterns are informative features for conventional graph
classification/regression models (gBoost [31], Pan & Zhu [28]), and
classic structural features can outperform neural embeddings [35].

:func:`pattern_feature_matrix` turns a transaction database into a
binary (or count) feature matrix over mined frequent patterns — the
"Structure Analytics + ML" path of Figure 1 — evaluated by bench C14
against a degree-histogram baseline with the shallow classifier of
:mod:`repro.core.features`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..fsm.gspan import FrequentPattern, GSpan
from ..graph.csr import Graph
from ..graph.transactions import TransactionDatabase
from ..matching.backtrack import find_matches, match
from ..matching.pattern import PatternGraph

__all__ = [
    "pattern_feature_matrix",
    "degree_histogram_features",
    "contains_pattern",
]


def contains_pattern(graph: Graph, pattern: PatternGraph) -> bool:
    """Does ``graph`` contain at least one embedding of ``pattern``?"""
    return bool(find_matches(graph, pattern, limit=1))


def pattern_feature_matrix(
    db: TransactionDatabase,
    min_support: int,
    max_edges: int = 3,
    min_edges: int = 1,
    max_patterns: Optional[int] = None,
    counts: bool = False,
) -> Tuple[np.ndarray, List[FrequentPattern]]:
    """Mine frequent patterns and featurize each transaction by them.

    Returns ``(X, patterns)``: ``X[t, p]`` is 1 (or the embedding count
    with ``counts=True``) when transaction ``t`` contains pattern ``p``.
    Patterns are ordered by descending discriminative potential proxy
    (support closest to half the database), then truncated to
    ``max_patterns``.
    """
    miner = GSpan(min_support=min_support, max_edges=max_edges, min_edges=min_edges)
    patterns = miner.run(db)
    half = len(db) / 2.0
    patterns.sort(key=lambda p: (abs(p.support - half), -p.num_edges))
    if max_patterns is not None:
        patterns = patterns[:max_patterns]
    x = np.zeros((len(db), len(patterns)))
    pattern_graphs = [PatternGraph(p.to_graph()) for p in patterns]
    for t_index, transaction in enumerate(db):
        for p_index, (record, pg) in enumerate(zip(patterns, pattern_graphs)):
            if transaction.graph_id in record.graph_ids:
                if counts:
                    x[t_index, p_index] = match(
                        transaction.graph, pg, restrictions=None
                    )
                else:
                    x[t_index, p_index] = 1.0
    return x, patterns


def degree_histogram_features(
    db: TransactionDatabase, max_degree: int = 8
) -> np.ndarray:
    """Baseline featurization: per-graph degree histogram + label counts."""
    label_values = sorted(
        {t.graph.vertex_label(v) for t in db for v in t.graph.vertices()}
    )
    label_index = {lbl: i for i, lbl in enumerate(label_values)}
    x = np.zeros((len(db), max_degree + 1 + len(label_values)))
    for t_index, transaction in enumerate(db):
        g = transaction.graph
        for v in g.vertices():
            d = min(g.degree(v), max_degree)
            x[t_index, d] += 1
            x[t_index, max_degree + 1 + label_index[g.vertex_label(v)]] += 1
    return x
