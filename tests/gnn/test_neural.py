"""Neural subgraph matching/counting and Subgraph-GNN expressiveness."""

import numpy as np
import pytest

from repro.graph.csr import Graph
from repro.graph.generators import erdos_renyi
from repro.gnn.activation_compression import (
    activation_memory,
    train_compressed,
)
from repro.gnn.models import NodeClassifier
from repro.gnn.neural_matching import (
    NeuralMatcher,
    contains_exact,
    make_training_pairs,
)
from repro.gnn.subgraph_gnn import (
    PlainGraphGNN,
    SubgraphGNN,
    evaluate,
    train_graph_classifier,
    wl_colors,
    wl_indistinguishable,
)
from repro.gnn.train import train_full_graph
from repro.graph.generators import planted_partition
from repro.matching.pattern import PatternGraph, triangle_pattern


@pytest.fixture(scope="module")
def trained_matcher():
    pairs = make_training_pairs(24, target_size=12, pattern_size=4, seed=3)
    matcher = NeuralMatcher(dim=12, hidden=16, seed=0)
    losses = matcher.fit(pairs, epochs=15, lr=0.02)
    return matcher, pairs, losses


class TestTrainingPairs:
    def test_labels_are_exact(self):
        pairs = make_training_pairs(10, seed=1)
        for pattern, target, label in pairs:
            truth = contains_exact(target, PatternGraph(pattern))
            assert truth == bool(label)

    def test_both_classes_present(self):
        pairs = make_training_pairs(10, seed=2)
        labels = {label for *_, label in pairs}
        assert labels == {0, 1}


class TestNeuralMatcher:
    def test_loss_decreases(self, trained_matcher):
        _, _, losses = trained_matcher
        assert losses[-1] < losses[0]

    def test_training_accuracy(self, trained_matcher):
        """The [61] claim shape: order embeddings learn containment."""
        matcher, pairs, _ = trained_matcher
        correct = sum(
            1
            for pattern, target, label in pairs
            if matcher.predict_contains(pattern, target) == bool(label)
        )
        assert correct / len(pairs) >= 0.75

    def test_generalizes_to_fresh_pairs(self, trained_matcher):
        matcher, _, _ = trained_matcher
        fresh = make_training_pairs(16, target_size=12, pattern_size=4, seed=77)
        correct = sum(
            1
            for pattern, target, label in fresh
            if matcher.predict_contains(pattern, target) == bool(label)
        )
        assert correct / len(fresh) >= 0.6  # above chance, far from exact

    def test_violation_nonnegative(self, trained_matcher):
        matcher, pairs, _ = trained_matcher
        for pattern, target, _ in pairs[:5]:
            assert matcher.violation(pattern, target) >= 0.0

    def test_count_regressor_correlates(self, trained_matcher):
        """The [40] claim shape: embeddings predict match counts."""
        matcher, _, _ = trained_matcher
        graphs = [erdos_renyi(14, p, seed=s) for s in range(12)
                  for p in (0.1, 0.3, 0.5)]
        pattern = triangle_pattern()
        matcher.fit_count(graphs, pattern)
        from repro.matching.backtrack import count_matches

        truth = np.array([count_matches(g, pattern) for g in graphs], float)
        approx = np.array([matcher.count_estimate(g) for g in graphs])
        corr = np.corrcoef(truth, approx)[0, 1]
        assert corr > 0.8

    def test_count_before_fit_raises(self):
        matcher = NeuralMatcher(seed=1)
        with pytest.raises(RuntimeError):
            matcher.count_estimate(erdos_renyi(8, 0.3, seed=0))


@pytest.fixture(scope="module")
def wl_counterexample():
    c6 = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph.from_edges(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    return c6, two_triangles


class TestExpressiveness:
    def test_counterexample_is_wl_indistinguishable(self, wl_counterexample):
        c6, two_triangles = wl_counterexample
        assert wl_indistinguishable(c6, two_triangles)

    def test_wl_distinguishes_easy_pair(self):
        path = Graph.from_edges([(0, 1), (1, 2)])
        star = Graph.from_edges([(0, 1), (0, 2)])
        # Same degree multiset {1,1,2}? path: 1,2,1; star: 2,1,1 — same!
        # One WL round separates them anyway? They are isomorphic, so no.
        assert wl_indistinguishable(path, star)  # isomorphic graphs

        square = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        triangle_plus = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert wl_colors(square) != wl_colors(triangle_plus)

    def test_plain_gcn_cannot_separate(self, wl_counterexample):
        """1-WL bound, demonstrated: logits are bit-identical."""
        c6, two_triangles = wl_counterexample
        model = PlainGraphGNN(seed=0)
        from repro.gnn.tensor import no_grad

        with no_grad():
            a = model.logits(c6).data
            b = model.logits(two_triangles).data
        assert np.allclose(a, b)
        train_graph_classifier(model, [c6, two_triangles], [0, 1],
                               epochs=60, lr=0.05)
        assert evaluate(model, [c6, two_triangles], [0, 1]) == 0.5

    def test_subgraph_gnn_separates(self, wl_counterexample):
        """The [5, 12] claim: subgraph bags exceed 1-WL."""
        c6, two_triangles = wl_counterexample
        model = SubgraphGNN(seed=0)
        train_graph_classifier(model, [c6, two_triangles], [0, 1],
                               epochs=150, lr=0.05)
        assert evaluate(model, [c6, two_triangles], [0, 1]) == 1.0


class TestActivationCompression:
    @pytest.fixture(scope="class")
    def task(self):
        g, labels = planted_partition(3, 20, 0.2, 0.01, seed=4)
        n = g.num_vertices
        rng = np.random.default_rng(0)
        features = np.eye(3)[labels] + rng.normal(0, 1.2, size=(n, 3))
        train_mask = np.zeros(n, dtype=bool)
        train_mask[rng.permutation(n)[:30]] = True
        return g, labels, features, train_mask, ~train_mask

    def test_exact_recompute_matches_plain_training(self, task):
        g, labels, features, train_mask, val_mask = task
        ref = train_full_graph(
            NodeClassifier(3, 8, 3, seed=0), g, features=features, labels=labels,
            train_mask=train_mask, val_mask=val_mask, epochs=6, lr=0.05,
        )
        out = train_compressed(
            NodeClassifier(3, 8, 3, seed=0), g, features, labels,
            train_mask, val_mask, bits=None, epochs=6, lr=0.05,
        )
        assert out.report.losses == ref.losses
        assert out.memory_ratio == 1.0

    def test_low_bit_saves_memory(self, task):
        """The EXACT claim: extreme activation compression."""
        g, labels, features, train_mask, val_mask = task
        out = train_compressed(
            NodeClassifier(3, 8, 3, seed=0), g, features, labels,
            train_mask, val_mask, bits=2, epochs=15, lr=0.05,
        )
        assert out.memory_ratio < 0.5
        assert out.activation_bytes_exact == activation_memory(
            g, [3, 8]
        )

    def test_low_bit_still_learns(self, task):
        g, labels, features, train_mask, val_mask = task
        out = train_compressed(
            NodeClassifier(3, 8, 3, seed=0), g, features, labels,
            train_mask, val_mask, bits=2, epochs=25, lr=0.05,
        )
        assert out.report.losses[-1] < out.report.losses[0]
        assert out.report.final_val_accuracy > 0.6

    def test_more_bits_closer_to_exact(self, task):
        g, labels, features, train_mask, val_mask = task
        ref = train_compressed(
            NodeClassifier(3, 8, 3, seed=0), g, features, labels,
            train_mask, val_mask, bits=None, epochs=10, lr=0.05,
        )
        errors = []
        for bits in (2, 8):
            out = train_compressed(
                NodeClassifier(3, 8, 3, seed=0), g, features, labels,
                train_mask, val_mask, bits=bits, epochs=10, lr=0.05,
            )
            errors.append(
                abs(out.report.final_loss - ref.report.final_loss)
            )
        assert errors[1] <= errors[0]
