"""Single-graph FSM: MNI support semantics, GraMi prunings, T-FSM tasks."""

import numpy as np
import pytest

from repro.fsm.single_graph import (
    SingleGraphFSM,
    mni_support,
    mni_support_parallel,
)
from repro.graph.csr import Graph
from repro.graph.generators import planted_motif_graph, random_labeled_graph
from repro.matching.backtrack import find_matches
from repro.matching.pattern import PatternGraph


def mni_oracle(graph, pattern):
    """MNI by full enumeration: distinct data vertices per position."""
    domains = [set() for _ in range(pattern.n)]
    embeddings = find_matches(graph, pattern)
    # find_matches applies symmetry breaking; for MNI we need all
    # embeddings, so enumerate without restrictions.
    from repro.matching.backtrack import match

    all_embeddings = []
    match(graph, pattern, restrictions=[], on_match=all_embeddings.append)
    for emb in all_embeddings:
        for q, v in enumerate(emb):
            domains[q].add(v)
    return min(len(d) for d in domains) if domains else 0


@pytest.fixture
def labeled_graph():
    return random_labeled_graph(60, 0.1, num_vertex_labels=2, seed=8)


@pytest.fixture
def edge_pattern():
    return PatternGraph(
        Graph.from_edges([(0, 1)], vertex_labels=[0, 1])
    )


@pytest.fixture
def triangle_motif_graph():
    motif = Graph.from_edges([(0, 1), (1, 2), (2, 0)], vertex_labels=[5, 5, 5])
    return (
        planted_motif_graph(
            n=100, p=0.02, motif=motif, copies=7, num_vertex_labels=4, seed=2
        ),
        PatternGraph(motif),
    )


class TestMNISemantics:
    def test_matches_oracle_edge(self, labeled_graph, edge_pattern):
        result = mni_support(
            labeled_graph, edge_pattern, min_support=None, early_stop=False
        )
        assert result.support == mni_oracle(labeled_graph, edge_pattern)

    def test_matches_oracle_triangle(self, triangle_motif_graph):
        graph, pattern = triangle_motif_graph
        result = mni_support(graph, pattern, min_support=None, early_stop=False)
        assert result.support == mni_oracle(graph, pattern)

    def test_planted_copies_lower_bound(self, triangle_motif_graph):
        graph, pattern = triangle_motif_graph
        result = mni_support(graph, pattern, min_support=None, early_stop=False)
        assert result.support >= 7

    def test_absent_pattern_zero(self, labeled_graph):
        pattern = PatternGraph(
            Graph.from_edges([(0, 1)], vertex_labels=[7, 7])  # label 7 absent
        )
        result = mni_support(labeled_graph, pattern)
        assert result.support == 0

    def test_parallel_same_support(self, triangle_motif_graph):
        graph, pattern = triangle_motif_graph
        serial = mni_support(
            graph, pattern, min_support=None, early_stop=False,
            reuse_embeddings=False,
        )
        parallel, makespan = mni_support_parallel(graph, pattern, num_workers=4)
        assert parallel.support == serial.support
        assert 0 < makespan <= parallel.search_ops


class TestPrunings:
    def test_prunings_preserve_decision(self, triangle_motif_graph):
        """All pruning configurations agree on the frequency decision."""
        graph, pattern = triangle_motif_graph
        threshold = 5
        decisions = set()
        for nlf in (False, True):
            for early in (False, True):
                for reuse in (False, True):
                    r = mni_support(
                        graph,
                        pattern,
                        min_support=threshold,
                        prune_nlf=nlf,
                        early_stop=early,
                        reuse_embeddings=reuse,
                    )
                    decisions.add(r.support >= threshold)
        assert decisions == {True}

    def test_prunings_cut_work(self, triangle_motif_graph):
        """The C6 claim: GraMi prunings cut the search drastically."""
        graph, pattern = triangle_motif_graph
        slow = mni_support(
            graph, pattern, min_support=5,
            prune_nlf=False, early_stop=False, reuse_embeddings=False,
        )
        fast = mni_support(graph, pattern, min_support=5)
        assert fast.search_ops < slow.search_ops
        assert fast.existence_checks < slow.existence_checks

    @pytest.mark.parametrize("seed", range(6))
    def test_nlf_pruning_leaves_support_unchanged(self, seed):
        """NLF only drops vertices that host no embedding."""
        rng = np.random.default_rng(seed)
        graph = random_labeled_graph(40, 0.12, num_vertex_labels=2, seed=seed)
        for edges in ([(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 0)],
                      [(0, 1), (1, 2), (2, 0), (2, 3)]):
            labels = rng.integers(0, 2, size=1 + max(map(max, edges)))
            pattern = PatternGraph(
                Graph.from_edges(edges, vertex_labels=labels.tolist())
            )
            pruned, plain = (
                mni_support(graph, pattern, prune_nlf=nlf, early_stop=False)
                for nlf in (True, False)
            )
            assert pruned.support == plain.support
            assert pruned.domains == plain.domains

    def test_early_stop_caps_domain_size(self, triangle_motif_graph):
        graph, pattern = triangle_motif_graph
        result = mni_support(graph, pattern, min_support=3, early_stop=True)
        # Early stop means support is reported as "at least threshold",
        # bounded by the capped domains.
        assert result.support >= 3


class TestSingleGraphFSM:
    def test_planted_motif_is_found(self, triangle_motif_graph):
        graph, pattern = triangle_motif_graph
        miner = SingleGraphFSM(min_support=5, max_edges=3)
        patterns = miner.run(graph)
        found = False
        for p in patterns:
            g = p.to_graph()
            if (
                g.num_vertices == 3
                and g.num_edges == 3
                and all(g.vertex_label(v) == 5 for v in range(3))
            ):
                found = True
        assert found

    def test_all_results_meet_threshold(self, labeled_graph):
        miner = SingleGraphFSM(min_support=8, max_edges=2)
        for p in miner.run(labeled_graph):
            assert p.support >= 8

    def test_results_canonical_unique(self, labeled_graph):
        miner = SingleGraphFSM(min_support=6, max_edges=2)
        patterns = miner.run(labeled_graph)
        codes = [p.code for p in patterns]
        assert len(set(codes)) == len(codes)

    def test_higher_threshold_fewer_patterns(self, labeled_graph):
        lo = SingleGraphFSM(min_support=4, max_edges=2).run(labeled_graph)
        hi = SingleGraphFSM(min_support=12, max_edges=2).run(labeled_graph)
        assert len(hi) <= len(lo)

    def test_supports_anti_monotone_along_growth(self, triangle_motif_graph):
        """A pattern's MNI support never exceeds its sub-pattern's."""
        graph, _ = triangle_motif_graph
        miner = SingleGraphFSM(min_support=3, max_edges=3)
        patterns = miner.run(graph)
        by_code = {p.code: p.support for p in patterns}
        for code, support in by_code.items():
            if len(code) > 1:
                parent = code[:-1]
                if tuple(parent) in {tuple(c) for c in by_code}:
                    parent_support = by_code[
                        next(c for c in by_code if tuple(c) == tuple(parent))
                    ]
                    assert support <= parent_support
