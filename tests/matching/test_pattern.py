"""Pattern graphs, automorphism groups, and symmetry breaking."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import Graph
from repro.graph.generators import erdos_renyi
from repro.matching.backtrack import count_matches, frontier_count, match
from repro.matching.pattern import (
    PatternGraph,
    automorphisms,
    clique_pattern,
    cycle_pattern,
    diamond_pattern,
    house_pattern,
    path_pattern,
    star_pattern,
    symmetry_breaking_restrictions,
    tailed_triangle_pattern,
    triangle_pattern,
)
from tests.conftest import edge_labelled_pattern


KNOWN_AUT_SIZES = [
    (triangle_pattern(), 6),
    (path_pattern(3), 2),
    (path_pattern(4), 2),
    (cycle_pattern(4), 8),
    (cycle_pattern(5), 10),
    (clique_pattern(4), 24),
    (star_pattern(3), 6),
    (diamond_pattern(), 4),
    (tailed_triangle_pattern(), 2),
    (house_pattern(), 2),
]


class TestPatternGraph:
    def test_disconnected_rejected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            PatternGraph(g)

    def test_directed_rejected(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        with pytest.raises(ValueError):
            PatternGraph(g)

    def test_adjacency_sets(self):
        p = triangle_pattern()
        assert p.adj[0] == {1, 2}
        assert p.degree(0) == 2

    def test_labels_default_zero(self):
        p = path_pattern(3)
        assert p.label(1) == 0

    def test_labeled_pattern(self):
        p = PatternGraph.from_edges([(0, 1)], vertex_labels=[3, 4])
        assert p.label(0) == 3 and p.label(1) == 4


class TestAutomorphisms:
    @pytest.mark.parametrize("pattern,size", KNOWN_AUT_SIZES)
    def test_known_group_sizes(self, pattern, size):
        assert len(automorphisms(pattern)) == size

    def test_identity_always_present(self):
        for pattern, _ in KNOWN_AUT_SIZES:
            assert tuple(range(pattern.n)) in automorphisms(pattern)

    def test_automorphisms_are_isomorphisms(self):
        p = diamond_pattern()
        for perm in automorphisms(p):
            for u in range(p.n):
                for v in p.adj[u]:
                    assert perm[v] in p.adj[perm[u]]

    def test_labels_restrict_group(self):
        # A labeled triangle with distinct labels has only the identity.
        p = PatternGraph.from_edges(
            [(0, 1), (1, 2), (0, 2)], vertex_labels=[1, 2, 3]
        )
        assert automorphisms(p) == [(0, 1, 2)]

    def test_edge_labels_restrict_group(self, rainbow_triangle):
        assert automorphisms(rainbow_triangle) == [(0, 1, 2)]
        # Two equal labels keep the one swap that maps them onto each other.
        isosceles = edge_labelled_pattern([(0, 1, 0), (1, 2, 0), (0, 2, 1)])
        assert automorphisms(isosceles) == [(0, 1, 2), (2, 1, 0)]


class TestEdgeLabelledCounts:
    """Distinct counts of edge-labelled patterns, every engine."""

    def _counts(self, graph, pattern):
        return (
            match(graph, pattern),
            frontier_count(graph, pattern),
            count_matches(graph, pattern),
        )

    def test_rainbow_triangle(self, edge_labelled_er, rainbow_triangle):
        assert self._counts(edge_labelled_er, rainbow_triangle) == (56, 56, 56)

    def test_two_label_path(self, edge_labelled_er):
        path = edge_labelled_pattern([(0, 1, 0), (1, 2, 1)])
        assert self._counts(edge_labelled_er, path) == (594, 594, 594)

    def test_distinct_times_automorphisms(self, edge_labelled_er, rainbow_triangle):
        isosceles = edge_labelled_pattern([(0, 1, 0), (1, 2, 0), (0, 2, 1)])
        for pattern in (rainbow_triangle, isosceles):
            distinct = match(edge_labelled_er, pattern)
            assert distinct * len(automorphisms(pattern)) == match(
                edge_labelled_er, pattern, restrictions=[]
            )


class TestSymmetryBreaking:
    @pytest.mark.parametrize("pattern,aut_size", KNOWN_AUT_SIZES)
    def test_defining_property(self, pattern, aut_size):
        """#embeddings without restrictions == aut_size * #with restrictions."""
        g = erdos_renyi(25, 0.3, seed=11)
        with_r = count_matches(g, pattern, distinct=True)
        without_r = count_matches(g, pattern, distinct=False)
        assert without_r == aut_size * with_r

    def test_restrictions_reference_pattern_vertices(self):
        for pattern, _ in KNOWN_AUT_SIZES:
            for u, v in symmetry_breaking_restrictions(pattern):
                assert 0 <= u < pattern.n
                assert 0 <= v < pattern.n
                assert u != v

    def test_asymmetric_pattern_no_restrictions(self):
        # Tailed triangle has |Aut| = 2, so at least one restriction;
        # a fully asymmetric pattern has none.
        p = PatternGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        )
        if len(automorphisms(p)) == 1:
            assert symmetry_breaking_restrictions(p) == []

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_property_on_random_patterns(self, seed):
        """The defining property holds for random connected patterns."""
        base = erdos_renyi(5, 0.6, seed=seed)
        try:
            pattern = PatternGraph(base)
        except ValueError:
            return  # disconnected draw
        g = erdos_renyi(18, 0.35, seed=seed + 1)
        aut = len(automorphisms(pattern))
        with_r = count_matches(g, pattern, distinct=True)
        without_r = count_matches(g, pattern, distinct=False)
        assert without_r == aut * with_r
