"""The generic backtracking matcher vs networkx ISMAGS oracles."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import Graph, GraphBuilder
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    random_labeled_graph,
)
from repro.matching.backtrack import (
    MatchStats,
    count_matches,
    find_matches,
    frontier_count,
    match,
)
from repro.matching.filtering import filtered_match
from repro.matching.pattern import (
    PatternGraph,
    clique_pattern,
    cycle_pattern,
    diamond_pattern,
    path_pattern,
    star_pattern,
    triangle_pattern,
)
from tests.conftest import to_networkx


def oracle_subgraph_count(graph, pattern):
    """Distinct (non-induced) pattern instances via networkx.

    The systems surveyed count *monomorphisms* (subgraph instances where
    extra edges among matched vertices are allowed), so the oracle
    counts monomorphisms and divides by the automorphism-group size.
    """
    from repro.matching.pattern import automorphisms

    G = to_networkx(graph)
    P = nx.Graph()
    for v in range(pattern.n):
        P.add_node(v)
    for u in range(pattern.n):
        for v in pattern.adj[u]:
            if u < v:
                P.add_edge(u, v)
    matcher = nx.isomorphism.GraphMatcher(G, P)
    monomorphisms = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
    return monomorphisms // len(automorphisms(pattern))


ORACLE_PATTERNS = [
    triangle_pattern(),
    path_pattern(3),
    path_pattern(4),
    cycle_pattern(4),
    clique_pattern(4),
    star_pattern(3),
    diamond_pattern(),
]


class TestAgainstOracle:
    @pytest.mark.parametrize("pattern", ORACLE_PATTERNS)
    def test_counts_match_ismags(self, pattern, small_er):
        ours = count_matches(small_er, pattern)
        theirs = oracle_subgraph_count(small_er, pattern)
        assert ours == theirs

    @given(st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_triangles_on_random_graphs(self, seed):
        g = erdos_renyi(20, 0.35, seed=seed)
        assert count_matches(g, triangle_pattern()) == oracle_subgraph_count(
            g, triangle_pattern()
        )


class TestOrders:
    def test_all_connected_orders_same_count(self, small_er):
        from repro.matching.plan import connected_orders

        pattern = diamond_pattern()
        counts = {
            count_matches(small_er, pattern, order=o)
            for o in connected_orders(pattern)
        }
        assert len(counts) == 1

    def test_invalid_order_not_permutation(self, small_er):
        with pytest.raises(ValueError):
            match(small_er, triangle_pattern(), order=[0, 0, 1])

    def test_disconnected_order_rejected(self, small_er):
        p = path_pattern(4)
        with pytest.raises(ValueError):
            match(small_er, p, order=[0, 3, 1, 2])


class TestEmbeddings:
    def test_embeddings_are_valid(self, small_er):
        pattern = triangle_pattern()
        for emb in find_matches(small_er, pattern):
            a, b, c = emb
            assert small_er.has_edge(a, b)
            assert small_er.has_edge(b, c)
            assert small_er.has_edge(a, c)
            assert len(set(emb)) == 3

    def test_embeddings_distinct(self, small_er):
        embs = find_matches(small_er, triangle_pattern())
        assert len({tuple(sorted(e)) for e in embs}) == len(embs)

    def test_limit_caps_results(self, small_er):
        embs = find_matches(small_er, triangle_pattern(), limit=2)
        assert len(embs) == 2

    def test_on_match_receives_pattern_order(self, small_er):
        # The callback's tuple is indexed by pattern vertex, not by step.
        pattern = path_pattern(3)
        seen = []
        match(
            small_er,
            pattern,
            order=[1, 0, 2],
            on_match=seen.append,
            restrictions=[],
        )
        for emb in seen[:20]:
            assert small_er.has_edge(emb[0], emb[1])
            assert small_er.has_edge(emb[1], emb[2])


class TestAnchors:
    def test_anchor_partitions_the_count(self, small_er):
        pattern = triangle_pattern()
        total = count_matches(small_er, pattern)
        by_anchor = sum(
            match(small_er, pattern, anchor=(0, v))
            for v in small_er.vertices()
        )
        assert by_anchor == total

    def test_anchor_must_pin_first_vertex(self, small_er):
        with pytest.raises(ValueError):
            match(
                small_er,
                triangle_pattern(),
                order=[0, 1, 2],
                anchor=(1, 0),
            )


class TestLabels:
    def test_vertex_labels_filter(self):
        g = random_labeled_graph(30, 0.3, num_vertex_labels=2, seed=0)
        pattern = PatternGraph.from_edges([(0, 1)], vertex_labels=[0, 1])
        count = 0
        for u, v in g.edges():
            lu, lv = g.vertex_label(u), g.vertex_label(v)
            if {lu, lv} == {0, 1}:
                count += 1
        assert count_matches(g, pattern) == count

    def test_edge_labels_filter(self):
        b = GraphBuilder()
        b.add_edge(0, 1, label=1)
        b.add_edge(1, 2, label=2)
        g = b.build(num_vertices=3, vertex_labels=[0, 0, 0])
        pb = GraphBuilder()
        pb.add_edge(0, 1, label=1)
        pattern = PatternGraph(pb.build(num_vertices=2, vertex_labels=[0, 0]))
        # Only the label-1 edge matches; with empty restrictions both
        # orientations count.
        assert match(g, pattern, restrictions=[]) == 2


class TestStats:
    def test_stats_populated(self, small_er):
        stats = MatchStats()
        match(small_er, triangle_pattern(), stats=stats)
        assert stats.embeddings > 0
        assert stats.candidates_scanned > 0
        assert stats.nodes_visited >= stats.embeddings

    @pytest.mark.parametrize("count", [
        lambda g, p, s: match(g, p, stats=s),
        lambda g, p, s: frontier_count(g, p, stats=s),
        lambda g, p, s: count_matches(g, p, stats=s),
        lambda g, p, s: filtered_match(g, p, stats=s)[0],
    ], ids=["match", "frontier_count", "count_matches", "filtered_match"])
    def test_reused_stats_return_this_calls_count(self, count):
        graph, stats = erdos_renyi(30, 0.3, seed=0), MatchStats()
        assert count(graph, triangle_pattern(), stats) == 105
        assert count(graph, triangle_pattern(), stats) == 105
        assert stats.embeddings == 210

    def test_empty_graph_zero_matches(self):
        g = Graph.from_edges([], num_vertices=5)
        assert count_matches(g, triangle_pattern()) == 0

    def test_pattern_larger_than_graph(self):
        g = complete_graph(3)
        assert count_matches(g, clique_pattern(4)) == 0
