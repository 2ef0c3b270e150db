"""Unit and property tests for the CSR graph store."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import Graph, GraphBuilder
from repro.graph.generators import random_labeled_graph
from repro.graph.store.handle import InMemoryGraph

edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
    min_size=0,
    max_size=60,
)


class TestGraphBuilder:
    def test_empty_graph(self):
        g = GraphBuilder().build(num_vertices=5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert all(g.degree(v) == 0 for v in g.vertices())

    def test_single_edge_undirected_symmetric(self):
        g = Graph.from_edges([(0, 1)])
        assert g.num_edges == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_self_loops_dropped_by_default(self):
        g = Graph.from_edges([(0, 0), (0, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_dropped_self_loop_does_not_grow_inferred_n(self):
        b = GraphBuilder()
        b.add_edge(0, 1)
        b.add_edge(7, 7)
        assert b.build().num_vertices == 2
        assert b.build(num_vertices=3).num_vertices == 3  # no "vertex 7" error
        assert Graph.from_edges([(0, 1), (5, 5)]).num_vertices == 2

    def test_first_label_wins_on_duplicates(self):
        for directed in (False, True):
            b = GraphBuilder(directed=directed)
            b.add_edge(0, 1, label=4)
            b.add_edge(1, 0, label=5)
            b.add_edge(0, 1, label=6)
            b.add_edge(2, 1, label=0)
            b.add_edge(1, 2, label=8)
            g = b.build()
            assert g.edge_label(0, 1) == 4
            if directed:
                assert g.edge_label(1, 0) == 5
                assert g.edge_label(2, 1) == 0 and g.edge_label(1, 2) == 8
            else:
                assert g.edge_label(1, 0) == 4  # the reversed duplicate lost
                assert g.edge_label(1, 2) == g.edge_label(2, 1) == 0

    def test_all_zero_kept_labels_are_no_labels(self):
        b = GraphBuilder()
        b.add_edge(0, 1, label=0)
        b.add_edge(1, 0, label=3)  # a duplicate: its label is dropped
        assert b.build().edge_labels is None

    def test_duplicate_edges_deduplicated(self):
        g = Graph.from_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_isolated_vertex_via_add_vertex(self):
        b = GraphBuilder()
        b.add_edge(0, 1)
        b.add_vertex(4)
        g = b.build()
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_num_vertices_too_small_raises(self):
        b = GraphBuilder()
        b.add_edge(0, 5)
        with pytest.raises(ValueError):
            b.build(num_vertices=3)

    def test_negative_vertex_rejected(self):
        b = GraphBuilder()
        with pytest.raises(ValueError):
            b.add_edge(-1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            Graph.from_edges([(0, 1), (2, -3)])
        with pytest.raises(ValueError, match="non-negative"):
            Graph.from_edges(np.array([[-1, -1]]))  # a self-loop, still rejected

    def test_from_edges_accepts_an_array(self):
        pairs = np.array([[2, 0], [0, 1], [1, 1], [0, 2]])
        want = Graph.from_edges([(2, 0), (0, 1), (1, 1), (0, 2)])
        assert Graph.from_edges(pairs) == want
        assert Graph.from_edges(pairs.astype(np.int32)) == want
        assert Graph.from_edges(np.empty((0, 2), dtype=np.int64)).num_vertices == 0
        with pytest.raises(ValueError, match="pairs"):
            Graph.from_edges([(0, 1, 2)])

    def test_directed_edges_one_way(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.num_edges == 1

    def test_edge_labels_round_trip(self):
        b = GraphBuilder()
        b.add_edge(0, 1, label=7)
        b.add_edge(1, 2, label=3)
        g = b.build()
        assert g.edge_label(0, 1) == 7
        assert g.edge_label(1, 0) == 7  # symmetric copy
        assert g.edge_label(2, 1) == 3

    def test_edge_label_missing_edge_raises(self):
        b = GraphBuilder()
        b.add_edge(0, 1, label=7)
        g = b.build()
        with pytest.raises(KeyError):
            g.edge_label(0, 2)

    def test_vertex_labels(self):
        g = Graph.from_edges([(0, 1), (1, 2)], vertex_labels=[5, 6, 7])
        assert [g.vertex_label(v) for v in g.vertices()] == [5, 6, 7]

    def test_unlabeled_vertex_label_is_zero(self):
        g = Graph.from_edges([(0, 1)])
        assert g.vertex_label(0) == 0


class TestGraphAccessors:
    def test_neighbors_sorted(self, small_ba):
        for v in small_ba.vertices():
            nbrs = small_ba.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_degrees_match_neighbors(self, small_ba):
        degs = small_ba.degrees()
        for v in small_ba.vertices():
            assert degs[v] == small_ba.neighbors(v).size

    def test_edges_iterates_each_once(self, small_er):
        edges = list(small_er.edges())
        assert len(edges) == small_er.num_edges
        assert len(set(edges)) == len(edges)
        assert all(u < v for u, v in edges)

    def test_has_edge_agrees_with_edges(self, small_er):
        edges = set(small_er.edges())
        for u in small_er.vertices():
            for v in small_er.vertices():
                expected = (min(u, v), max(u, v)) in edges and u != v
                assert small_er.has_edge(u, v) == expected

    def test_equality_and_inequality(self):
        g1 = Graph.from_edges([(0, 1), (1, 2)])
        g2 = Graph.from_edges([(1, 2), (0, 1)])
        g3 = Graph.from_edges([(0, 1), (0, 2)])
        assert g1 == g2
        assert g1 != g3


class TestDerivedGraphs:
    def test_subgraph_preserves_internal_edges(self, small_er):
        keep = [0, 1, 2, 3, 4, 5, 6, 7]
        sub, old_ids = small_er.subgraph(keep)
        assert sub.num_vertices == len(keep)
        for i in range(sub.num_vertices):
            for j in range(i + 1, sub.num_vertices):
                assert sub.has_edge(i, j) == small_er.has_edge(
                    int(old_ids[i]), int(old_ids[j])
                )

    def test_subgraph_carries_labels(self):
        g = Graph.from_edges([(0, 1), (1, 2)], vertex_labels=[4, 5, 6])
        sub, old_ids = g.subgraph([1, 2])
        assert [sub.vertex_label(v) for v in sub.vertices()] == [5, 6]

    def test_orient_by_degree_halves_edges(self, small_ba):
        oriented = small_ba.orient_by_degree()
        assert oriented.directed
        assert oriented.num_edges == small_ba.num_edges

    def test_orient_by_degree_acyclic_ordering(self, small_ba):
        # Orientation follows a total order, so no 2-cycles.
        oriented = small_ba.orient_by_degree()
        for u, v in oriented.edges():
            assert not oriented.has_edge(v, u)

    def test_orient_rejects_directed(self):
        g = Graph.from_edges([(0, 1)], directed=True)
        with pytest.raises(ValueError):
            g.orient_by_degree()

    def test_orient_by_degree_is_cached(self, small_ba):
        assert small_ba.orient_by_degree() is small_ba.orient_by_degree()


class TestDerivedCaches:
    def test_edge_index_is_built_once(self, small_ba):
        index = small_ba.edge_index()
        assert small_ba.edge_index() is index
        n = small_ba.num_vertices
        src = np.repeat(np.arange(n), small_ba.degrees())
        assert np.array_equal(index.codes, src * n + small_ba.indices)

    def test_pickle_carries_only_the_defining_fields(self):
        g = random_labeled_graph(
            300, 0.03, num_vertex_labels=3, num_edge_labels=2, seed=1
        )
        before = pickle.dumps(g)
        InMemoryGraph(g).edge_slots(np.array([0, 1]), np.array([1, 2]))
        g.orient_by_degree()
        assert pickle.dumps(g) == before
        back = pickle.loads(before)
        assert back == g and back.edge_labels is not None
        assert back.orient_by_degree() == g.orient_by_degree()


class TestCSRInvariants:
    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_edges(self, edges):
        g = Graph.from_edges(edges)
        expected = {
            (min(u, v), max(u, v)) for u, v in edges if u != v
        }
        assert set(g.edges()) == expected

    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_indptr_well_formed(self, edges):
        g = Graph.from_edges(edges)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.indices.size
        assert np.all(np.diff(g.indptr) >= 0)

    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_degree_sum_is_twice_edges(self, edges):
        g = Graph.from_edges(edges)
        assert int(g.degrees().sum()) == 2 * g.num_edges

    @given(edge_lists)
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, edges):
        g = Graph.from_edges(edges)
        for u, v in g.edges():
            assert g.has_edge(v, u)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 2, 1]), np.array([1, 0]))

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Graph(np.array([1, 2]), np.array([0, 1]))

    def test_mismatched_vertex_labels_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 1)], vertex_labels=[1, 2, 3])
