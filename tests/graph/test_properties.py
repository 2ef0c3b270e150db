"""Structural property computations, cross-checked against networkx."""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph import kernels
from repro.graph.csr import Graph
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    star_graph,
)
from repro.graph.properties import (
    bfs_levels,
    clustering_coefficients,
    connected_components,
    core_numbers,
    num_connected_components,
    triangle_count_per_vertex,
)
from repro.matching import backtrack
from tests.conftest import to_networkx
from tests.matching.test_triangles import CAPS, undirected_graphs


def per_source_triangles(graph):
    """The per-source-vertex loop the wedge kernel replaced (reference)."""
    n = graph.num_vertices
    tri = np.zeros(n, dtype=np.int64)
    oriented = graph.orient_by_degree()
    indptr, indices = oriented.indptr, oriented.indices
    for u in range(n):
        out_u = indices[indptr[u]: indptr[u + 1]]
        if out_u.size < 2:
            continue
        owners, second = kernels.expand_frontier(indptr, indices, out_u)
        closed = kernels.in_sorted(out_u, second)
        if not closed.any():
            continue
        hits = np.flatnonzero(closed)
        tri[u] += hits.size
        np.add.at(tri, out_u[owners[hits]], 1)  # the middle corner v
        np.add.at(tri, second[hits], 1)         # the closing corner w
    return tri


class TestConnectedComponents:
    def test_single_component(self, small_ba):
        assert num_connected_components(small_ba) == 1

    def test_disjoint_components(self):
        g = Graph.from_edges([(0, 1), (2, 3), (4, 5)])
        comp = connected_components(g)
        assert num_connected_components(g) == 3
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]

    def test_labels_are_min_member(self):
        g = Graph.from_edges([(5, 3), (3, 1)], num_vertices=6)
        comp = connected_components(g)
        assert comp[5] == comp[3] == comp[1] == 1

    def test_matches_networkx(self, small_er):
        ours = num_connected_components(small_er)
        theirs = nx.number_connected_components(to_networkx(small_er))
        assert ours == theirs

    def test_isolated_vertices_are_own_components(self):
        g = Graph.from_edges([(0, 1)], num_vertices=4)
        assert num_connected_components(g) == 3


class TestTriangles:
    def test_complete_graph(self):
        tri = triangle_count_per_vertex(complete_graph(5))
        assert np.all(tri == 6)  # C(4,2) triangles through each vertex

    def test_triangle_free(self):
        tri = triangle_count_per_vertex(cycle_graph(8))
        assert np.all(tri == 0)

    def test_matches_networkx(self, small_er):
        ours = triangle_count_per_vertex(small_er)
        theirs = nx.triangles(to_networkx(small_er))
        for v in small_er.vertices():
            assert ours[v] == theirs[v]

    def test_total_is_multiple_of_three(self, small_ws):
        tri = triangle_count_per_vertex(small_ws)
        assert tri.sum() % 3 == 0

    @given(undirected_graphs(), CAPS)
    @settings(max_examples=100, deadline=None)
    def test_equals_per_source_loop(self, graph, cap):
        want = per_source_triangles(graph)
        with mock.patch.object(backtrack, "FRONTIER_SLOT_CAP", cap):
            ours = triangle_count_per_vertex(graph)
        assert ours.dtype == want.dtype == np.int64
        assert ours.tolist() == want.tolist()


class TestClustering:
    def test_complete_graph_coefficient_one(self):
        assert np.allclose(clustering_coefficients(complete_graph(6)), 1.0)

    def test_star_graph_coefficient_zero(self):
        assert np.allclose(clustering_coefficients(star_graph(6)), 0.0)

    def test_matches_networkx(self, small_ws):
        ours = clustering_coefficients(small_ws)
        theirs = nx.clustering(to_networkx(small_ws))
        for v in small_ws.vertices():
            assert ours[v] == pytest.approx(theirs[v])


class TestCoreNumbers:
    def test_complete_graph(self):
        assert np.all(core_numbers(complete_graph(5)) == 4)

    def test_path_graph(self):
        assert np.all(core_numbers(path_graph(6)) == 1)

    def test_matches_networkx(self, small_ba):
        ours = core_numbers(small_ba)
        theirs = nx.core_number(to_networkx(small_ba))
        for v in small_ba.vertices():
            assert ours[v] == theirs[v]


class TestBFS:
    def test_levels_on_path(self):
        levels = bfs_levels(path_graph(5), 0)
        assert levels.tolist() == [0, 1, 2, 3, 4]

    def test_unreachable_negative(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        levels = bfs_levels(g, 0)
        assert levels[2] == -1

    def test_matches_networkx(self, small_er):
        ours = bfs_levels(small_er, 0)
        theirs = nx.single_source_shortest_path_length(to_networkx(small_er), 0)
        for v in small_er.vertices():
            expected = theirs.get(v, -1)
            assert ours[v] == expected


class TestModularity:
    def test_matches_networkx(self):
        from repro.graph.generators import planted_partition
        from repro.graph.properties import modularity

        g, labels = planted_partition(3, 20, 0.3, 0.02, seed=1)
        communities = [
            {v for v in g.vertices() if labels[v] == c} for c in range(3)
        ]
        theirs = nx.algorithms.community.modularity(to_networkx(g), communities)
        assert modularity(g, labels) == pytest.approx(theirs)

    def test_single_community_zero(self):
        from repro.graph.properties import modularity

        g = complete_graph(6)
        assert modularity(g, [0] * 6) == pytest.approx(0.0)

    def test_planted_beats_random(self):
        import numpy as np

        from repro.graph.generators import planted_partition
        from repro.graph.properties import modularity

        g, labels = planted_partition(4, 25, 0.2, 0.01, seed=3)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(labels)
        assert modularity(g, labels) > modularity(g, shuffled) + 0.2

    def test_empty_graph(self):
        from repro.graph.csr import Graph
        from repro.graph.properties import modularity

        g = Graph.from_edges([], num_vertices=4)
        assert modularity(g, [0, 1, 0, 1]) == 0.0
