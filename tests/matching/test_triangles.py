"""Serial ordered triangle listing (the Chu & Cheng kernel)."""

import os
import tempfile
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import kernels
from repro.graph.csr import Graph, GraphBuilder
from repro.graph.generators import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    star_graph,
)
from repro.graph.kernels import expand_frontier, in_sorted
from repro.graph.store import build_store, open_store
from repro.matching import backtrack
from repro.matching.triangles import (
    _count_span_task,
    triangle_count,
    triangle_count_with_work,
    triangle_list,
)
from tests.conftest import to_networkx


def per_source_count(oriented, span):
    """The per-source-vertex loop the wedge kernel replaced (reference)."""
    lo, hi = span
    indptr, indices = oriented.indptr, oriented.indices
    total = 0
    for u in range(lo, hi):
        out_u = indices[indptr[u]: indptr[u + 1]]
        if out_u.size < 2:
            continue
        # Second hop: every out-neighbor of every v in out_u, batched.
        _, second = expand_frontier(indptr, indices, out_u)
        total += int(np.count_nonzero(in_sorted(out_u, second)))
    return total


def add_at_orientation(graph):
    """``orient_by_degree`` as built with ``np.add.at`` (reference)."""
    n = graph.num_vertices
    deg = graph.degrees()
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    dst = graph.indices
    keep = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
    src, dst = src[keep], dst[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(indptr, dst, directed=True)


@st.composite
def undirected_graphs(draw):
    """Random, complete, star and edgeless graphs; n in {0, 1} included,
    isolated vertices wherever the draw leaves a vertex without edges."""
    kind = draw(st.sampled_from(["random", "random", "complete", "star", "empty"]))
    n = draw(st.integers(0, 16))
    builder = GraphBuilder()
    if kind == "random":
        density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
        rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
        for u, v in zip(*np.nonzero(np.triu(rng.random((n, n)) < density, 1))):
            builder.add_edge(u, v)
    elif kind == "complete":
        for u in range(n):
            for v in range(u + 1, n):
                builder.add_edge(u, v)
    elif kind == "star":
        for v in range(1, n):
            builder.add_edge(0, v)
    return builder.build(num_vertices=n)


CAPS = st.sampled_from([1, 3, backtrack.FRONTIER_SLOT_CAP])


class TestTriangleCount:
    def test_complete_graph(self):
        assert triangle_count(complete_graph(6)) == 20

    def test_triangle_free(self):
        assert triangle_count(cycle_graph(10)) == 0
        assert triangle_count(star_graph(10)) == 0

    def test_matches_networkx(self, small_ws):
        theirs = sum(nx.triangles(to_networkx(small_ws)).values()) // 3
        assert triangle_count(small_ws) == theirs

    @given(st.integers(0, 400))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs(self, seed):
        g = erdos_renyi(25, 0.3, seed=seed)
        theirs = sum(nx.triangles(to_networkx(g)).values()) // 3
        assert triangle_count(g) == theirs


class TestWedgeKernel:
    @given(undirected_graphs(), CAPS)
    @settings(max_examples=150, deadline=None)
    def test_equals_listing_and_per_source_loop(self, graph, cap):
        want = per_source_count(graph.orient_by_degree(), (0, graph.num_vertices))
        assert want == len(list(triangle_list(graph)))
        with mock.patch.object(backtrack, "FRONTIER_SLOT_CAP", cap):
            assert triangle_count(graph) == want

    @given(undirected_graphs(), CAPS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_span_counts_sum_to_the_whole(self, graph, cap, data):
        oriented = graph.orient_by_degree()
        n = graph.num_vertices
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
        bounds = [0] + cuts + [n]
        with mock.patch.object(backtrack, "FRONTIER_SLOT_CAP", cap):
            spans = [
                _count_span_task(oriented, (lo, hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        assert spans == [
            per_source_count(oriented, (lo, hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        assert sum(spans) == per_source_count(oriented, (0, n))

    def test_row_above_the_cap_is_gathered_alone(self):
        # In K_12 the lowest vertex's out-row holds 11 wedges; with the cap
        # at 4 every head above it is expanded in a chunk of its own.
        cap, graph = 4, complete_graph(12)
        gathers = []

        def recorded(indptr, indices, frontier):
            owners, neighbors = expand_frontier(indptr, indices, frontier)
            gathers.append((len(frontier), neighbors.size))
            return owners, neighbors

        with mock.patch.object(backtrack, "FRONTIER_SLOT_CAP", cap), \
                mock.patch.object(kernels, "expand_frontier", recorded):
            assert triangle_count(graph) == 220
        assert any(wedges > cap for _, wedges in gathers)
        for heads, wedges in gathers:
            assert wedges <= cap or heads == 1

    @pytest.mark.parametrize("partition", ["hash", "range"])
    @pytest.mark.parametrize("budget", [None, 0])
    def test_stored_handle_equals_in_memory(self, partition, budget):
        graph = barabasi_albert(300, 4, seed=3)
        with tempfile.TemporaryDirectory(prefix="triangles-") as tmp:
            root = os.path.join(tmp, "g")
            build_store(graph, root, partition=partition, num_parts=3)
            with open_store(root, cache_budget=budget) as stored:
                assert triangle_count(stored) == triangle_count(graph)

    @given(undirected_graphs())
    @settings(max_examples=100, deadline=None)
    def test_orientation_equals_add_at_build(self, graph):
        ours, theirs = graph.orient_by_degree(), add_at_orientation(graph)
        assert ours.indptr.dtype == theirs.indptr.dtype == np.int64
        assert np.array_equal(ours.indptr, theirs.indptr)
        assert np.array_equal(ours.indices, theirs.indices)


class TestTriangleList:
    def test_each_triangle_once_sorted(self, small_er):
        triangles = list(triangle_list(small_er))
        assert len(triangles) == triangle_count(small_er)
        assert len(set(triangles)) == len(triangles)
        for a, b, c in triangles:
            assert a < b < c
            assert small_er.has_edge(a, b)
            assert small_er.has_edge(b, c)
            assert small_er.has_edge(a, c)


class TestWorkBound:
    def test_work_reported(self, small_ba):
        count, work = triangle_count_with_work(small_ba)
        assert count == triangle_count(small_ba)
        assert work > 0

    def test_orientation_bounds_work(self):
        # Degree orientation keeps per-edge intersection cost near
        # O(sqrt(m)); total work stays well under the naive sum of
        # endpoint degrees.
        g = barabasi_albert(400, 4, seed=0)
        _, work = triangle_count_with_work(g)
        naive = sum(g.degree(u) + g.degree(v) for u, v in g.edges())
        assert work < naive
