"""The interpreted frontier counter (`frontier_count`) against the DFS
enumerator, and the strided root sets `count_matches` fans out.

`match` is the declared oracle: for every pattern, order, symmetry
setting, labelling and handle kind, the frontier kernel must return the
same count *and* the same four `MatchStats` counters, bit for bit.  The
compiled program's root sets must sum to its whole-graph count and
tally for any number of sets.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import Graph, GraphBuilder
from repro.graph.generators import barabasi_albert
from repro.graph.store import InMemoryGraph, build_store, open_store
from repro.matching import backtrack
from repro.matching.backtrack import MatchStats, count_matches, frontier_count, match
from repro.matching.checks import PATTERNS
from repro.matching.codegen import compile_matcher
from repro.matching.pattern import (
    PatternGraph,
    diamond_pattern,
    path_pattern,
    symmetry_breaking_restrictions,
    triangle_pattern,
)
from repro.matching.plan import GraphStats, Planner, connected_orders

SINGLE_VERTEX = PatternGraph(
    Graph(np.zeros(2, dtype=np.int64), np.empty(0, dtype=np.int64))
)
ZOO = [build() for _, build in PATTERNS] + [path_pattern(2), SINGLE_VERTEX]


@st.composite
def graphs(draw):
    """Small graphs: isolated vertices, n in {0, 1}, labels, directions,
    self-loops; density and labels come from one seeded draw."""
    n = draw(st.integers(0, 14))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    vertex_labels = draw(st.integers(0, 2))  # number of labels; 0: none
    edge_labels = draw(st.booleans())
    directed = draw(st.booleans())
    self_loops = draw(st.booleans())
    # CSR arrays straight from a dense adjacency draw: the builders drop
    # self-loops, and these graphs must be able to keep them.
    present = rng.random((n, n)) < density
    label = rng.integers(1, 3, size=(n, n))
    if not directed:  # one draw per unordered pair, both copies alike
        present = np.triu(present)
        present |= present.T
        label = np.triu(label) + np.triu(label, 1).T
    if not self_loops:
        np.fill_diagonal(present, False)
    rows, cols = np.nonzero(present)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    labels = None
    if vertex_labels:
        labels = rng.integers(vertex_labels, size=n)
    return Graph(indptr, cols, directed=directed, vertex_labels=labels,
                 edge_labels=label[rows, cols] if edge_labels else None)


@st.composite
def patterns(draw, graph):
    """A zoo pattern, labelled like ``graph`` when ``graph`` is labelled."""
    pattern = draw(st.sampled_from(ZOO))
    if graph.vertex_labels is None and graph.edge_labels is None:
        return pattern
    builder = GraphBuilder()
    edge_label = st.integers(1, 2) if graph.edge_labels is not None else st.just(0)
    for u in range(pattern.n):
        for v in pattern.adj[u]:
            if u < v:
                builder.add_edge(u, v, label=draw(edge_label))
    labels = None
    if graph.vertex_labels is not None:
        top = int(graph.vertex_labels.max(initial=0))
        labels = draw(st.lists(
            st.integers(0, top), min_size=pattern.n, max_size=pattern.n
        ))
    return PatternGraph(builder.build(num_vertices=pattern.n, vertex_labels=labels))


def _order(draw, graph, pattern):
    kind = draw(st.sampled_from(["default", "planner", "random"]))
    if kind == "default":
        return None
    if kind == "planner" and pattern.n > 1:
        return Planner(GraphStats.of(graph)).plan(pattern).order
    return draw(st.sampled_from(connected_orders(pattern)))


def _oracle(graph, pattern, order, distinct):
    stats = MatchStats()
    match(graph, pattern, order=order,
          restrictions=None if distinct else [], stats=stats)
    return stats.extra_dict()


def _frontier(handle, pattern, order, distinct):
    stats = MatchStats()
    count = frontier_count(handle, pattern, order=order, distinct=distinct,
                           stats=stats)
    assert count == stats.embeddings
    return stats.extra_dict()


class TestAgainstBacktracker:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_in_memory_handles(self, data):
        graph = data.draw(graphs())
        pattern = data.draw(patterns(graph))
        order = _order(data.draw, graph, pattern)
        distinct = data.draw(st.booleans())
        cap = data.draw(st.sampled_from([1, 3, backtrack.FRONTIER_SLOT_CAP]))
        want = _oracle(graph, pattern, order, distinct)
        with mock.patch.object(backtrack, "FRONTIER_SLOT_CAP", cap):
            for handle in (graph, InMemoryGraph(graph)):
                assert _frontier(handle, pattern, order, distinct) == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_stored_handles(self, data):
        graph = data.draw(graphs())
        pattern = data.draw(patterns(graph))
        order = _order(data.draw, graph, pattern)
        distinct = data.draw(st.booleans())
        partition = data.draw(st.sampled_from(["hash", "range"]))
        budget = data.draw(st.sampled_from(["none", "zero", "half"]))
        want = _oracle(graph, pattern, order, distinct)
        with tempfile.TemporaryDirectory(prefix="frontier-") as tmp:
            root = os.path.join(tmp, "g")
            manifest = build_store(graph, root, partition=partition, num_parts=3)
            cache_budget = {"none": None, "zero": 0,
                            "half": max(1, manifest.shard_bytes // 2)}[budget]
            with open_store(root, cache_budget=cache_budget) as stored:
                assert _frontier(stored, pattern, order, distinct) == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_root_spans_are_additive(self, data):
        graph = data.draw(graphs())
        pattern = data.draw(patterns(graph))
        order = data.draw(st.sampled_from(connected_orders(pattern)))
        restrictions = data.draw(st.sampled_from(
            [(), tuple(symmetry_breaking_restrictions(pattern))]
        ))
        k = data.draw(st.integers(1, max(1, graph.num_vertices) + 2))
        merged = MatchStats()
        for i in range(k):
            merged.merge(backtrack._count_roots_task(
                graph, (i, k, pattern, order, restrictions)
            ))
        whole = MatchStats()
        count_matches(graph, pattern, order=order, distinct=bool(restrictions),
                      stats=whole)
        assert merged.extra_dict() == whole.extra_dict()
        assert whole.embeddings == match(
            graph, pattern, order=order, restrictions=list(restrictions)
        )

    def test_hub_above_the_slot_cap(self):
        # One vertex adjacent to every other: a single row whose gather
        # exceeds the cap is expanded alone, and a ring among the leaves
        # closes triangles through the hub.
        leaves = backtrack.FRONTIER_SLOT_CAP + 300
        edges = [(0, v) for v in range(1, leaves + 1)]
        edges += [(v, v + 1) for v in range(1, leaves, 7)]
        graph = Graph.from_edges(edges)
        for pattern in (triangle_pattern(), diamond_pattern()):
            for distinct in (True, False):
                want = _oracle(graph, pattern, None, distinct)
                assert _frontier(graph, pattern, None, distinct) == want


class TestRoots:
    def test_root_span_outside_the_graph_raises(self):
        graph = barabasi_albert(30, 2, seed=0)
        program = compile_matcher(triangle_pattern(), (0, 1, 2), ())
        for roots in (np.arange(25, 31), np.array([-1, 3])):
            with pytest.raises(IndexError, match=r"vertex ids must lie in \[0, 30\)"):
                program(graph, roots)

    def test_anchor_outside_the_graph_raises(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        for vertex in (-3, 5):
            with pytest.raises(IndexError, match=r"vertex ids must lie in \[0, 5\)"):
                match(graph, triangle_pattern(), restrictions=[],
                      anchor=(0, vertex))
        assert match(graph, triangle_pattern(), restrictions=[], anchor=(0, 2)) == 4


class TestStoredPaging:
    def _pages(self, n, tmp):
        graph = barabasi_albert(n, 3, seed=1)
        root = os.path.join(tmp, f"g{n}")
        build_store(graph, root, partition="hash", num_parts=4)
        with open_store(root) as stored:
            gathers = 0
            expand = stored.expand_frontier

            def counted(vertices):
                nonlocal gathers
                gathers += 1
                return expand(vertices)

            stored.expand_frontier = counted
            count = count_matches(stored, triangle_pattern())
            pages = stored.cache.stats.pages_requested
        assert count == count_matches(graph, triangle_pattern())
        # Two shards (indptr, indices) per touched partition per gather.
        assert pages <= 2 * 4 * gathers
        return pages, gathers

    def test_page_requests_do_not_scale_with_n(self):
        # With every level in one chunk, a triangle count is the same
        # handful of gathers at any n (the DFS enumerator pages twice per
        # partial embedding: thousands of requests at n = 2000).
        with tempfile.TemporaryDirectory(prefix="frontier-pages-") as tmp:
            with mock.patch.object(backtrack, "FRONTIER_SLOT_CAP", 1 << 30):
                small, small_gathers = self._pages(200, tmp)
                large, large_gathers = self._pages(2000, tmp)
        assert small_gathers == large_gathers == 3
        assert large == small == 2 * 4 * 3

    def test_page_requests_scale_with_chunks_not_vertices(self):
        with tempfile.TemporaryDirectory(prefix="frontier-pages-") as tmp:
            pages, gathers = self._pages(2000, tmp)
        assert gathers < 20
        assert pages < 2000 // 10
