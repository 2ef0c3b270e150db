"""Compilation-based matching: generated programs count what the interpreters count,
whole or over strided root arrays."""

import os
import re
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graphlets import GRAPHLET_PATTERNS
from repro.graph.csr import Graph
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.store import build_store, open_store
from repro.matching import backtrack
from repro.matching.backtrack import count_matches, frontier_count, match
from repro.matching.codegen import (
    compile_matcher,
    compiled_count,
    generate_source,
)
from repro.matching.pattern import (
    NAMED_PATTERNS,
    PatternGraph,
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
from repro.matching.plan import GraphStats, Planner, connected_orders

from .test_frontier import graphs, patterns

ALL_PATTERNS = [
    triangle_pattern(),
    path_pattern(3),
    path_pattern(4),
    cycle_pattern(4),
    clique_pattern(4),
    star_pattern(3),
    diamond_pattern(),
    tailed_triangle_pattern(),
    house_pattern(),
    # Five-vertex cliques: several steps could reuse a segment, and a
    # segment must never be one some other step already sliced.
    clique_pattern(5),
    PatternGraph.from_edges(
        [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (3, 4)]
    ),
]

ZOO = sorted(NAMED_PATTERNS.items()) + [
    (f"graphlet-{name}", lambda p=pattern: p) for name, pattern in GRAPHLET_PATTERNS
]


def _source(pattern, order=None):
    order = order or Planner(GraphStats(1000, 8.0, 50)).plan(pattern).order
    return generate_source(
        pattern, order=list(order),
        restrictions=symmetry_breaking_restrictions(pattern),
    )


def _labelled_triangle_case():
    graph = erdos_renyi(30, 0.3, seed=1)
    rng = np.random.default_rng(0)
    graph = Graph(graph.indptr, graph.indices,
                  vertex_labels=rng.integers(2, size=graph.num_vertices))
    base = triangle_pattern().graph
    pattern = PatternGraph(Graph(base.indptr, base.indices, vertex_labels=[0, 0, 1]))
    return graph, pattern


class TestGeneratedSource:
    def test_source_is_valid_python(self):
        for pattern in ALL_PATTERNS:
            compile(_source(pattern), "<test>", "exec")  # must not raise

    def test_one_block_per_order_step(self):
        for pattern in ALL_PATTERNS:
            src = _source(pattern)
            blocks = re.findall(r"def step(\d+)\(", src)
            assert blocks == [str(i) for i in range(1, pattern.n)]
            assert "range(num_vertices)" not in src
            assert "for v" not in src  # no per-vertex Python loop

    def test_source_attached_to_function(self):
        func = compile_matcher(triangle_pattern())
        assert "def count_pattern" in func.__source__

    def test_k4_reuses_the_common_neighbor_segment(self):
        src = _source(clique_pattern(4), order=(0, 1, 2, 3))
        # Step 3 iterates step 2's segment past its own vertex: one
        # gather of the segment, one membership test, no expand.
        step3 = src.split("def step3(")[1].split("\n\n")[0]
        assert "gather_ranges(s2, " in step3
        assert "p2 + 1" in step3
        assert "expand(" not in step3
        assert step3.count("edge_slots(") == 1

    def test_reused_segments_are_gathered_from_the_graph(self):
        pattern = clique_pattern(5)
        for order in connected_orders(pattern):
            src = _source(pattern, order=order)
            blocks = src.split("    def step")[1:]
            for k in map(int, re.findall(r"gather_ranges\(s(\d+), ", src)):
                assert "expand(" in blocks[k - 1], order

    def test_diamond_id_order_has_no_reuse(self):
        src = _source(diamond_pattern(), order=(0, 1, 2, 3))
        assert "gather_ranges" not in src

    def test_diamond_planned_order_reuses_the_shared_edge(self):
        # The planner's tie-break: the last two vertices both read the
        # common neighbors of the first two.
        src = _source(diamond_pattern())
        assert compile_matcher(diamond_pattern()).order == (1, 2, 0, 3)
        step3 = src.split("def step3(")[1].split("\n\n")[0]
        assert "gather_ranges(s2, " in step3

    def test_programs_are_cached(self):
        assert compile_matcher(clique_pattern(4)) is compile_matcher(clique_pattern(4))


class TestCompiledCorrectness:
    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_matches_interpreter(self, pattern, small_er):
        assert compiled_count(small_er, pattern) == frontier_count(
            small_er, pattern
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_on_random_graphs(self, seed):
        g = erdos_renyi(30, 0.25, seed=seed)
        for pattern in (triangle_pattern(), cycle_pattern(4), diamond_pattern()):
            assert compiled_count(g, pattern) == frontier_count(g, pattern)

    @pytest.mark.parametrize("name,build", ZOO, ids=[name for name, _ in ZOO])
    @pytest.mark.parametrize("kind", ["ba", "er"])
    def test_zoo_matches_frontier(self, name, build, kind):
        graph = (barabasi_albert(150, 4, seed=3) if kind == "ba"
                 else erdos_renyi(60, 0.15, seed=4))
        pattern = build()
        assert compiled_count(graph, pattern) == frontier_count(graph, pattern)

    @pytest.mark.parametrize("name,build", ZOO, ids=[name for name, _ in ZOO])
    def test_zoo_on_a_paged_store(self, name, build):
        graph = barabasi_albert(120, 3, seed=5)
        pattern = build()
        want = frontier_count(graph, pattern)
        with tempfile.TemporaryDirectory(prefix="codegen-") as tmp:
            root = os.path.join(tmp, "g")
            manifest = build_store(graph, root, partition="hash", num_parts=3)
            budget = max(1, manifest.shard_bytes // 4)
            with open_store(root, cache_budget=budget) as stored:
                assert compiled_count(stored, pattern) == want
                assert stored.cache_stats()["evictions"] > 0

    def test_every_order_with_and_without_restrictions(self):
        graph = barabasi_albert(60, 4, seed=2)
        for pattern in ALL_PATTERNS:
            for restrictions in (None, []):
                # The count does not depend on the order: one reference.
                want = match(graph, pattern, restrictions=restrictions)
                for order in connected_orders(pattern):
                    got = compile_matcher(pattern, order, restrictions)(graph)
                    assert got == want, (pattern, order, restrictions)

    def test_chunked_levels_count_the_same(self):
        graph = barabasi_albert(150, 5, seed=7)
        for pattern in (clique_pattern(4), house_pattern(), diamond_pattern()):
            want = frontier_count(graph, pattern)
            with mock.patch.object(backtrack, "FRONTIER_SLOT_CAP", 3):
                assert compiled_count(graph, pattern) == want

    def test_vertex_labels_filter(self):
        graph, pattern = _labelled_triangle_case()
        assert frontier_count(graph, pattern) == 33
        assert count_matches(graph, pattern) == 33
        assert compiled_count(graph, pattern) == 33
        assert compiled_count(graph, pattern, order=(2, 0, 1)) == 33

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_labelled_graphs_match_backtracker(self, data):
        graph = data.draw(graphs())
        pattern = data.draw(patterns(graph))
        order = data.draw(st.sampled_from(connected_orders(pattern)))
        assert compiled_count(graph, pattern, order=order) == match(
            graph, pattern, order=order
        )

    def test_edge_labelled_pattern_needs_edge_labels(self):
        pattern = PatternGraph(Graph.from_edges([(0, 1), (1, 2), (0, 2)]))
        labelled = PatternGraph(Graph(
            pattern.graph.indptr, pattern.graph.indices,
            edge_labels=np.ones(pattern.graph.indices.size, dtype=np.int64),
        ))
        with pytest.raises(ValueError, match="edge labels"):
            compiled_count(erdos_renyi(20, 0.3, seed=0), labelled)

    def test_no_restrictions_counts_all_automorphic_images(self, small_er):
        from repro.matching.pattern import automorphisms

        pattern = triangle_pattern()
        func = compile_matcher(pattern, restrictions=[])
        total = func(small_er)
        distinct = compiled_count(small_er, pattern)
        assert total == len(automorphisms(pattern)) * distinct


class TestRootArrays:
    def test_vertex_labelled_strided_roots(self):
        # A root array is filtered by its own labels: each set counts
        # exactly the embeddings whose first order vertex it holds.
        graph, pattern = _labelled_triangle_case()
        n = graph.num_vertices
        for order in connected_orders(pattern):
            found = []
            match(graph, pattern, order=order, on_match=found.append)
            first = np.array([emb[order[0]] for emb in found], dtype=np.int64)
            program = compile_matcher(pattern, order=order)
            whole = program.tallied(graph)
            assert whole[0] == len(found) == 33
            for k in (1, 2, 3, 7, n, n + 4):
                parts = [program.tallied(graph, np.arange(i, n, k)) for i in range(k)]
                assert [c for c, _ in parts] == [
                    int(np.count_nonzero(first % k == i)) for i in range(k)
                ], (order, k)
                assert tuple(map(sum, zip(*parts))) == whole


class TestCompiledSpeed:
    def test_compiled_faster_than_interpreter(self):
        """The AutoMine claim: specialization beats interpretation."""
        g = barabasi_albert(300, 4, seed=5)
        pattern = diamond_pattern()
        order = Planner(GraphStats.of(g)).plan(pattern).order

        t0 = time.perf_counter()
        interpreted = frontier_count(g, pattern, order=order)
        t1 = time.perf_counter()

        func = compile_matcher(pattern, order=order)
        t2 = time.perf_counter()
        compiled = func(g)
        t3 = time.perf_counter()

        assert compiled == interpreted
        assert (t3 - t2) < (t1 - t0)  # strictly faster
