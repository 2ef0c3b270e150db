"""Incremental maintainers vs from-scratch recompute.

The acceptance stream at the bottom drives a seeded 50-batch update
stream through the same run functions the ``tlav.incremental.*`` check
oracles use, asserting equivalence at *every* epoch.
"""

import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import Graph
from repro.graph.delta import apply_edge_updates, random_edge_updates
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.tlav import bfs, wcc
from repro.tlav.incremental import (
    IncrementalBFS,
    IncrementalPageRank,
    IncrementalWCC,
)
from repro.tlav.checks import (
    _check_incremental_bfs,
    _check_incremental_pagerank,
    _check_incremental_pagerank_residual,
    _check_incremental_wcc,
    exact_pagerank,
    pagerank_residual_violations,
)


@st.composite
def mutation_streams(draw, directed=st.booleans()):
    """``(graph, batches)``: directed or undirected, ``n`` from 1, edges
    and batch sides drawn from every vertex pair — so isolated and
    dangling vertices, empty batches, no-op requests and deletes of a
    vertex's last edge all occur."""
    n = draw(st.integers(1, 9))
    directed = draw(directed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = (st.lists(st.sampled_from(pairs), max_size=14) if pairs
             else st.just([]))
    graph = Graph.from_edges(draw(edges), num_vertices=n, directed=directed)
    batches = draw(st.lists(st.tuples(edges, edges), min_size=1, max_size=5))
    return graph, batches


class _LoopWCC(IncrementalWCC):
    """Reference: region relabeling as a per-vertex BFS from each
    unvisited region vertex in ascending id."""

    def _explore(self, region):
        visited = ~region
        for s in np.flatnonzero(region):
            s = int(s)
            if visited[s]:
                continue
            visited[s] = True
            self.labels[s] = s
            frontier = deque([s])
            while frontier:
                v = frontier.popleft()
                for w in self.graph.neighbors(v):
                    w = int(w)
                    if not visited[w]:
                        visited[w] = True
                        self.labels[w] = s
                        self.relabeled += 1
                        frontier.append(w)


def _assert_pagerank_contract(inc, graph, label):
    assert pagerank_residual_violations(inc, graph, label) == []
    assert float(np.max(np.abs(inc.scores() - exact_pagerank(graph)))) < 1e-6


def _drive_pagerank(graph, batches, tol=1e-10):
    """Apply each batch; check the residual contract at every epoch."""
    inc = IncrementalPageRank(graph, tol=tol)
    _assert_pagerank_contract(inc, graph, "epoch0")
    for epoch, (ins, dels) in enumerate(batches, start=1):
        inc.apply(ins, dels)
        graph, _ = apply_edge_updates(graph, inserts=ins, deletes=dels)
        _assert_pagerank_contract(inc, graph, f"epoch{epoch}")
    return inc


class TestIncrementalPageRank:
    def test_initial_solve_matches_fresh(self):
        g = barabasi_albert(80, 3, seed=0)
        a = IncrementalPageRank(g, tol=1e-10).scores()
        b = IncrementalPageRank(g, tol=1e-10).scores()
        assert np.array_equal(a, b)
        assert abs(a.sum() - 1.0) < 1e-12

    def test_tracks_scratch_across_batches(self):
        g = barabasi_albert(60, 3, seed=1)
        inc = IncrementalPageRank(g, tol=1e-10)
        for ins, dels in random_edge_updates(g, 8, 0.02, seed=2):
            inc.apply(ins, dels)
            g, _ = apply_edge_updates(g, inserts=ins, deletes=dels)
            scratch = exact_pagerank(g)
            assert float(np.max(np.abs(inc.scores() - scratch))) < 1e-6

    @given(mutation_streams())
    @settings(max_examples=150, deadline=None)
    def test_residual_invariant_after_every_batch(self, stream):
        _drive_pagerank(*stream)

    def test_single_vertex_and_empty_batch(self):
        g = Graph.from_edges([], num_vertices=1)
        inc = _drive_pagerank(g, [([], []), ([], [])])
        assert inc.scores().tolist() == [1.0]

    def test_deleting_last_edge_leaves_a_dangling_vertex(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], num_vertices=5)
        inc = _drive_pagerank(g, [([], [(2, 3)]), ([(3, 4)], [(0, 1)])])
        assert inc.graph.degree(0) == 0 and inc.graph.degree(4) == 1

    def test_directed_graph_matches_exact_solve(self):
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 30, size=(90, 2))
        g = Graph.from_edges(pairs[pairs[:, 0] != pairs[:, 1]],
                             num_vertices=30, directed=True)
        inc = IncrementalPageRank(g, tol=1e-13)
        for _ in range(6):
            ins = rng.integers(0, 30, size=(4, 2))
            ins = ins[ins[:, 0] != ins[:, 1]]
            src = np.repeat(np.arange(30), g.degrees())
            k = rng.choice(g.indices.size, size=3, replace=False)
            dels = np.stack([src[k], g.indices[k]], axis=1)
            inc.apply(ins, dels)
            g, _ = apply_edge_updates(g, ins, dels)
            assert pagerank_residual_violations(inc, g, "directed") == []
            assert float(np.max(np.abs(inc.scores() - exact_pagerank(g)))) < 1e-9

    def test_pushes_are_deterministic(self):
        def run():
            g = barabasi_albert(120, 3, seed=8)
            inc = IncrementalPageRank(g, tol=1e-9)
            for ins, dels in random_edge_updates(g, 10, 0.02, seed=9):
                inc.apply(ins, dels)
            return inc.pushes, inc.p.tobytes(), inc.r.tobytes()

        assert run() == run()

    def test_epoch_and_stats(self):
        g = barabasi_albert(30, 2, seed=3)
        inc = IncrementalPageRank(g)
        assert inc.epoch == 0
        batches = random_edge_updates(g, 3, 0.02, seed=4)
        for ins, dels in batches:
            inc.apply(ins, dels)
        d = inc.as_dict()
        assert d["epoch"] == inc.epoch == 3
        assert d["pushes"] > 0


class TestIncrementalWCC:
    def test_insert_merges_and_delete_splits(self):
        # Two disjoint triangles: {0,1,2} and {3,4,5}.
        from repro.graph.csr import Graph

        src = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
        dst = np.array([1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4])
        order = np.lexsort((dst, src))
        indptr = np.zeros(7, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=6), out=indptr[1:])
        g = Graph(indptr, dst[order], directed=False)
        inc = IncrementalWCC(g)
        assert len(set(inc.labels.tolist())) == 2
        inc.apply(inserts=np.array([[2, 3]]), deletes=())
        assert len(set(inc.labels.tolist())) == 1
        inc.apply(inserts=(), deletes=np.array([[2, 3]]))
        assert len(set(inc.labels.tolist())) == 2
        assert np.array_equal(inc.labels, np.array([0, 0, 0, 3, 3, 3]))

    def test_tracks_scratch_across_batches(self):
        g = erdos_renyi(70, 0.03, seed=5)
        inc = IncrementalWCC(g)
        for ins, dels in random_edge_updates(g, 10, 0.05, seed=6):
            inc.apply(ins, dels)
            g, _ = apply_edge_updates(g, inserts=ins, deletes=dels)
            assert np.array_equal(inc.labels, wcc(g))

    # Captured from the per-vertex BFS relabeling (``_LoopWCC``'s
    # ``_explore``) on a seeded 50-batch stream: ``relabeled`` after
    # construction and after each batch, component counts, and a digest
    # of every epoch's labels.
    GOLDEN_RELABELED = [
        134, 265, 398, 528, 659, 790, 919, 1051, 1185, 1318, 1453, 1588,
        1723, 1854, 1986, 2120, 2257, 2393, 2528, 2660, 2796, 2932, 3068,
        3207, 3343, 3479, 3752, 3889, 4025, 4161, 4295, 4430, 4565, 4698,
        4955, 5084, 5212, 5343, 5469, 5594, 5720, 5849, 5975, 6102, 6233,
        6363, 6494, 6622, 6750, 6879, 7010,
    ]
    GOLDEN_COMPONENTS = [
        16, 19, 16, 18, 17, 17, 18, 15, 14, 16, 15, 15, 15, 16, 16, 14, 12,
        13, 14, 16, 13, 13, 13, 11, 14, 14, 11, 12, 13, 13, 15, 14, 14, 14,
        16, 17, 16, 16, 17, 18, 17, 18, 19, 17, 16, 16, 17, 20, 20, 19, 18,
    ]
    GOLDEN_DIGEST = (
        "d855aac6ead03e294662a403833c43380ac937826e6cda3a8225093dd8dad6da"
    )

    @given(mutation_streams(directed=st.just(False)))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_vertex_bfs_relabeling(self, stream):
        graph, batches = stream
        fast, loop = IncrementalWCC(graph), _LoopWCC(graph)
        for ins, dels in batches:
            fast.apply(ins, dels)
            loop.apply(ins, dels)
            assert np.array_equal(fast.labels, loop.labels)
            assert fast.relabeled == loop.relabeled

    def test_labels_and_relabeled_match_golden_stream(self):
        g = erdos_renyi(150, 0.015, seed=31)
        inc = IncrementalWCC(g)
        relabeled = [inc.relabeled]
        components = [inc.as_dict()["components"]]
        digest = hashlib.sha256(inc.labels.tobytes())
        for ins, dels in random_edge_updates(g, 50, 0.05, seed=37):
            inc.apply(ins, dels)
            relabeled.append(inc.relabeled)
            components.append(inc.as_dict()["components"])
            digest.update(inc.labels.tobytes())
        assert relabeled == self.GOLDEN_RELABELED
        assert components == self.GOLDEN_COMPONENTS
        assert digest.hexdigest() == self.GOLDEN_DIGEST


class TestInputs:
    def test_handle_accepted_and_non_graph_refused(self, tmp_path):
        from repro.graph.store import InMemoryGraph, build_store

        g = barabasi_albert(40, 2, seed=0)
        assert IncrementalWCC(InMemoryGraph(g)).graph is g
        build_store(g, str(tmp_path / "g"), partition="hash", num_parts=2)
        assert IncrementalWCC(str(tmp_path / "g")).graph == g
        with pytest.raises(TypeError, match="graph handle"):
            IncrementalPageRank([(0, 1)])


class TestDirectedGraphsRefused:
    """WCC and BFS repairs read adjacency as symmetric; on a directed
    graph they used to return wrong answers silently."""

    def test_wcc_refuses_directed(self):
        # Edge 1->0, then inserting 2->1 gave labels [0, 1, 1] while
        # wcc() on the mutated graph is [0, 1, 2].
        g = Graph.from_edges([(1, 0)], num_vertices=3, directed=True)
        with pytest.raises(ValueError, match="undirected"):
            IncrementalWCC(g)

    def test_bfs_refuses_directed(self):
        # 0->1, 0->2, 2->1; deleting 0->1 gave levels [0, -1, 1] while
        # bfs() is [0, 2, 1]: the repair looked for support among
        # out-neighbors instead of in-neighbors.
        g = Graph.from_edges([(0, 1), (0, 2), (2, 1)], num_vertices=3,
                             directed=True)
        with pytest.raises(ValueError, match="undirected"):
            IncrementalBFS(g, source=0)


class TestIncrementalBFS:
    def test_tracks_scratch_across_batches(self):
        g = barabasi_albert(60, 2, seed=7)
        inc = IncrementalBFS(g, source=0)
        assert np.array_equal(inc.levels, bfs(g, 0))
        for ins, dels in random_edge_updates(g, 10, 0.03, seed=8):
            inc.apply(ins, dels)
            g, _ = apply_edge_updates(g, inserts=ins, deletes=dels)
            assert np.array_equal(inc.levels, bfs(g, 0))

    def test_unreachable_is_minus_one(self):
        g = erdos_renyi(20, 0.0, seed=9)  # no edges
        inc = IncrementalBFS(g, source=0)
        levels = inc.levels
        assert levels[0] == 0
        assert np.all(levels[1:] == -1)
        inc.apply(inserts=np.array([[0, 5]]), deletes=())
        assert inc.levels[5] == 1


class TestFiftyBatchAcceptanceStream:
    """ISSUE acceptance: all three oracles green at every epoch of a
    seeded 50-batch update stream, via the oracle run functions."""

    PARAMS = {
        "kind": "ba", "n": 64, "m": 3, "graph_seed": 17,
        "batches": 50, "update_seed": 23, "edge_frac": 0.01,
    }

    def test_pagerank_oracle_50_batches(self):
        assert _check_incremental_pagerank(dict(self.PARAMS)) == []

    def test_pagerank_residual_invariant_50_batches(self):
        assert _check_incremental_pagerank_residual(dict(self.PARAMS)) == []

    def test_wcc_oracle_50_batches(self):
        assert _check_incremental_wcc(dict(self.PARAMS)) == []

    def test_bfs_oracle_50_batches(self):
        assert _check_incremental_bfs(dict(self.PARAMS, source=11)) == []
