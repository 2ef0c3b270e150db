"""The vectorized adjacency kernels against brute-force oracles."""

import numpy as np
import pytest

from repro.graph import kernels
from repro.graph.generators import erdos_renyi


def _sorted_unique(rng, size, universe):
    return np.unique(rng.integers(0, universe, size=size).astype(np.int64))


class TestInSorted:
    def test_matches_python_membership(self, rng):
        for _ in range(25):
            hay = _sorted_unique(rng, rng.integers(0, 40), 60)
            needles = rng.integers(0, 60, size=rng.integers(0, 40)).astype(np.int64)
            mask = kernels.in_sorted(hay, needles)
            expected = np.array([int(x) in set(hay.tolist()) for x in needles], bool)
            assert np.array_equal(mask, expected)

    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.int64)
        some = np.array([1, 2, 3], dtype=np.int64)
        assert kernels.in_sorted(empty, some).sum() == 0
        assert kernels.in_sorted(some, empty).size == 0


class TestIntersect:
    def test_pairwise_equals_set_intersection(self, rng):
        for _ in range(25):
            a = _sorted_unique(rng, rng.integers(0, 50), 70)
            b = _sorted_unique(rng, rng.integers(0, 50), 70)
            expected = np.asarray(
                sorted(set(a.tolist()) & set(b.tolist())), dtype=np.int64
            )
            assert np.array_equal(kernels.intersect_sorted(a, b), expected)
            assert kernels.intersect_count(a, b) == expected.size

    def test_multi_way(self, rng):
        for _ in range(25):
            lists = [_sorted_unique(rng, rng.integers(1, 40), 50) for _ in range(4)]
            expected = set(lists[0].tolist())
            for other in lists[1:]:
                expected &= set(other.tolist())
            got = kernels.intersect_multi(lists)
            assert np.array_equal(got, np.asarray(sorted(expected), dtype=np.int64))

    def test_multi_empty_input(self):
        assert kernels.intersect_multi([]).size == 0


class TestExpandFrontier:
    def test_concatenates_neighborhoods_with_owners(self, rng):
        g = erdos_renyi(60, 0.08, seed=int(rng.integers(1000)))
        frontier = np.unique(rng.integers(0, 60, size=10).astype(np.int64))
        owners, neighbors = kernels.expand_frontier(g.indptr, g.indices, frontier)
        expected = np.concatenate(
            [g.neighbors(int(v)) for v in frontier]
            + [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(neighbors, expected)
        # owners index into the frontier, repeated by degree.
        degrees = np.array([g.degree(int(v)) for v in frontier])
        assert np.array_equal(owners, np.repeat(np.arange(frontier.size), degrees))

    def test_empty_frontier(self):
        g = erdos_renyi(10, 0.2, seed=0)
        owners, neighbors = kernels.expand_frontier(
            g.indptr, g.indices, np.empty(0, dtype=np.int64)
        )
        assert owners.size == 0 and neighbors.size == 0


class TestGatherRanges:
    def test_concatenates_ranges_with_owners(self, rng):
        for _ in range(25):
            values = rng.integers(0, 100, size=rng.integers(1, 60)).astype(np.int64)
            starts = rng.integers(0, values.size, size=rng.integers(0, 12))
            stops = starts + rng.integers(0, values.size - starts + 1)
            owners, got = kernels.gather_ranges(values, starts, stops)
            expected = [values[a:b] for a, b in zip(starts, stops)]
            np.testing.assert_array_equal(
                got, np.concatenate(expected + [np.empty(0, dtype=np.int64)])
            )
            np.testing.assert_array_equal(
                owners, np.repeat(np.arange(starts.size), stops - starts)
            )


class TestFindSorted:
    def test_positions_or_minus_one(self, rng):
        for _ in range(25):
            hay = _sorted_unique(rng, rng.integers(0, 40), 60)
            needles = rng.integers(0, 60, size=rng.integers(0, 40)).astype(np.int64)
            where = {int(x): k for k, x in enumerate(hay)}
            expected = [where.get(int(x), -1) for x in needles]
            np.testing.assert_array_equal(kernels.find_sorted(hay, needles), expected)


class TestSortedUnique:
    def test_equals_np_unique(self, rng):
        for size in (0, 1, 2, 50):
            values = rng.integers(0, 20, size=size).astype(np.int64)
            np.testing.assert_array_equal(
                kernels.sorted_unique(values), np.unique(values)
            )


class TestScatterAddOrdered:
    def test_accumulates_like_a_loop(self, rng):
        out = np.zeros(8)
        idx = rng.integers(0, 8, size=50).astype(np.int64)
        vals = rng.random(50)
        expected = np.zeros(8)
        for i, v in zip(idx, vals):
            expected[i] += v
        kernels.scatter_add_ordered(out, idx, vals)
        assert np.array_equal(out, expected)


class TestEdgeArray:
    def test_round_trips_csr(self):
        g = erdos_renyi(40, 0.1, seed=5)
        src, dst = kernels.edge_array(g.indptr, g.indices)
        assert src.size == g.indices.size
        for k in range(src.size):
            assert g.has_edge(int(src[k]), int(dst[k]))


class TestOrientByDegree:
    """The vectorized orientation keeps the classic invariants."""

    def test_each_edge_oriented_once_upward(self, small_er):
        oriented = small_er.orient_by_degree()
        deg = small_er.degrees()
        assert oriented.directed
        assert oriented.indices.size == small_er.num_edges
        src, dst = kernels.edge_array(oriented.indptr, oriented.indices)
        for k in range(src.size):
            u, v = int(src[k]), int(dst[k])
            assert (deg[u], u) < (deg[v], v)

    def test_rejects_directed(self):
        from repro.graph.csr import Graph

        g = Graph.from_edges([(0, 1)], directed=True)
        with pytest.raises(ValueError):
            g.orient_by_degree()
