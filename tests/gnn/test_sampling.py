"""The batched samplers: array code over ``handle.expand_frontier``.

What has to hold now that a hop is one gather and one RNG draw instead
of a Python loop over vertices: the blocks satisfy the sampler's
contract on any graph, are the same bits over every kind of handle,
equal the per-vertex reference wherever no draw happens, pick
neighbors uniformly, and page a stored graph per *hop* — through the
same verified ``_shard`` path — rather than per vertex.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn.checks import (
    reference_layerwise_sample,
    reference_sample_neighbors,
    same_block,
    sampled_block_violations,
)
from repro.gnn.layers import GraphTensors
from repro.gnn.sampling import (
    NeighborSampler,
    khop_subgraph,
    layerwise_sample,
    sample_neighbors,
)
from repro.graph.csr import Graph
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.store import StoreError, build_store, open_store
from repro.graph.store.handle import InMemoryGraph


@st.composite
def sampling_cases(draw, max_hops=3):
    n = draw(st.integers(2, 40))
    graph = erdos_renyi(
        n, draw(st.sampled_from([0.0, 0.05, 0.15, 0.4])),
        seed=draw(st.integers(0, 1 << 16)),
    )
    seeds = draw(st.lists(st.integers(0, n - 1), max_size=8))
    fanouts = draw(
        st.lists(st.sampled_from([-1, 0, 1, 2, 3, 5]), max_size=max_hops)
    )
    return graph, seeds, fanouts, draw(st.integers(0, 1 << 16))


def _assert_same_block(want, got):
    assert same_block(want, got) == []


class TestBlockContract:
    @given(sampling_cases())
    @settings(max_examples=150, deadline=None)
    def test_every_sampled_block_satisfies_the_contract(self, case):
        graph, seeds, fanouts, seed = case
        assert sampled_block_violations(graph, seeds, fanouts, seed) == []

    @given(sampling_cases())
    @settings(max_examples=60, deadline=None)
    def test_full_fanout_equals_per_vertex_reference(self, case):
        graph, seeds, fanouts, _ = case
        fanouts = [-1] * len(fanouts)
        _assert_same_block(
            reference_sample_neighbors(graph, seeds, fanouts),
            sample_neighbors(graph, seeds, fanouts),
        )

    @given(sampling_cases())
    @settings(max_examples=60, deadline=None)
    def test_layerwise_equals_per_vertex_reference(self, case):
        graph, seeds, fanouts, seed = case
        budgets = [f + 2 for f in fanouts]
        _assert_same_block(
            reference_layerwise_sample(
                graph, seeds, budgets, np.random.default_rng(seed)
            ),
            layerwise_sample(graph, seeds, budgets, np.random.default_rng(seed)),
        )

    def test_khop_subgraph_equals_reference(self):
        g = barabasi_albert(60, 2, seed=3)
        _assert_same_block(
            reference_sample_neighbors(g, [7], [-1, -1]), khop_subgraph(g, 7, 2)
        )

    def test_no_draw_when_nothing_exceeds_the_fanout(self):
        g = barabasi_albert(40, 2, seed=1)
        widest = int(g.degrees().max())
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        sample_neighbors(g, [0, 3, 9], [widest, -1, widest + 1], rng=rng)
        assert rng.bit_generator.state == before

    def test_one_draw_per_hop_that_exceeds_it(self):
        g = barabasi_albert(40, 2, seed=1)
        calls = []

        class CountingRng:
            def random(self, size):
                calls.append(size)
                return np.random.default_rng(0).random(size)

        sample_neighbors(g, [0, 3, 9], [1, 1, -1], rng=CountingRng())
        assert len(calls) == 2


class TestDuplicateSeeds:
    def test_sample_neighbors_gathers_each_vertex_once(self):
        g = barabasi_albert(30, 3, seed=2)
        block = sample_neighbors(g, [4, 4, 9, 4], [-1])
        once = sample_neighbors(g, [4, 9], [-1])
        np.testing.assert_array_equal(block.node_ids, once.node_ids)
        np.testing.assert_array_equal(block.graph.indices, once.graph.indices)
        assert block.gathered_nodes == np.unique(block.node_ids).size
        np.testing.assert_array_equal(block.seed_local, [0, 0, 1, 0])

    def test_layerwise_sample_gathers_each_vertex_once(self):
        g = barabasi_albert(30, 3, seed=2)
        block = layerwise_sample(
            g, [4, 4, 9], [6, 6], rng=np.random.default_rng(1)
        )
        once = layerwise_sample(g, [4, 9], [6, 6], rng=np.random.default_rng(1))
        np.testing.assert_array_equal(block.node_ids, once.node_ids)
        np.testing.assert_array_equal(block.graph.indices, once.graph.indices)
        np.testing.assert_array_equal(block.seed_local, [0, 0, 1])


@pytest.fixture(scope="module")
def ba():
    return barabasi_albert(90, 3, seed=4)


@pytest.fixture(scope="module")
def ba_stores(ba, tmp_path_factory):
    """``{partitioner: (store dir, total shard bytes)}`` for ``ba``."""
    root = tmp_path_factory.mktemp("sampling-stores")
    return {
        partitioner: (
            root / partitioner,
            build_store(
                ba, root / partitioner, partition=partitioner, num_parts=4
            ).shard_bytes,
        )
        for partitioner in ("hash", "range")
    }


class TestSeedValidation:
    @pytest.fixture(params=["graph", "in_memory", "stored"])
    def source(self, request, ba, ba_stores):
        if request.param == "graph":
            yield ba
        elif request.param == "in_memory":
            yield InMemoryGraph(ba)
        else:
            with open_store(ba_stores["hash"][0]) as stored:
                yield stored

    @pytest.mark.parametrize("bad", [[-1], [90 + 2], [3, 90]])
    @pytest.mark.parametrize("fanouts", [(), (2,), (-1, 2)])
    def test_out_of_range_seed_is_an_index_error(self, source, bad, fanouts):
        with pytest.raises(IndexError, match="vertex ids must lie in"):
            sample_neighbors(source, bad, fanouts)
        with pytest.raises(IndexError, match="vertex ids must lie in"):
            layerwise_sample(source, bad, fanouts)

    def test_empty_seeds_give_the_empty_block(self, source):
        for block in (
            sample_neighbors(source, [], [2, 2]),
            layerwise_sample(source, [], [2, 2]),
        ):
            assert block.gathered_nodes == 0
            assert block.graph.num_vertices == 0
            assert block.seed_local.size == 0

    def test_isolated_seed_gives_a_one_vertex_block(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        block = sample_neighbors(g, [2], [2, 2])
        np.testing.assert_array_equal(block.node_ids, [2])
        assert block.graph.num_vertices == 1 and block.graph.num_edges == 0


class TestHandleIndependence:
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    @pytest.mark.parametrize("budget", ["unbounded", "zero", "half"])
    def test_same_seed_same_block_over_any_handle(
        self, ba, ba_stores, partitioner, budget
    ):
        root, shard_bytes = ba_stores[partitioner]
        cache_budget = {"unbounded": None, "zero": 0, "half": shard_bytes // 2}[
            budget
        ]
        seeds = [5, 71, 5, 18, 40]

        def blocks(source):
            sampler = NeighborSampler(source, (2, 3), seed=9)
            return [sampler.sample(seeds), sampler.sample(seeds[::-1])]

        want = blocks(ba)
        with open_store(root, cache_budget=cache_budget) as stored:
            for got in (blocks(InMemoryGraph(ba)), blocks(stored)):
                for a, b in zip(want, got):
                    _assert_same_block(a, b)


def _hub(first_leaf, degree):
    return [(first_leaf - 1, first_leaf + k) for k in range(degree)]


class TestUniformity:
    def test_every_neighbor_is_picked_with_frequency_fanout_over_degree(self):
        # Two hubs (0: degree 12, 13: degree 7) with disjoint leaves, plus
        # leaf-leaf noise that a one-hop sample from the hubs never walks.
        edges = _hub(1, 12) + _hub(14, 7) + [(1, 14), (2, 3), (5, 20), (15, 16)]
        g = Graph.from_edges(edges, num_vertices=21)
        fanout, draws = 3, 4000
        rng = np.random.default_rng(123)
        picked = np.zeros(g.num_vertices)
        for _ in range(draws):
            block = sample_neighbors(g, [0, 13], [fanout], rng=rng)
            # Exactly ``fanout`` distinct leaves per hub: none drawn twice.
            assert block.graph.degree(0) == block.graph.degree(1) == fanout
            picked[block.node_ids[2:]] += 1
        # Binomial(4000, p) has sd <= 0.008 in frequency; 0.035 is > 4 sd.
        for hub in (0, 13):
            leaves = g.neighbors(hub)
            np.testing.assert_allclose(
                picked[leaves] / draws, fanout / leaves.size, atol=0.035
            )


class TestStoredPaging:
    def test_one_sample_pages_per_hop_not_per_vertex(self, ba_stores):
        root, shard_bytes = ba_stores["hash"]
        fanouts = (4, 4)
        with open_store(root, cache_budget=shard_bytes // 2) as stored:
            sampler = NeighborSampler(stored, fanouts, seed=0)
            block = sampler.sample(np.arange(0, 64, 4))
            assert block.gathered_nodes > 16
            requested = stored.cache_stats()["pages_requested"]
            assert 0 < requested <= 2 * stored.num_parts * len(fanouts)

    def test_corrupt_shard_raises_through_the_sampler(self, ba, tmp_path):
        build_store(ba, tmp_path / "g", partition="hash", num_parts=2)
        shard = next(
            os.path.join(dirpath, "indices.npy")
            for dirpath, _dirs, files in os.walk(tmp_path / "g")
            if "indices.npy" in files
        )
        blob = bytearray(open(shard, "rb").read())
        blob[-1] ^= 0xFF
        open(shard, "wb").write(bytes(blob))
        with open_store(tmp_path / "g") as stored:
            with pytest.raises(StoreError, match="corrupt shard"):
                NeighborSampler(stored, (2, 2), seed=0).sample([0, 1, 2, 3])
            with pytest.raises(StoreError, match="corrupt shard"):
                GraphTensors(stored)

    def test_closed_store_raises_through_the_sampler(self, ba_stores):
        stored = open_store(ba_stores["hash"][0])
        stored.close()
        with pytest.raises(StoreError, match="closed"):
            NeighborSampler(stored, (2, 2), seed=0).sample([0, 1])


def _double_loop_tensors(graph, add_self_loops):
    """``GraphTensors.__init__`` as the per-edge loop it used to be."""
    srcs, dsts = [], []
    n = graph.num_vertices
    for u in range(n):
        for w in graph.neighbors(u):
            srcs.append(int(w))
            dsts.append(u)
    if add_self_loops:
        srcs.extend(range(n))
        dsts.extend(range(n))
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    deg = np.bincount(dst, minlength=n).astype(np.float64)
    deg[deg == 0] = 1.0
    norm = 1.0 / np.sqrt(deg)
    return src, dst, deg, (norm[src] * norm[dst]).reshape(-1, 1)


class TestGraphTensors:
    @pytest.mark.parametrize("add_self_loops", [True, False])
    @pytest.mark.parametrize("source", ["graph", "stored"])
    def test_same_bits_as_the_double_loop(
        self, ba, ba_stores, source, add_self_loops
    ):
        want = _double_loop_tensors(ba, add_self_loops)
        if source == "graph":
            gt = GraphTensors(ba, add_self_loops=add_self_loops)
        else:
            with open_store(ba_stores["range"][0], cache_budget=0) as stored:
                gt = GraphTensors(stored, add_self_loops=add_self_loops)
        for name, expected in zip(("src", "dst", "in_degree", "gcn_norm"), want):
            got = getattr(gt, name)
            assert got.dtype == expected.dtype, name
            np.testing.assert_array_equal(got, expected, err_msg=name)
        assert gt.num_vertices == ba.num_vertices

    def test_isolated_vertices_keep_unit_degree(self):
        g = Graph.from_edges([(0, 1)], num_vertices=4)
        gt = GraphTensors(g, add_self_loops=False)
        np.testing.assert_array_equal(gt.in_degree, [1.0, 1.0, 1.0, 1.0])
        assert gt.num_messages == 2
