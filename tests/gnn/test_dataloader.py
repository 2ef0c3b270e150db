"""The staged mini-batch dataloader: determinism, coverage, accounting.

The load-bearing property is bit-identity: at a fixed seed the loader
emits exactly the batches the pre-loader sampling loop (``_loop_blocks``)
would — across repeated epochs, and with prefetch on or off — so the
refactored ``train_sampled`` reproduces pre-refactor losses exactly.
"""

import threading
import time

import numpy as np
import pytest

from repro.gnn.caching import LRUCache, StaticDegreeCache
from repro.gnn.dataloader import (
    FeatureFetcher,
    InferReport,
    ItemSampler,
    MiniBatchLoader,
    infer_sampled,
    sampled_inference_blocks,
)
from repro.gnn.layers import GraphTensors
from repro.gnn.models import Adam, NodeClassifier, accuracy
from repro.gnn.sampling import NeighborSampler
from repro.gnn.tensor import Tensor, no_grad
from repro.gnn import train as train_module
from repro.gnn.train import train_sampled
from repro.graph.generators import barabasi_albert, planted_partition
from repro.graph.store import build_store, open_store
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def task():
    g, labels = planted_partition(3, 25, p_in=0.15, p_out=0.01, seed=1)
    n = g.num_vertices
    rng = np.random.default_rng(0)
    features = np.eye(3)[labels] + rng.normal(0, 1.5, size=(n, 3))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[: n // 2]] = True
    return g, labels, features, train_mask, ~train_mask


def _loader(task, **kwargs):
    g, _labels, features, train_mask, _val = task
    kwargs.setdefault("items", np.nonzero(train_mask)[0])
    kwargs.setdefault("batch_size", 8)
    kwargs.setdefault("fanouts", (3, 3))
    kwargs.setdefault("features", features)
    kwargs.setdefault("seed", 0)
    return MiniBatchLoader(g, **kwargs)


class TestItemSampler:
    def test_len_rounds_up_without_drop_last(self):
        assert len(ItemSampler(range(10), 4)) == 3
        assert len(ItemSampler(range(10), 4, drop_last=True)) == 2
        assert len(ItemSampler(range(8), 4)) == 2
        assert len(ItemSampler(range(8), 4, drop_last=True)) == 2

    def test_unshuffled_batches_preserve_order(self):
        sampler = ItemSampler(range(10), 4, shuffle=False)
        batches = list(sampler.batches())
        np.testing.assert_array_equal(np.concatenate(batches), np.arange(10))
        assert [b.size for b in batches] == [4, 4, 2]

    def test_drop_last_discards_remainder(self):
        sampler = ItemSampler(range(10), 4, shuffle=False, drop_last=True)
        batches = list(sampler.batches())
        assert [b.size for b in batches] == [4, 4]

    def test_shuffle_covers_exactly_once(self):
        sampler = ItemSampler(range(11), 3)
        rng = np.random.default_rng(7)
        seen = np.concatenate(list(sampler.batches(rng)))
        np.testing.assert_array_equal(np.sort(seen), np.arange(11))

    def test_shuffle_requires_rng(self):
        with pytest.raises(ValueError):
            list(ItemSampler(range(4), 2).batches())

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            ItemSampler(range(4), 0)


def _loop_blocks(sampler, nodes, batch_size):
    """The pre-loader sampling loop: one permutation of ``nodes`` from the
    sampler's generator, then one sampled block per slice of it."""
    nodes = np.asarray(nodes, dtype=np.int64)
    order = sampler.rng.permutation(nodes.size)
    return [
        sampler.sample(nodes[order[start: start + batch_size]])
        for start in range(0, nodes.size, batch_size)
    ]


class TestLoaderDeterminism:
    def test_matches_legacy_sampler_loop(self, task):
        g, _labels, _features, train_mask, _val = task
        train_nodes = np.nonzero(train_mask)[0]
        legacy = NeighborSampler(g, (3, 3), seed=0)
        loader = _loader(task)
        for _ in range(2):  # the RNG stream continues across epochs
            legacy_blocks = _loop_blocks(legacy, train_nodes, 8)
            batches = list(loader.epoch())
            assert len(batches) == len(legacy_blocks)
            for mb, block in zip(batches, legacy_blocks):
                np.testing.assert_array_equal(mb.node_ids, block.node_ids)
                np.testing.assert_array_equal(mb.seed_local, block.seed_local)

    def test_two_loaders_same_seed_identical(self, task):
        a = [mb.node_ids for mb in _loader(task).epoch()]
        b = [mb.node_ids for mb in _loader(task).epoch()]
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_prefetch_does_not_change_batches(self, task):
        plain = _loader(task)
        prefetched = _loader(task, prefetch=3)
        for _ in range(2):
            for mb_p, mb_q in zip(plain.epoch(), prefetched.epoch()):
                np.testing.assert_array_equal(mb_p.seeds, mb_q.seeds)
                np.testing.assert_array_equal(mb_p.node_ids, mb_q.node_ids)
                np.testing.assert_array_equal(mb_p.x, mb_q.x)

    def test_different_seeds_differ(self, task):
        a = next(iter(_loader(task, seed=0).epoch()))
        b = next(iter(_loader(task, seed=1).epoch()))
        assert not np.array_equal(a.seeds, b.seeds)


class TestEpochSemantics:
    def test_every_item_exactly_once_per_epoch(self, task):
        _g, _labels, _features, train_mask, _val = task
        train_nodes = np.nonzero(train_mask)[0]
        loader = _loader(task)
        for _ in range(3):
            seeds = np.concatenate([mb.seeds for mb in loader.epoch()])
            np.testing.assert_array_equal(np.sort(seeds), np.sort(train_nodes))

    def test_remainder_batch_kept_by_default(self, task):
        _g, _labels, _features, train_mask, _val = task
        n_items = int(train_mask.sum())
        batches = list(_loader(task, batch_size=8).epoch())
        assert [mb.seeds.size for mb in batches[:-1]] == [8] * (len(batches) - 1)
        assert batches[-1].seeds.size == n_items - 8 * (len(batches) - 1)

    def test_drop_last_truncates(self, task):
        _g, _labels, _features, train_mask, _val = task
        n_items = int(train_mask.sum())
        assert n_items % 8 != 0  # fixture guards the interesting case
        loader = _loader(task, batch_size=8, drop_last=True)
        batches = list(loader.epoch())
        assert len(batches) == n_items // 8 == len(loader)
        assert all(mb.seeds.size == 8 for mb in batches)

    def test_epoch_indices_advance(self, task):
        loader = _loader(task)
        first = [mb.epoch for mb in loader.epoch()]
        second = [mb.epoch for mb in loader.epoch()]
        assert set(first) == {0} and set(second) == {1}
        assert loader.epochs_run == 2
        assert len(loader.stage_times) == len(first) + len(second)


class TestFeatureFetcher:
    def test_rows_match_source_array(self, task):
        _g, _labels, features, _mask, _val = task
        fetcher = FeatureFetcher(features=features)
        ids = np.array([3, 1, 4, 1])
        np.testing.assert_array_equal(fetcher.fetch(ids), features[ids])

    def test_cache_accounting_sums_to_accesses(self, task):
        g, _labels, features, _mask, _val = task
        obs = MetricsRegistry()
        cache = LRUCache(16)
        fetcher = FeatureFetcher(features=features, cache=cache, obs=obs)
        total = 0
        rng = np.random.default_rng(0)
        for _ in range(5):
            ids = rng.integers(0, g.num_vertices, size=20)
            fetcher.fetch(ids)
            total += ids.size
        assert fetcher.hits + fetcher.misses == total
        assert (cache.hits, cache.misses) == (fetcher.hits, fetcher.misses)
        assert obs.counter("gnn.loader.cache_hits", "").total == fetcher.hits
        assert obs.counter("gnn.loader.cache_misses", "").total == fetcher.misses
        row_bytes = features.shape[1] * features.dtype.itemsize
        assert (
            obs.counter("gnn.loader.bytes_fetched", "").total
            == fetcher.misses * row_bytes
        )

    def test_fetch_without_features_or_handle_rejected(self):
        with pytest.raises(TypeError):
            FeatureFetcher().fetch(np.array([0]))

    def test_fetches_from_stored_feature_shards(self, tmp_path):
        g = barabasi_albert(40, 2, seed=3)
        features = np.random.default_rng(3).normal(size=(40, 4))
        build_store(
            g, tmp_path / "s", partition="hash", num_parts=4,
            features=features, name="s",
        )
        loader = MiniBatchLoader(
            tmp_path / "s", items=np.arange(20), batch_size=8, fanouts=(2, 2),
        )
        for mb in loader.epoch():
            np.testing.assert_allclose(mb.x, features[mb.node_ids])

    def test_stored_loader_pages_rows_per_block(self, tmp_path):
        """No ``features=`` over a store: rows are fetched by id per
        block — the whole matrix is never read — and equal the
        explicit-array loader's."""
        g = barabasi_albert(40, 2, seed=3)
        features = np.random.default_rng(3).normal(size=(40, 4))
        build_store(
            g, tmp_path / "s", partition="hash", num_parts=4,
            features=features, name="s",
        )
        stored = open_store(tmp_path / "s")
        requested = []
        paged_read = stored.features

        def spy(ids=None):
            requested.append(ids)
            return paged_read(ids)

        stored.features = spy
        kwargs = dict(items=np.arange(20), batch_size=8, fanouts=(2, 2), seed=4)
        try:
            paged = list(MiniBatchLoader(stored, **kwargs).epoch())
        finally:
            stored.close()
        explicit = list(MiniBatchLoader(g, features=features, **kwargs).epoch())
        assert len(requested) == len(paged) == len(explicit) == 3
        assert all(ids is not None for ids in requested)
        for mb_p, mb_e in zip(paged, explicit):
            np.testing.assert_array_equal(mb_p.node_ids, mb_e.node_ids)
            np.testing.assert_array_equal(mb_p.x, mb_e.x)

    def test_owner_aware_fetch_bills_only_remote_misses(self, task):
        from repro.cluster.comm import Network

        _g, _labels, features, _mask, _val = task
        assignment = np.arange(features.shape[0]) % 3
        network = Network(3)
        fetcher = FeatureFetcher(
            features=features, cache=LRUCache(8),
            assignment=assignment, worker=0, network=network,
        )
        ids = np.array([0, 1, 2, 3, 4, 1])  # owners 0 1 2 0 1 1
        np.testing.assert_array_equal(fetcher.fetch(ids), features[ids])
        assert (fetcher.local_rows, fetcher.hits, fetcher.misses) == (2, 1, 3)
        row_bytes = features.shape[1] * features.dtype.itemsize
        assert network.stats.by_tag["features"] == 3 * row_bytes
        with pytest.raises(ValueError):
            FeatureFetcher(features=features, assignment=assignment)


class TestAccounting:
    def test_schedule_report_shapes(self, task):
        loader = _loader(task)
        for mb in loader.epoch():
            mb.record_compute(0.001)
        sched = loader.schedule_report()
        assert sched["batches"] == len(loader.stage_times) > 0
        assert sched["pipelined"]["makespan"] <= sched["sequential"]["makespan"]
        assert sched["overlap_speedup"] >= 1.0
        assert set(sched["utilization"]) == {"sample", "gather", "compute"}
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in sched["utilization"].values())

    def test_cache_report_mirrors_cache_stats(self, task):
        """The fetcher's count is the report, and the LRU core booked
        the same lookups."""
        cache = LRUCache(20)
        loader = _loader(task, cache=cache)
        for _ in loader.epoch():
            pass
        rep = loader.cache_report()
        assert set(rep) == {"hits", "misses", "hit_rate"}
        assert (rep["hits"], rep["misses"]) == (cache.hits, cache.misses)
        assert 0.0 <= rep["hit_rate"] <= 1.0

    @pytest.mark.parametrize("kind", ["lru", "static"])
    def test_hit_rate_monotone_in_capacity(self, task, kind):
        """Both caches are stack algorithms on the loader's own access
        stream: a larger cache never loses, and eventually wins."""
        g = task[0]
        rates = []
        for capacity in (4, 16, 48):
            cache = (
                LRUCache(capacity) if kind == "lru"
                else StaticDegreeCache(g, capacity)
            )
            loader = _loader(task, cache=cache)
            for _ in range(2):
                for _mb in loader.epoch():
                    pass
            rates.append(loader.fetcher.hit_rate)
        assert rates == sorted(rates)
        assert rates[-1] > rates[0]

    def test_loader_obs_counters(self, task):
        obs = MetricsRegistry()
        loader = _loader(task, obs=obs)
        gathered = sum(mb.gathered_nodes for mb in loader.epoch())
        assert obs.counter("gnn.loader.epochs", "").total == 1
        assert (
            obs.counter("gnn.loader.batches", "").total
            == len(loader.stage_times)
        )
        assert obs.counter("gnn.loader.gathered_nodes", "").total == gathered

    def test_prefetch_error_surfaces_on_consumer(self, task):
        loader = _loader(task, prefetch=2)
        sample = loader.sampler.sample

        def boom(seeds):
            if len(loader.stage_times) == 1:
                raise RuntimeError("producer died")
            return sample(seeds)

        loader.sampler.sample = boom
        batches = loader.epoch()
        assert next(batches).index == 0
        with pytest.raises(RuntimeError, match="producer died"):
            next(batches)


class TestPrefetchLifecycle:
    def test_slow_consumer_still_sees_end_of_epoch(self, task):
        """A step slower than any producer-side timeout must not lose
        the end-of-epoch sentinel (the consumer used to block forever)."""
        train_nodes = np.nonzero(task[3])[0]
        loader = _loader(task, items=train_nodes[:16], prefetch=1)
        seen = []

        def consume():
            for mb in loader.epoch():
                seen.append(mb.index)
                if mb.index == 0:
                    time.sleep(1.3)  # queue full, producer already done

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=10.0)
        assert not consumer.is_alive(), "consumer hung waiting for the sentinel"
        assert seen == [0, 1]

    def test_break_mid_epoch_joins_producer(self, task):
        before = threading.active_count()
        for _ in range(3):
            for _mb in _loader(task, prefetch=2).epoch():
                break
        assert threading.active_count() == before

    def test_raising_step_joins_producer(self, task):
        g, labels, features, train_mask, _val = task

        class FailingModel(NodeClassifier):
            def __call__(self, gt, x):
                raise RuntimeError("step failed")

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="step failed"):
            train_sampled(
                FailingModel(3, 8, 3, layer="sage", seed=0), g,
                features=features, labels=labels, train_mask=train_mask,
                batch_size=8, fanouts=(3, 3),
                loader=_loader(task, prefetch=2),
            )
        assert threading.active_count() == before


def _legacy_losses(task, epochs, batch_size, fanouts, lr, seed):
    """The pre-loader train_sampled inner loop, verbatim."""
    g, labels, features, train_mask, _val = task
    model = NodeClassifier(3, 8, 3, layer="sage", seed=seed)
    sampler = NeighborSampler(g, fanouts, seed=seed)
    optimizer = Adam(model.parameters(), lr=lr)
    train_nodes = np.nonzero(train_mask)[0]
    losses = []
    for _ in range(epochs):
        for block in _loop_blocks(sampler, train_nodes, batch_size):
            x = Tensor(features[block.node_ids])
            optimizer.zero_grad()
            logits = model(block.tensors(), x)
            loss = logits.gather_rows(block.seed_local).cross_entropy(
                labels[block.node_ids[block.seed_local]]
            )
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
    return losses


class TestTrainSampledBitIdentity:
    EPOCHS, BATCH, FANOUTS, LR, SEED = 3, 8, (3, 3), 0.02, 0

    def _train(self, task, model=None, graph=None, **kwargs):
        g, labels, features, train_mask, val_mask = task
        kwargs.setdefault("features", features)
        kwargs.setdefault("val_mask", val_mask)
        return train_sampled(
            model or NodeClassifier(3, 8, 3, layer="sage", seed=self.SEED),
            g if graph is None else graph,
            labels=labels, train_mask=train_mask,
            epochs=self.EPOCHS, batch_size=self.BATCH, fanouts=self.FANOUTS,
            lr=self.LR, seed=self.SEED, **kwargs,
        )

    def test_losses_match_legacy_loop_exactly(self, task):
        legacy = _legacy_losses(
            task, self.EPOCHS, self.BATCH, self.FANOUTS, self.LR, self.SEED
        )
        assert self._train(task).losses == legacy

    def test_prefetch_preserves_losses(self, task):
        loader = _loader(task, batch_size=self.BATCH, seed=self.SEED,
                         prefetch=3)
        assert (self._train(task, loader=loader).losses
                == self._train(task).losses)

    def test_exact_eval_preserves_losses(self, task):
        # Evaluation draws no random numbers, so scoring with or without
        # a val set leaves the training stream, and the losses, untouched.
        report = self._train(task)
        assert self._train(task, val_mask=None).losses == report.losses
        assert report.eval_s > 0.0

    def test_eval_scores_the_full_forward(self, task):
        g, labels, features, train_mask, val_mask = task
        model = NodeClassifier(3, 8, 3, layer="sage", seed=self.SEED)
        report = self._train(task, model=model)
        with no_grad():
            out = model(GraphTensors(g), Tensor(features)).data
        assert report.train_accuracy[-1] == accuracy(out, labels, train_mask)
        assert report.val_accuracy[-1] == accuracy(out, labels, val_mask)

    def test_featureless_handle_raises_the_fetchers_type_error(self, task):
        # The loader carries the features, so training runs; evaluation
        # then needs rows the graph does not have.
        loader = _loader(task, batch_size=self.BATCH, seed=self.SEED)
        with pytest.raises(TypeError, match="FeatureFetcher needs features"):
            self._train(task, features=None, loader=loader)

    def test_stored_graph_builds_eval_inputs_once(self, task, tmp_path,
                                                  monkeypatch):
        # Rows come from the store's feature shards, and the whole-graph
        # tensors are built once per training call, not once per epoch.
        g, labels, features, train_mask, val_mask = task
        reference = self._train(task)
        root = str(tmp_path / "g")
        build_store(g, root, partition="hash", num_parts=3, features=features)
        built = []
        monkeypatch.setattr(
            train_module, "GraphTensors",
            lambda handle: built.append(handle) or GraphTensors(handle),
        )
        with open_store(root) as stored:
            report = self._train(task, graph=stored, features=None)
        assert len(built) == 1
        assert report.losses == reference.losses
        assert report.train_accuracy == reference.train_accuracy
        assert report.val_accuracy == reference.val_accuracy

    def test_sampled_eval_records_accuracies(self, task):
        report = self._train(task)
        assert len(report.val_accuracy) == self.EPOCHS
        assert len(report.train_accuracy) == self.EPOCHS
        assert all(0.0 <= a <= 1.0 for a in report.val_accuracy)

    def test_external_loader_reused(self, task):
        g, _labels, features, train_mask, _val = task
        loader = _loader(task, batch_size=self.BATCH, seed=self.SEED)
        report = self._train(task, loader=loader)
        assert loader.epochs_run == self.EPOCHS
        assert report.steps == self.EPOCHS * len(loader)
        # The trainer fed its compute seconds back into the loader.
        assert any(t.compute > 0 for t in loader.stage_times)


class TestInferSampled:
    def test_deterministic_at_fixed_seed(self, task):
        g, _labels, features, _mask, _val = task
        model = NodeClassifier(3, 8, 3, layer="sage", seed=0)
        a = infer_sampled(model, g, features=features, seed=5)
        b = infer_sampled(model, g, features=features, seed=5)
        np.testing.assert_array_equal(a, b)
        assert a.size == g.num_vertices

    def test_full_fanout_matches_full_forward(self, task):
        g, _labels, features, _mask, _val = task
        model = NodeClassifier(3, 8, 3, layer="sage", seed=0)
        nodes = np.arange(0, g.num_vertices, 3)
        sampled = infer_sampled(
            model, g, features=features, nodes=nodes, fanouts=(-1, -1)
        )
        with no_grad():
            logits = model(GraphTensors(g), Tensor(features)).data
        np.testing.assert_array_equal(sampled, np.argmax(logits[nodes], axis=1))

    def test_report_accounts_cost(self, task):
        g, _labels, features, _mask, _val = task
        model = NodeClassifier(3, 8, 3, layer="sage", seed=0)
        nodes = np.array([0, 5, 10, 15])
        rep = InferReport()
        infer_sampled(
            model, g, features=features, nodes=nodes, batch_size=2,
            fanouts=(2, 2), report=rep,
        )
        assert rep.batches == 2
        assert rep.seeds == nodes.size
        assert rep.messages > 0
        assert rep.gathered_features >= nodes.size

    @pytest.mark.parametrize("stored", [False, True])
    def test_matches_inline_block_loop(self, task, tmp_path, stored):
        """The pass equals an inline forward loop over
        ``sampled_inference_blocks``: predictions and every count."""
        g, _labels, features, _mask, _val = task
        model = NodeClassifier(3, 8, 3, layer="sage", seed=0)
        nodes = np.arange(1, g.num_vertices, 2)
        handle = g
        if stored:
            build_store(
                g, tmp_path / "s", partition="hash", num_parts=3,
                features=features, name="s",
            )
            handle = open_store(tmp_path / "s")
        try:
            want, batches, gathered, messages = [], 0, 0, 0
            for block in sampled_inference_blocks(handle, nodes, (3, 3), 9, 8):
                gt = block.tensors()
                with no_grad():
                    logits = model(gt, Tensor(features[block.node_ids])).data
                want.append(np.argmax(logits[block.seed_local], axis=1))
                batches += 1
                gathered += block.gathered_nodes
                messages += int(gt.num_messages)
            rep = InferReport()
            got = infer_sampled(
                model, handle, features=None if stored else features,
                nodes=nodes, batch_size=8, fanouts=(3, 3), seed=9, report=rep,
            )
        finally:
            if stored:
                handle.close()
        np.testing.assert_array_equal(got, np.concatenate(want))
        assert (rep.batches, rep.seeds) == (batches, nodes.size)
        assert (rep.gathered_features, rep.messages) == (gathered, messages)
