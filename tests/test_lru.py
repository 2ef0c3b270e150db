"""The budgeted LRU core: plain cases, a model-based property test, and
the cross-client trace replay."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.gnn.caching import LRUCache
from repro.graph.store.stored import ShardCache
from repro.lru import LRU


class TestPlainCases:
    def test_miss_then_hit(self):
        cache = LRU(2)
        assert cache.get(5) is None
        cache.put(5, np.array([1, 2]))
        assert cache.get(5) is not None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction(self):
        cache = LRU(2)
        cache.put(1, np.array([0]))
        cache.put(2, np.array([0]))
        cache.get(1)          # refresh 1
        assert cache.put(3, np.array([0])) == 1  # evicts 2
        assert cache.get(2) is None
        assert cache.get(1) is not None
        assert cache.evictions == 1

    def test_zero_budget_keeps_only_the_newest(self):
        # The entry just put is in use by the caller and never evicted;
        # clients that want "admit nothing" at capacity 0 do not put.
        cache = LRU(0)
        cache.put(1, np.array([0]))
        assert cache.get(1) is not None
        cache.put(2, np.array([0]))
        assert cache.get(1) is None and len(cache) == 1

    def test_heavier_than_budget_stays_alone(self):
        dropped = []
        cache = LRU(10, on_evict=lambda k, v: dropped.append(k))
        cache.put("a", 1, weight=4)
        cache.put("b", 2, weight=4)
        assert cache.put("huge", 3, weight=50) == 2
        assert list(cache) == ["huge"] and cache.weight == 50
        assert dropped == ["a", "b"]
        cache.put("c", 4, weight=1)  # now "huge" is the oldest and goes
        assert list(cache) == ["c"] and cache.weight == 1

    def test_replacing_a_value_reweighs_without_callback(self):
        dropped = []
        cache = LRU(None, on_evict=lambda k, v: dropped.append((k, v)))
        cache.put("a", 1, weight=3)
        cache.put("b", 2, weight=3)
        cache.put("a", 9, weight=5)
        assert cache.weight == 8 and list(cache) == ["b", "a"]
        assert dropped == []

    def test_pop_and_clear_fire_the_callback_but_are_not_evictions(self):
        dropped = []
        cache = LRU(4, on_evict=lambda k, v: dropped.append((k, v)))
        for k in "abc":
            cache.put(k, k.upper())
        assert cache.pop("b") == "B"
        assert cache.pop("b", "gone") == "gone"
        cache.clear()
        assert dropped == [("b", "B"), ("a", "A"), ("c", "C")]
        assert cache.evictions == 0 and cache.weight == 0 and len(cache) == 0

    def test_peek_leaves_the_books_alone(self):
        cache = LRU(2)
        cache.put(1, "x")
        cache.put(2, "y")
        assert cache.peek(1) == "x" and cache.peek(3, "d") == "d"
        assert (cache.hits, cache.misses) == (0, 0)
        assert list(cache) == [1, 2]
        assert cache.peek(1, refresh=True) == "x"
        assert list(cache) == [2, 1]


KEYS = st.integers(0, 7)
WEIGHTS = st.integers(1, 12)


class LRUAgainstListModel(RuleBasedStateMachine):
    """Random get/put/pop/clear against a naive list model: same
    survivors in the same order, same books, and the callback fired
    exactly once per departed entry — never for the key just put."""

    @initialize(budget=st.one_of(st.none(), st.integers(0, 8)))
    def start(self, budget):
        self.budget = budget
        self.fired = []
        self.lru = LRU(budget, on_evict=lambda k, v: self.fired.append((k, v)))
        self.model = []  # [key, value, weight], least recent first
        self.expect_fired = []
        self.hits = self.misses = self.evictions = 0
        self.serial = 0

    def _find(self, key):
        for i, row in enumerate(self.model):
            if row[0] == key:
                return i
        return None

    @rule(key=KEYS)
    def get(self, key):
        i = self._find(key)
        got = self.lru.get(key, "absent")
        if i is None:
            self.misses += 1
            assert got == "absent"
        else:
            self.hits += 1
            row = self.model.pop(i)
            self.model.append(row)
            assert got == row[1]

    @rule(key=KEYS, refresh=st.booleans())
    def peek(self, key, refresh):
        i = self._find(key)
        got = self.lru.peek(key, "absent", refresh=refresh)
        if i is None:
            assert got == "absent"
            return
        assert got == self.model[i][1]
        if refresh:
            self.model.append(self.model.pop(i))

    @rule(key=KEYS, weight=WEIGHTS)
    def put(self, key, weight):
        self.serial += 1
        i = self._find(key)
        if i is not None:
            self.model.pop(i)
        self.model.append([key, self.serial, weight])
        evicted = 0
        if self.budget is not None:
            while (
                sum(row[2] for row in self.model) > self.budget
                and len(self.model) > 1
            ):
                gone = self.model.pop(0)
                self.expect_fired.append((gone[0], gone[1]))
                evicted += 1
        self.evictions += evicted
        before = len(self.fired)
        assert self.lru.put(key, self.serial, weight) == evicted
        assert key not in [k for k, _ in self.fired[before:]]

    @rule(key=KEYS)
    def pop(self, key):
        i = self._find(key)
        got = self.lru.pop(key, "absent")
        if i is None:
            assert got == "absent"
            return
        row = self.model.pop(i)
        self.expect_fired.append((row[0], row[1]))
        assert got == row[1]

    @rule()
    def clear(self):
        self.expect_fired.extend((row[0], row[1]) for row in self.model)
        self.model = []
        self.lru.clear()

    @invariant()
    def same_survivors_books_and_callbacks(self):
        assert list(self.lru) == [row[0] for row in self.model]
        assert [self.lru.peek(k) for k in self.lru] == [row[1] for row in self.model]
        assert len(self.lru) == len(self.model)
        assert all(row[0] in self.lru for row in self.model)
        assert self.lru.weight == sum(row[2] for row in self.model)
        assert (self.lru.hits, self.lru.misses, self.lru.evictions) == (
            self.hits, self.misses, self.evictions,
        )
        assert self.fired == self.expect_fired


TestLRUAgainstListModel = LRUAgainstListModel.TestCase
TestLRUAgainstListModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


def _zipfish(seed, n, length):
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.4, size=length) % n).tolist()


@pytest.mark.parametrize("capacity", [1, 3, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_clients_and_core_agree_on_one_trace(capacity, seed):
    """ShardCache (unit-byte pages), LRUCache and the bare core replay
    one trace to the same per-access (hit, evictions-so-far) sequence."""
    trace = _zipfish(seed, 24, 400)

    core, core_seq = LRU(capacity), []
    for v in trace:
        hit = core.get(v) is not None
        if not hit:
            core.put(v, True)
        core_seq.append((hit, core.evictions))

    shards, shard_seq = ShardCache(capacity), []
    page = np.zeros(1)
    for v in trace:
        before = shards.stats.hits
        shards.get((v, "indptr"), lambda: page, 1)
        stats = shards.stats
        shard_seq.append((stats.hits > before, stats.evictions))

    rows, row_seq = LRUCache(capacity), []
    for v in trace:
        row_seq.append((rows.lookup(v), rows.stats.evictions))

    assert shard_seq == core_seq
    assert row_seq == core_seq
    assert core.evictions > 0
    assert shards.stats.misses == rows.stats.misses == core.misses
    assert shards.resident_bytes == len(rows._lru) == len(core)
