"""Unit tests for the metrics registry: counters, gauges, histograms."""

import json

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero(self):
        c = Counter("x")
        assert c.value() == 0
        assert c.total == 0

    def test_inc_default_and_amount(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_labeled_series_are_independent(self):
        c = Counter("bytes")
        c.inc(10, locality="local")
        c.inc(3, locality="remote")
        c.inc(2, locality="remote")
        assert c.value(locality="local") == 10
        assert c.value(locality="remote") == 5
        assert c.total == 15

    def test_label_order_is_irrelevant(self):
        c = Counter("x")
        c.inc(1, a="1", b="2")
        c.inc(1, b="2", a="1")
        assert c.value(a="1", b="2") == 2

    def test_monotonic(self):
        c = Counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_merge_adds_by_series(self):
        a, b = Counter("x"), Counter("x")
        a.inc(1, k="a")
        b.inc(2, k="a")
        b.inc(5, k="b")
        a.merge(b)
        assert a.value(k="a") == 3
        assert a.value(k="b") == 5

    def test_merge_rejects_other_kinds_and_names(self):
        with pytest.raises(ValueError):
            Counter("x").merge(Gauge("x"))
        with pytest.raises(ValueError):
            Counter("x").merge(Counter("y"))

    def test_reset(self):
        c = Counter("x")
        c.inc(3, k="a")
        c.reset()
        assert c.total == 0

    def test_series_rendering(self):
        c = Counter("x")
        c.inc(2, worker="0")
        c.inc(1)
        assert c.series() == {"": 1, "worker=0": 2}


class TestGauge:
    def test_set_and_value(self):
        g = Gauge("depth")
        g.set(7)
        assert g.value() == 7

    def test_inc_dec(self):
        g = Gauge("depth")
        g.inc(3)
        g.dec()
        assert g.value() == 2

    def test_set_max_keeps_peak(self):
        g = Gauge("peak")
        g.set_max(5)
        g.set_max(3)
        g.set_max(9)
        assert g.value() == 9

    def test_merge_takes_max_per_series(self):
        a, b = Gauge("peak"), Gauge("peak")
        a.set(5, worker="0")
        b.set(3, worker="0")
        b.set(8, worker="1")
        a.merge(b)
        assert a.value(worker="0") == 5
        assert a.value(worker="1") == 8


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram("ops")
        for v in (1, 2, 3, 10):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == 16
        assert h.mean() == 4.0

    def test_min_max_tracked(self):
        h = Histogram("ops")
        h.observe(5)
        h.observe(100)
        s = h.series()[""]
        assert s["min"] == 5
        assert s["max"] == 100

    def test_custom_buckets_and_overflow(self):
        h = Histogram("t", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5)
        h.observe(50)  # overflow bucket
        buckets = h.series()[""]["buckets"]
        assert buckets == {"1.0": 1, "10.0": 1, "+inf": 1}

    def test_percentile_estimate(self):
        h = Histogram("t", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (1, 1, 2, 2, 8):
            h.observe(v)
        assert h.percentile(0.5) <= 2.0
        assert h.percentile(1.0) == 8.0

    def test_percentile_empty(self):
        assert Histogram("t").percentile(0.5) == 0.0

    def test_labeled_series(self):
        h = Histogram("t")
        h.observe(1, stage="a")
        h.observe(2, stage="b")
        assert h.count(stage="a") == 1
        assert h.count(stage="b") == 1
        assert h.count() == 0

    def test_merge_combines_counts(self):
        a, b = Histogram("t"), Histogram("t")
        a.observe(1)
        b.observe(100)
        a.merge(b)
        assert a.count() == 2
        assert a.series()[""]["min"] == 1
        assert a.series()[""]["max"] == 100

    def test_merge_rejects_differing_buckets(self):
        with pytest.raises(ValueError):
            Histogram("t", buckets=(1,)).merge(Histogram("t", buckets=(2,)))

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("t", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_contains_get_names(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert "a" in reg and "b" in reg
        assert reg.get("c") is None
        assert reg.names() == ["a", "b"]

    def test_as_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", "a counter").inc(2)
        snap = reg.as_dict()
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["description"] == "a counter"
        assert snap["c"]["series"] == {"": 2}

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2, k="v")
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(3)
        parsed = json.loads(reg.to_json(indent=2))
        assert parsed == reg.as_dict()

    def test_reset_clears_all(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(1)
        reg.reset()
        assert reg.counter("c").total == 0
        assert reg.histogram("h").count() == 0


def _registry(counter=0, gauge=0, hist=()):
    reg = MetricsRegistry()
    if counter:
        reg.counter("c").inc(counter)
    if gauge:
        reg.gauge("g").set(gauge)
    for v in hist:
        reg.histogram("h").observe(v)
    return reg


class TestRegistryMerge:
    def test_merge_disjoint_metrics(self):
        a = _registry(counter=1)
        b = MetricsRegistry()
        b.gauge("other").set(5)
        a.merge(b)
        assert a.counter("c").total == 1
        assert a.gauge("other").value() == 5

    def test_merge_does_not_alias_source(self):
        a, b = MetricsRegistry(), _registry(counter=3)
        a.merge(b)
        a.counter("c").inc(10)
        assert b.counter("c").total == 3  # source untouched

    def test_merge_is_associative(self):
        def snap(*regs):
            acc = MetricsRegistry()
            for r in regs:
                acc.merge(r)
            return acc.as_dict()

        a = _registry(counter=1, gauge=5, hist=(1, 2))
        b = _registry(counter=2, gauge=9, hist=(100,))
        c = _registry(counter=4, gauge=7, hist=(3,))
        # (a + b) + c == a + (b + c), element-wise on the snapshot.
        left = MetricsRegistry().merge(a).merge(b).merge(c).as_dict()
        bc = MetricsRegistry().merge(b).merge(c)
        right = MetricsRegistry().merge(a).merge(bc).as_dict()
        assert left == right == snap(a, b, c)

    def test_merge_is_commutative(self):
        a = _registry(counter=1, gauge=5, hist=(1, 2))
        b = _registry(counter=2, gauge=9, hist=(100,))
        ab = MetricsRegistry().merge(a).merge(b).as_dict()
        ba = MetricsRegistry().merge(b).merge(a).as_dict()
        assert ab == ba


def _write(registry, bound):
    """One batch of writes, through bound handles or keyword labels."""
    c = registry.counter("reqs", "by endpoint and status")
    g = registry.gauge("depth")
    h = registry.histogram("lat", buckets=[1, 4, 16])
    for endpoint, status, amount, value in [
        ("a", "ok", 1, 3.0), ("b", "shed", 2, 0.5), ("a", "ok", 4, 20.0),
        ("a", "error", 1, 4.0), ("c.status=ok", "ok", 1, 1.0),
    ]:
        if bound:
            c.labels(endpoint=endpoint, status=status).inc(amount)
            c.labels().inc()
            g.labels(endpoint=endpoint).set_max(value)
            g.labels().inc(amount)
            g.labels().dec()
            h.labels(endpoint=endpoint).observe(value)
            h.labels().observe(value)
        else:
            c.inc(amount, endpoint=endpoint, status=status)
            c.inc()
            g.set_max(value, endpoint=endpoint)
            g.inc(amount)
            g.dec()
            h.observe(value, endpoint=endpoint)
            h.observe(value)
    if bound:
        g.labels(pinned="yes").set(7)
    else:
        g.set(7, pinned="yes")


class TestBoundHandles:
    def test_handle_writes_export_like_keyword_writes(self):
        bound, kwargs = MetricsRegistry(), MetricsRegistry()
        _write(bound, bound=True)
        _write(kwargs, bound=False)
        assert bound.as_dict() == kwargs.as_dict()
        assert bound.to_json() == kwargs.to_json()
        assert bound.to_json(indent=2) == kwargs.to_json(indent=2)

    def test_binding_creates_no_series(self):
        registry = MetricsRegistry()
        registry.counter("c").labels(endpoint="a")
        registry.gauge("g").labels()
        registry.histogram("h").labels(endpoint="a")
        assert all(m.series() == {} for m in registry)

    def test_label_order_does_not_matter(self):
        c = Counter("c")
        c.labels(b=2, a=1).inc()
        c.labels(a=1, b=2).inc()
        assert c.series() == {"a=1,b=2": 2}

    def test_handle_survives_reset(self):
        registry = MetricsRegistry()
        c = registry.counter("c").labels(endpoint="a")
        g = registry.gauge("g").labels()
        h = registry.histogram("h", buckets=[1, 2]).labels(endpoint="a")
        c.inc(3)
        g.set_max(5)
        h.observe(2)
        registry.reset()
        assert all(m.series() == {} for m in registry)
        c.inc(2)
        g.set_max(1)
        h.observe(1)
        assert registry.counter("c").value(endpoint="a") == 2
        assert registry.gauge("g").value() == 1
        assert registry.histogram("h").count(endpoint="a") == 1
        assert registry.histogram("h").sum(endpoint="a") == 1.0

    def test_handle_survives_merge(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        c = mine.counter("c").labels(endpoint="a")
        h = mine.histogram("h", buckets=[1, 2]).labels()
        c.inc(1)
        theirs.counter("c").inc(10, endpoint="a")
        theirs.histogram("h", buckets=[1, 2]).observe(5)
        mine.merge(theirs)
        c.inc(2)
        h.observe(1)
        assert mine.counter("c").value(endpoint="a") == 13
        assert mine.histogram("h").count() == 2
        # The donor registry is untouched by writes through ``mine``.
        assert theirs.counter("c").value(endpoint="a") == 10

    def test_negative_inc_through_handle_raises(self):
        c = Counter("c")
        handle = c.labels(endpoint="a")
        with pytest.raises(ValueError, match="cannot decrease"):
            handle.inc(-1)
        with pytest.raises(ValueError, match="cannot decrease"):
            c.labels().inc(-0.5)
        assert c.series() == {}


class TestTotalWhere:
    def test_matches_label_values_exactly(self):
        c = Counter("reqs")
        c.inc(1, endpoint="probe.status=shed", status="ok")
        c.inc(2, endpoint="a", status="shed")
        c.inc(4, endpoint="a", status="shed_later")
        assert c.total_where(status="shed") == 2
        assert c.total_where(status="ok") == 1
        assert c.total_where(endpoint="a") == 6
        assert c.total_where(endpoint="a", status="shed") == 2
        assert c.total_where() == c.total == 7
        assert c.total_where(status="missing") == 0
