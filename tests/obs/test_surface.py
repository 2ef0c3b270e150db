"""The public surface of ``repro.obs``: exactly what the library calls.

Aggregation happens one way — components that are counted together
write into one shared :class:`MetricsRegistry` — so the metric kinds,
their bound handles, the registry and the tracer carry write paths,
reads and an ``as_dict()`` snapshot, and nothing that folds, clears or
re-serializes them.  A member added here is one the library now
depends on; list it deliberately.
"""

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, StatsViewMixin, Tracer


def _public_members(obj) -> set:
    return {name for name in dir(obj) if not name.startswith("_")}


_METRIC = {"name", "description", "kind", "labels", "series", "as_dict"}


def test_metric_kinds_expose_writes_reads_and_a_snapshot():
    assert _public_members(Counter("c")) == _METRIC | {
        "inc", "value", "total", "total_where",
    }
    assert _public_members(Gauge("g")) == _METRIC | {
        "set", "inc", "set_max", "value", "values",
    }
    assert _public_members(Histogram("h")) == _METRIC | {
        "bounds", "observe", "count", "sum", "mean",
    }


def test_bound_handles_expose_only_writes():
    registry = MetricsRegistry()
    handle = {"metric", "key"}
    assert _public_members(registry.counter("c").labels()) == handle | {"inc"}
    assert _public_members(registry.gauge("g").labels()) == handle | {
        "set", "inc", "set_max",
    }
    assert _public_members(registry.histogram("h").labels()) == handle | {"observe"}


def test_registry_tracer_and_stats_mixin():
    assert _public_members(MetricsRegistry()) == {
        "counter", "gauge", "histogram", "get", "names", "as_dict",
    }
    assert _public_members(Tracer()) == {
        "sim_clock", "roots", "span", "current", "find", "as_dict",
    }
    assert _public_members(StatsViewMixin()) == {"as_dict", "extra_dict"}
