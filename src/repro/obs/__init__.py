"""Unified observability: metrics registry, tracing, and the stats protocol.

Every quantified claim this reproduction regenerates is an argument
about *measured counters* — messages, bytes, steals, idle time, cache
hits.  Before this package each engine reported them through its own
ad-hoc dataclass; :mod:`repro.obs` gives them one substrate:

* :class:`MetricsRegistry` — labeled counters, gauges and histograms
  with dict/JSON export and associative ``merge`` (so per-worker or
  per-shard registries combine into a cluster view);
* :class:`Tracer` / :class:`Span` — span-based tracing that records
  **both** wall-clock time and the engines' *simulated* clocks (the
  TLAG task engine and the staleness simulator advance virtual time;
  a span can carry either or both);
* :class:`StatsView` — the protocol (``as_dict()`` / ``merge()`` /
  ``to_json()``) every stats object in the library now implements,
  replacing three inconsistent reporting shapes.

The engines accept an optional ``obs=`` registry; when none is given
they create a private one, so existing call sites are unchanged while
callers that care can pass a shared registry and get one merged
snapshot across subsystems.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "metrics": ("Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry"),
    "stats": ("StatsView", "StatsViewMixin", "json_safe", "merge_counters"),
    "tracing": ("Span", "Tracer"),
})
