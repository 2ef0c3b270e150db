"""Unified observability: metrics registry, tracing, and the stats export.

Every quantified claim this reproduction regenerates is an argument
about *measured counters* — messages, bytes, steals, idle time, cache
hits.  :mod:`repro.obs` gives them one substrate:

* :class:`MetricsRegistry` — labeled counters, gauges and histograms
  with a dict snapshot (``as_dict()``);
* :class:`Tracer` / :class:`Span` — span-based tracing that records
  **both** wall-clock time and the engines' *simulated* clocks (the
  TLAG task engine and the staleness simulator advance virtual time;
  a span can carry either or both);
* :class:`StatsViewMixin` — the ``as_dict()`` export every stats record
  in the library shares.

Aggregation happens one way: the engines accept an optional ``obs=``
registry, and components that must be counted together (simulated
workers, engines, pipeline stages) share one.  When none is given an
engine creates a private registry, so a caller that passes nothing
still reads its counters, and a caller that passes one registry reads
every subsystem in one snapshot.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "metrics": ("Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry"),
    "stats": ("StatsViewMixin", "json_safe"),
    "tracing": ("Span", "Tracer"),
})
