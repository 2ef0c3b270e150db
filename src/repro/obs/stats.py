"""The export shape shared by all stats objects.

Every stats/report record in the library (``tlag.engine.EngineStats``,
``cluster.comm.CommStats``, the GNN trainers' reports, ...) exports
through ``as_dict()``: a JSON-serializable dict of its counters plus
the derived fields its :meth:`StatsViewMixin.extra_dict` lists.
Components that must be counted as one share a
:class:`~repro.obs.MetricsRegistry` rather than fold records; only
``MatchStats`` and ``tlag.distributed.CacheStats``, which production
code folds, keep a ``merge``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

import numpy as np

__all__ = ["StatsViewMixin", "json_safe"]


def json_safe(value: Any) -> Any:
    """Recursively convert ``value`` into something ``json.dumps`` accepts.

    numpy scalars become python scalars, arrays become nested lists,
    dataclasses and objects with ``as_dict`` flatten to dicts, sets are
    sorted into lists; anything else unknown falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else str(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return json_safe(float(value))
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json_safe(v) for v in value)
    if hasattr(value, "as_dict"):
        return json_safe(value.as_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: json_safe(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return str(value)


class StatsViewMixin:
    """Default ``as_dict`` for dataclass-shaped stats.

    ``as_dict`` serializes dataclass fields (skipping private ones) plus
    whatever :meth:`extra_dict` contributes — subclasses list derived
    properties (hit rates, makespans) there so exports carry them.
    """

    def extra_dict(self) -> Dict[str, Any]:
        return {}

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if dataclasses.is_dataclass(self):
            for f in dataclasses.fields(self):
                if not f.name.startswith("_"):
                    out[f.name] = json_safe(getattr(self, f.name))
        out.update(json_safe(self.extra_dict()))
        return out
