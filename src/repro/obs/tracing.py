"""Span-based tracing with wall-clock *and* simulated-clock durations.

The engines in this library run simulations: the TLAG task engine
advances per-worker virtual clocks, the staleness simulator advances
virtual step times, the TLAV engine counts supersteps.  A profiler that
only measures wall time would measure the *simulator*, not the system
being simulated — so a :class:`Span` carries two clocks:

* **wall** — ``time.perf_counter()`` seconds, what the host paid;
* **sim** — optional simulated time, read from a ``sim_clock`` callable
  at span start/end (or set explicitly), in whatever unit the engine
  uses (ops, supersteps, seconds).

Spans nest: entering a span inside another makes it a child, and the
export preserves the tree — ``Pipeline`` uses this for per-stage
timings, the TLAV engine for per-superstep records.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One timed region; build through :meth:`Tracer.span`."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "wall_start",
        "wall_end",
        "sim_start",
        "sim_end",
        "_sim_clock",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        sim_clock: Optional[Callable[[], float]] = None,
        attrs: Optional[Dict[str, Any]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.wall_start: float = 0.0
        self.wall_end: Optional[float] = None
        self.sim_start: Optional[float] = None
        self.sim_end: Optional[float] = None
        self._sim_clock = sim_clock
        self._tracer = tracer

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Span":
        self.wall_start = time.perf_counter()
        if self._sim_clock is not None:
            self.sim_start = float(self._sim_clock())
        return self

    def finish(self) -> "Span":
        self.wall_end = time.perf_counter()
        if self._sim_clock is not None:
            self.sim_end = float(self._sim_clock())
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()
        if self._tracer is not None:
            self._tracer._pop(self)

    # -- readings ----------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        end = self.wall_end if self.wall_end is not None else time.perf_counter()
        return end - self.wall_start

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    @property
    def finished(self) -> bool:
        return self.wall_end is not None

    def set(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def set_sim(self, start: float, end: float) -> "Span":
        """Explicitly record simulated start/end (no sim_clock needed)."""
        self.sim_start = float(start)
        self.sim_end = float(end)
        return self

    # -- export ------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        from .stats import json_safe

        out: Dict[str, Any] = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
        }
        if self.sim_duration is not None:
            out["sim_start"] = self.sim_start
            out["sim_end"] = self.sim_end
            out["sim_duration"] = self.sim_duration
        if self.attrs:
            out["attrs"] = json_safe(self.attrs)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sim = f", sim={self.sim_duration}" if self.sim_duration is not None else ""
        return f"Span({self.name!r}, wall={self.wall_seconds:.6f}s{sim})"


class Tracer:
    """Collects a forest of spans; thread it through one run.

    ``sim_clock`` set on the tracer is inherited by every span it
    opens; a per-span ``sim_clock`` overrides it.
    """

    def __init__(self, sim_clock: Optional[Callable[[], float]] = None) -> None:
        self.roots: List[Span] = []
        self.sim_clock = sim_clock
        self._stack: List[Span] = []

    def span(
        self,
        name: str,
        sim_clock: Optional[Callable[[], float]] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span (use as a context manager)."""
        span = Span(
            name,
            sim_clock=sim_clock or self.sim_clock,
            attrs=attrs,
            tracer=self,
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span.start()

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- queries -----------------------------------------------------------

    def _walk(self, spans: List[Span]):
        for s in spans:
            yield s
            yield from self._walk(s.children)

    def find(self, name: str) -> List[Span]:
        """All spans (any depth) with the given name."""
        return [s for s in self._walk(self.roots) if s.name == name]

    # -- export ------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {"spans": [s.as_dict() for s in self.roots]}
