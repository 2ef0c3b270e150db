"""Think-like-a-vertex (TLAV) BSP engine.

A faithful in-process Pregel [47]: computation proceeds in supersteps;
in each superstep every *active* vertex receives the messages sent to it
in the previous superstep, runs the user's vertex program, may send
messages and mutate its value, and may vote to halt.  The run ends when
all vertices have halted and no messages are in flight.

Supported Pregel features:

* **combiners** — commutative/associative message reduction applied at
  the sender side (Pregel's bandwidth optimization);
* **aggregators** — global reductions visible to every vertex in the
  next superstep (e.g. the dangling-mass sum of PageRank);
* **vote-to-halt** with reactivation on message arrival;
* a **superstep limit** guard;
* checkpoint state as plain data (:meth:`PregelEngine.state` /
  :meth:`PregelEngine.restore`), taken at superstep boundaries.

The engine exists both as the baseline the tutorial's Section 2
contrasts against (TLAV cannot accelerate subgraph search) and as the
workhorse of the Figure-1 "vertex analytics" path.  The distributed
variant in :mod:`repro.tlav.distributed` is this engine plus placement:
it overrides only the vertex order, where a message is staged, and how
staged messages are delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generic, Iterable, List, Optional, TypeVar

from ..graph.csr import Graph
from ..graph.store.handle import as_handle
from ..obs import MetricsRegistry, StatsViewMixin, Tracer

__all__ = ["VertexProgram", "VertexContext", "PregelEngine", "SuperstepStats"]

V = TypeVar("V")  # vertex value type
M = TypeVar("M")  # message type


class VertexProgram(Generic[V, M]):
    """User-defined vertex behaviour.

    Subclass and implement :meth:`init` and :meth:`compute`.  The engine
    calls ``compute(ctx, messages)`` for every active vertex each
    superstep; ``ctx`` exposes the vertex id, its value, its neighbors,
    message sending, aggregators and ``vote_to_halt``.
    """

    def init(self, vertex: int, graph: Graph) -> V:
        """Initial value of ``vertex``."""
        raise NotImplementedError

    def compute(self, ctx: "VertexContext[V, M]", messages: List[M]) -> None:
        """One superstep of work at one vertex."""
        raise NotImplementedError

    def combine(self, a: M, b: M) -> M:
        """Optional message combiner; override to enable combining.

        Must be commutative and associative.  The engine detects the
        override and applies it at enqueue time, mirroring Pregel's
        sender-side combiners.
        """
        raise NotImplementedError


class VertexContext(Generic[V, M]):
    """The view of the engine a vertex program sees during ``compute``."""

    __slots__ = ("vertex", "_engine",)

    def __init__(self, vertex: int, engine: "PregelEngine") -> None:
        self.vertex = vertex
        self._engine = engine

    @property
    def superstep(self) -> int:
        return self._engine.superstep

    @property
    def graph(self) -> Graph:
        return self._engine.graph

    @property
    def num_vertices(self) -> int:
        return self._engine.graph.num_vertices

    @property
    def value(self) -> Any:
        return self._engine.values[self.vertex]

    @value.setter
    def value(self, new_value: Any) -> None:
        self._engine.values[self.vertex] = new_value

    def neighbors(self):
        return self._engine.graph.neighbors(self.vertex)

    def degree(self) -> int:
        return self._engine.graph.degree(self.vertex)

    def send(self, dst: int, message: Any) -> None:
        """Queue a message for delivery next superstep."""
        self._engine._send(self.vertex, int(dst), message)

    def send_to_neighbors(self, message: Any) -> None:
        for w in self.neighbors():
            self.send(int(w), message)

    def vote_to_halt(self) -> None:
        self._engine._halted[self.vertex] = True

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute to a global aggregator for the next superstep."""
        self._engine._aggregate(name, value)

    def aggregated(self, name: str, default: Any = None) -> Any:
        """Read an aggregator value from the previous superstep."""
        return self._engine.aggregated.get(name, default)


@dataclass
class SuperstepStats(StatsViewMixin):
    """Per-superstep counters (the engine's observability surface)."""

    superstep: int
    active_vertices: int
    messages_sent: int
    messages_after_combine: int


@dataclass
class Aggregator:
    """A named global reduction."""

    reduce: Callable[[Any, Any], Any]
    initial: Any = None


class PregelEngine(Generic[V, M]):
    """Single-process BSP executor for :class:`VertexProgram`.

    Parameters
    ----------
    graph_or_handle:
        The input graph: a concrete :class:`Graph`, any
        :class:`~repro.graph.store.GraphHandle`, or a store-directory
        path (coerced through :func:`repro.graph.store.as_handle`, so
        stored graphs run the same vertex programs by paging shards).
    program:
        The vertex program.
    aggregators:
        Optional ``{name: (reduce_fn, initial)}`` global reductions.
    max_supersteps:
        Safety limit; the run stops after this many supersteps and
        returns the values as they stand.
    obs:
        Optional shared :class:`~repro.obs.MetricsRegistry`; the engine
        emits ``tlav.*`` counters there (private registry if omitted).
    tracer:
        Optional :class:`~repro.obs.Tracer`; each superstep is recorded
        as a ``tlav.superstep`` span whose simulated clock is the
        superstep index.
    """

    def __init__(
        self,
        graph_or_handle,
        program: VertexProgram[V, M],
        aggregators: Optional[Dict[str, Aggregator]] = None,
        max_supersteps: int = 100,
        obs: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.graph = as_handle(graph_or_handle)
        self.program = program
        self.max_supersteps = max_supersteps
        self.obs = obs if obs is not None else MetricsRegistry()
        self.tracer = tracer
        self._c_supersteps = self.obs.counter(
            "tlav.supersteps", "global BSP supersteps executed"
        )
        self._c_messages = self.obs.counter(
            "tlav.messages_sent", "vertex messages sent (before combining)"
        )
        self._c_delivered = self.obs.counter(
            "tlav.messages_delivered", "vertex messages delivered (after combining)"
        )
        self._h_active = self.obs.histogram(
            "tlav.active_vertices", "active vertices per superstep"
        )
        self.superstep = 0
        self.values: List[Any] = [
            program.init(v, self.graph) for v in self.graph.vertices()
        ]
        self.aggregators = aggregators or {}
        self.aggregated: Dict[str, Any] = {}
        self._agg_pending: Dict[str, Any] = {}
        self._halted = [False] * self.graph.num_vertices
        self._inbox: Dict[int, List[Any]] = {}
        self._outbox: Dict[Any, List[Any]] = {}
        self._order: Iterable[int] = self.graph.vertices()
        self.history: List[SuperstepStats] = []
        self._messages_sent = 0
        # A program opts into combining by overriding `combine`.
        self._use_combiner = type(program).combine is not VertexProgram.combine

    # -- engine internals -------------------------------------------------

    def _send(self, src: int, dst: int, message: Any) -> None:
        if dst < 0 or dst >= self.graph.num_vertices:
            raise ValueError(f"message to nonexistent vertex {dst}")
        self._messages_sent += 1
        box = self._box(src, dst)
        if self._use_combiner and box:
            box[0] = self.program.combine(box[0], message)
        else:
            box.append(message)

    # The three placement seams (overridden by DistributedPregel):
    # `_order` above, and the two methods below.

    def _box(self, src: int, dst: int) -> List[Any]:
        """The staged message list a ``src -> dst`` message joins."""
        return self._outbox.setdefault(dst, [])

    def _deliver(self) -> None:
        """Turn this superstep's staged boxes into the next inbox."""
        self._inbox, self._outbox = self._outbox, {}

    def _aggregate(self, name: str, value: Any) -> None:
        if name not in self.aggregators:
            raise KeyError(f"unknown aggregator {name!r}")
        agg = self.aggregators[name]
        if name in self._agg_pending:
            self._agg_pending[name] = agg.reduce(self._agg_pending[name], value)
        else:
            self._agg_pending[name] = value

    # -- public API --------------------------------------------------------

    def run(self) -> List[Any]:
        """Run to convergence; returns the final vertex values."""
        while self.step():
            pass
        return self.values

    def step(self) -> bool:
        """Execute one superstep; returns ``False`` when converged."""
        if self.superstep >= self.max_supersteps:
            return False
        active = [v for v in self._order if not self._halted[v] or v in self._inbox]
        if not active:
            return False
        span = (
            self.tracer.span("tlav.superstep", superstep=self.superstep)
            if self.tracer is not None
            else None
        )
        self._messages_sent = 0
        for v in active:
            self._halted[v] = False
            ctx = VertexContext(v, self)
            self.program.compute(ctx, self._inbox.pop(v, []))
        delivered = sum(len(b) for b in self._outbox.values())
        self.history.append(
            SuperstepStats(
                superstep=self.superstep,
                active_vertices=len(active),
                messages_sent=self._messages_sent,
                messages_after_combine=delivered,
            )
        )
        self._c_supersteps.inc()
        self._c_messages.inc(self._messages_sent)
        self._c_delivered.inc(delivered)
        self._h_active.observe(len(active))
        if span is not None:
            span.set_sim(self.superstep, self.superstep + 1)
            span.set("active", len(active))
            span.set("messages", self._messages_sent)
            span.__exit__(None, None, None)
        self._deliver()
        self.aggregated = self._agg_pending
        self._agg_pending = {}
        self.superstep += 1
        return True

    def state(self) -> Dict[str, Any]:
        """Plain data from which :meth:`restore` rebuilds this run.

        Taken between supersteps, where nothing is staged: the values,
        halt votes, last aggregates and the inbox the next superstep
        reads.
        """
        return {
            "superstep": self.superstep,
            "values": list(self.values),
            "halted": list(self._halted),
            "aggregated": dict(self.aggregated),
            "inbox": dict(self._inbox),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        self.superstep = state["superstep"]
        self.values = list(state["values"])
        self._halted = list(state["halted"])
        self.aggregated = dict(state["aggregated"])
        self._inbox = dict(state["inbox"])
        self._outbox = {}
        self._agg_pending = {}

    @property
    def total_messages(self) -> int:
        """Messages sent across the whole run (before combining)."""
        return sum(s.messages_sent for s in self.history)

    @property
    def total_messages_delivered(self) -> int:
        """Messages actually delivered (after combining)."""
        return sum(s.messages_after_combine for s in self.history)
