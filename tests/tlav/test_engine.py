"""Tests for the Pregel-style BSP engine."""

from typing import List

import pytest

from repro.graph.csr import Graph
from repro.graph.generators import path_graph
from repro.tlav.engine import (
    Aggregator,
    PregelEngine,
    VertexContext,
    VertexProgram,
)


class EchoProgram(VertexProgram):
    """Each vertex forwards a counter once, then halts."""

    def init(self, vertex, graph):
        return 0

    def compute(self, ctx: VertexContext, messages: List[int]) -> None:
        if ctx.superstep == 0:
            ctx.send_to_neighbors(1)
        else:
            ctx.value = sum(messages)
        ctx.vote_to_halt()


class SumCombineProgram(VertexProgram):
    def init(self, vertex, graph):
        return 0

    def combine(self, a, b):
        return a + b

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            for w in ctx.neighbors():
                ctx.send(int(w), 1)
                ctx.send(int(w), 2)
        else:
            ctx.value = sum(messages)
        ctx.vote_to_halt()


class TestBSPSemantics:
    def test_messages_delivered_next_superstep(self):
        g = path_graph(3)
        engine = PregelEngine(g, EchoProgram())
        values = engine.run()
        assert values == [1, 2, 1]  # in-degree of each vertex

    def test_superstep_counter(self):
        g = path_graph(3)
        engine = PregelEngine(g, EchoProgram())
        engine.run()
        assert engine.superstep == 2

    def test_halt_and_reactivation(self):
        g = path_graph(2)
        engine = PregelEngine(g, EchoProgram())
        assert engine.step()  # superstep 0: all halt, but messages pending
        assert engine.step()  # superstep 1: reactivated by messages
        assert not engine.step()  # done

    def test_combiner_reduces_deliveries(self):
        g = path_graph(3)
        engine = PregelEngine(g, SumCombineProgram())
        values = engine.run()
        # Each endpoint got 1+2=3 from one neighbor; middle from two.
        assert values == [3, 6, 3]
        # Combined: one delivered message per (src worker, dst).
        assert engine.total_messages_delivered < engine.total_messages

    def test_send_out_of_range_raises(self):
        class BadProgram(VertexProgram):
            def init(self, vertex, graph):
                return 0

            def compute(self, ctx, messages):
                ctx.send(999, 1)

        g = path_graph(2)
        engine = PregelEngine(g, BadProgram())
        with pytest.raises(ValueError):
            engine.step()

    def test_max_supersteps_halts(self):
        class ForeverProgram(VertexProgram):
            def init(self, vertex, graph):
                return 0

            def compute(self, ctx, messages):
                ctx.send_to_neighbors(1)  # never halts

        g = path_graph(3)
        engine = PregelEngine(g, ForeverProgram(), max_supersteps=5)
        engine.run()
        assert engine.superstep == 5

    def test_history_records_active_counts(self):
        g = path_graph(4)
        engine = PregelEngine(g, EchoProgram())
        engine.run()
        assert engine.history[0].active_vertices == 4
        assert engine.history[0].messages_sent == 6  # 2*num_edges


class TestAggregators:
    def test_aggregate_visible_next_superstep(self):
        class AggProgram(VertexProgram):
            def init(self, vertex, graph):
                return 0

            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    ctx.aggregate("total", 1)
                    ctx.send_to_neighbors(0)  # keep alive
                else:
                    ctx.value = ctx.aggregated("total")
                ctx.vote_to_halt()

        g = path_graph(3)
        engine = PregelEngine(
            g,
            AggProgram(),
            aggregators={"total": Aggregator(reduce=lambda a, b: a + b)},
        )
        values = engine.run()
        assert values == [3, 3, 3]

    def test_unknown_aggregator_raises(self):
        class BadAgg(VertexProgram):
            def init(self, vertex, graph):
                return 0

            def compute(self, ctx, messages):
                ctx.aggregate("nope", 1)

        g = path_graph(2)
        engine = PregelEngine(g, BadAgg())
        with pytest.raises(KeyError):
            engine.step()

    def test_aggregated_default(self):
        class ReadAgg(VertexProgram):
            def init(self, vertex, graph):
                return None

            def compute(self, ctx, messages):
                ctx.value = ctx.aggregated("missing", default=-1)
                ctx.vote_to_halt()

        g = path_graph(2)
        engine = PregelEngine(g, ReadAgg())
        values = engine.run()
        assert values == [-1, -1]


class TestState:
    def test_restore_resumes_from_a_superstep_boundary(self):
        from repro.graph.generators import barabasi_albert
        from repro.tlav.algorithms import PageRankProgram

        g = barabasi_albert(40, 2, seed=1)
        aggs = {"dangling": Aggregator(reduce=lambda a, b: a + b)}
        engine = PregelEngine(g, PageRankProgram(iterations=5), aggregators=aggs)
        engine.step()
        engine.step()
        saved = engine.state()
        final = list(engine.run())
        # The state is a copy: running on did not move it.
        engine.restore(saved)
        assert engine.superstep == 2
        assert engine.run() == final
