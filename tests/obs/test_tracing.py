"""Unit tests for span-based tracing (wall + simulated clocks)."""

import json

from repro.obs import Span, Tracer


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner", "inner"]

    def test_siblings_after_close_are_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.roots] == ["a", "b"]

    def test_current_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_find_searches_all_depths(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("step"):
                pass
            with tracer.span("step"):
                pass
        assert len(tracer.find("step")) == 2


class TestSpanClocks:
    def test_wall_time_is_positive_after_finish(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            pass
        assert span.finished
        assert span.wall_seconds >= 0.0
        assert span.wall_end is not None

    def test_sim_clock_callable_sampled_at_start_and_end(self):
        clock = {"t": 10.0}
        tracer = Tracer()
        with tracer.span("s", sim_clock=lambda: clock["t"]) as span:
            clock["t"] = 14.5
        assert span.sim_start == 10.0
        assert span.sim_end == 14.5
        assert span.sim_duration == 4.5

    def test_tracer_level_sim_clock_is_inherited(self):
        clock = {"t": 0.0}
        tracer = Tracer(sim_clock=lambda: clock["t"])
        with tracer.span("s") as span:
            clock["t"] = 3.0
        assert span.sim_duration == 3.0

    def test_set_sim_without_clock(self):
        span = Span("s").start().finish()
        assert span.sim_duration is None
        span.set_sim(2, 9)
        assert span.sim_start == 2.0
        assert span.sim_duration == 7.0

    def test_attrs_via_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("s", superstep=3) as span:
            span.set("active", 17)
        assert span.attrs == {"superstep": 3, "active": 17}


class TestExport:
    def test_as_dict_preserves_tree(self):
        tracer = Tracer()
        with tracer.span("outer", k="v") as outer:
            outer.set_sim(0, 5)
            with tracer.span("inner"):
                pass
        d = tracer.as_dict()
        (root,) = d["spans"]
        assert root["name"] == "outer"
        assert root["attrs"] == {"k": "v"}
        assert root["sim_duration"] == 5.0
        assert [c["name"] for c in root["children"]] == ["inner"]
        assert "children" not in root["children"][0]  # leaf omits empty keys

    def test_json_round_trip(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", idx=1):
                pass
        parsed = json.loads(json.dumps(tracer.as_dict()))
        assert parsed == tracer.as_dict()

