"""Matching-order planning tests."""

import pytest

from repro.graph.generators import barabasi_albert
from repro.matching.backtrack import MatchStats, match
from repro.matching.codegen import reuses_segment
from repro.matching.pattern import (
    clique_pattern,
    cycle_pattern,
    diamond_pattern,
    house_pattern,
    path_pattern,
    star_pattern,
    tailed_triangle_pattern,
    triangle_pattern,
)
from repro.matching.plan import GraphStats, MatchingPlan, Planner, connected_orders


class TestConnectedOrders:
    def test_triangle_all_orders_connected(self):
        assert len(connected_orders(triangle_pattern())) == 6

    def test_path3_excludes_disconnected(self):
        orders = connected_orders(path_pattern(3))
        # (0, 2, ...) starts disconnected: 0 and 2 are not adjacent.
        assert (0, 2, 1) not in orders
        assert (1, 0, 2) in orders

    def test_star_center_first_or_second(self):
        for order in connected_orders(star_pattern(3)):
            assert 0 in order[:2]  # leaves only connect through the hub


class TestCostModel:
    @pytest.fixture
    def planner(self):
        return Planner(GraphStats(num_vertices=10_000, avg_degree=12.0, max_degree=500))

    def test_plan_returns_connected_order(self, planner):
        plan = planner.plan(house_pattern())
        assert tuple(sorted(plan.order)) == tuple(range(5))
        assert plan.order in connected_orders(house_pattern())

    def test_best_cost_not_above_worst(self, planner):
        best = planner.plan(house_pattern())
        worst = planner.worst_plan(house_pattern())
        assert best.estimated_cost <= worst.estimated_cost

    def test_dense_pattern_cheaper_than_sparse(self, planner):
        # A clique constrains every step; a path does not.
        k4 = planner.plan(clique_pattern(4))
        p4 = planner.plan(path_pattern(4))
        assert k4.estimated_cost < p4.estimated_cost

    def test_stats_of(self, small_ba):
        stats = GraphStats.of(small_ba)
        assert stats.num_vertices == small_ba.num_vertices
        assert stats.avg_degree == pytest.approx(
            2 * small_ba.num_edges / small_ba.num_vertices
        )
        assert stats.max_degree == int(small_ba.degrees().max())


class TestReuseTieBreak:
    """Among equal-cost orders the planner takes one whose compiled
    program reuses a segment; where none does, its choice is unchanged."""

    @pytest.fixture
    def planner(self):
        return Planner(GraphStats(num_vertices=10_000, avg_degree=12.0, max_degree=500))

    def test_diamond_reuses_the_shared_edge(self, planner):
        pattern = diamond_pattern()
        plan = planner.plan(pattern)
        assert plan.order == (1, 2, 0, 3)
        cost = planner.estimate_order_cost
        assert cost(pattern, plan.order) == cost(pattern, (0, 1, 2, 3))
        assert reuses_segment(pattern, plan.order, plan.restrictions)
        assert not reuses_segment(pattern, (0, 1, 2, 3), plan.restrictions)

    @pytest.mark.parametrize("pattern", [
        triangle_pattern(), path_pattern(4), star_pattern(3), cycle_pattern(4),
        tailed_triangle_pattern(), diamond_pattern(), house_pattern(),
        clique_pattern(4), clique_pattern(5),
    ])
    def test_first_reusing_order_among_the_cheapest(self, planner, pattern):
        plan = planner.plan(pattern)
        scored = [(planner.estimate_order_cost(pattern, o), o)
                  for o in connected_orders(pattern)]
        cheapest, lowest = min(scored)
        tied = [o for c, o in scored if c == cheapest]
        reusing = [o for o in tied if reuses_segment(pattern, o, plan.restrictions)]
        assert plan.order == (reusing[0] if reusing else lowest)
        assert planner.estimate_order_cost(pattern, plan.order) == cheapest


class TestPlanQualityOnRealGraph:
    def test_planned_order_does_less_work(self):
        """The C3 claim: the planner's order beats the worst order in
        actual search-tree size, on a skewed graph."""
        g = barabasi_albert(250, 4, seed=6)
        planner = Planner(GraphStats.of(g))
        pattern = house_pattern()
        best, worst = planner.plan(pattern), planner.worst_plan(pattern)

        def work(order):
            stats = MatchStats()
            match(g, pattern, order=order, stats=stats)
            return stats.candidates_scanned, stats.embeddings

        best_work, best_count = work(best.order)
        worst_work, worst_count = work(worst.order)
        assert best_count == worst_count  # same answer
        assert best_work < worst_work / 2  # far less work

    def test_estimates_rank_orders_consistently(self):
        g = barabasi_albert(150, 3, seed=2)
        planner = Planner(GraphStats.of(g))
        pattern = diamond_pattern()
        orders = connected_orders(pattern)
        estimated = [
            (planner.estimate_order_cost(pattern, o), o) for o in orders
        ]
        cheap_order = min(estimated)[1]
        costly_order = max(estimated)[1]

        def work(order):
            stats = MatchStats()
            match(g, pattern, order=order, stats=stats)
            return stats.candidates_scanned

        # The model's extremes should not be inverted in practice.
        assert work(cheap_order) <= work(costly_order)
