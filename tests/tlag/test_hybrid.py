"""EGSM BFS-DFS hybrid: budget-independent answers, correct switching."""

import pytest

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.matching.backtrack import count_matches, match
from repro.matching.pattern import (
    clique_pattern,
    cycle_pattern,
    diamond_pattern,
    house_pattern,
    triangle_pattern,
)
from repro.tlag.hybrid import hybrid_match


PATTERNS = [
    triangle_pattern(),
    cycle_pattern(4),
    clique_pattern(4),
    diamond_pattern(),
]


class TestBudgetIndependence:
    @pytest.mark.parametrize("budget", [5, 50, 10**9])
    def test_edge_labels_counted_as_match(self, budget, edge_labelled_er,
                                          rainbow_triangle):
        count, _ = hybrid_match(edge_labelled_er, rainbow_triangle, budget)
        assert count == match(edge_labelled_er, rainbow_triangle) == 56

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("budget", [5, 100, 10**9])
    def test_count_invariant_under_budget(self, pattern, budget, small_er):
        expected = count_matches(small_er, pattern)
        count, _ = hybrid_match(small_er, pattern, memory_budget=budget)
        assert count == expected


class TestRegimes:
    def test_huge_budget_pure_bfs(self, small_er):
        _, stats = hybrid_match(
            small_er, triangle_pattern(), memory_budget=10**9
        )
        assert stats.switch_level is None
        assert stats.dfs_completions == 0
        assert stats.bfs_levels == 3

    def test_tiny_budget_switches_immediately(self, small_er):
        _, stats = hybrid_match(small_er, triangle_pattern(), memory_budget=3)
        assert stats.switch_level == 0
        assert stats.bfs_levels == 0

    def test_medium_budget_hybrid(self):
        g = barabasi_albert(150, 4, seed=5)
        _, stats = hybrid_match(g, house_pattern(), memory_budget=400)
        assert stats.switch_level is not None
        assert 0 < stats.switch_level < 5
        assert stats.dfs_completions > 0

    def test_peak_resident_bounded_in_dfs_mode(self):
        g = barabasi_albert(150, 4, seed=5)
        _, tiny = hybrid_match(g, house_pattern(), memory_budget=20)
        _, huge = hybrid_match(g, house_pattern(), memory_budget=10**9)
        assert tiny.peak_resident < huge.peak_resident


class TestMonotonicity:
    def test_switch_level_monotone_in_budget(self):
        g = erdos_renyi(60, 0.2, seed=1)
        pattern = diamond_pattern()
        levels = []
        for budget in (10, 100, 1000, 10**8):
            _, stats = hybrid_match(g, pattern, memory_budget=budget)
            level = (
                stats.switch_level
                if stats.switch_level is not None
                else pattern.n
            )
            levels.append(level)
        assert levels == sorted(levels)
