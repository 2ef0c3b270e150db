"""Warp-level SIMT simulation (STMatch / T-DFS)."""

import pytest

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.matching.backtrack import count_matches, match
from repro.matching.pattern import (
    clique_pattern,
    cycle_pattern,
    diamond_pattern,
    triangle_pattern,
)
from repro.tlag.warp import WarpSimulator, warp_match


PATTERNS = [triangle_pattern(), cycle_pattern(4), clique_pattern(4), diamond_pattern()]


class TestCorrectness:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_counts_match_reference(self, pattern, small_er):
        stats = warp_match(small_er, pattern, num_warps=4, warp_width=8)
        assert stats.embeddings == count_matches(small_er, pattern)

    @pytest.mark.parametrize("num_warps", [1, 2, 8])
    @pytest.mark.parametrize("width", [1, 4, 32])
    def test_invariant_to_configuration(self, num_warps, width, small_er):
        pattern = triangle_pattern()
        stats = warp_match(
            small_er, pattern, num_warps=num_warps, warp_width=width
        )
        assert stats.embeddings == count_matches(small_er, pattern)

    @pytest.mark.parametrize("steal", [True, False])
    def test_edge_labels_counted_as_match(self, steal, edge_labelled_er,
                                          rainbow_triangle):
        stats = warp_match(edge_labelled_er, rainbow_triangle, num_warps=4,
                           warp_width=8, steal=steal)
        assert stats.embeddings == match(edge_labelled_er, rainbow_triangle) == 56

    def test_no_steal_same_answer(self, small_er):
        pattern = diamond_pattern()
        with_steal = warp_match(small_er, pattern, steal=True)
        without = warp_match(small_er, pattern, steal=False)
        assert with_steal.embeddings == without.embeddings


class TestSimtCounters:
    def test_divergence_in_unit_range(self, small_er):
        stats = warp_match(small_er, triangle_pattern(), warp_width=32)
        assert 0.0 <= stats.divergence <= 1.0

    def test_wider_warps_diverge_more(self):
        """The GPU-DFS irregularity claim: wide warps waste lanes on
        irregular candidate lists."""
        g = barabasi_albert(150, 3, seed=1)
        narrow = warp_match(g, diamond_pattern(), warp_width=2)
        wide = warp_match(g, diamond_pattern(), warp_width=64)
        assert wide.divergence > narrow.divergence

    def test_stack_depth_bounded_by_pattern(self, small_er):
        pattern = clique_pattern(4)
        stats = warp_match(small_er, pattern, num_warps=2, warp_width=4)
        # One frame per pattern level, plus split frames from steals.
        assert stats.max_stack_depth <= pattern.n * 8

    def test_stealing_counted_when_skewed(self):
        g = barabasi_albert(200, 4, seed=2)
        stats = warp_match(g, diamond_pattern(), num_warps=8, warp_width=4)
        assert stats.steals >= 0  # counter wired up

    def test_lanes_busy_bounded_by_slots(self, small_er):
        stats = warp_match(small_er, triangle_pattern())
        assert stats.lanes_busy <= stats.lane_slots
