"""Simulated SIMT warps for GPU subgraph matching (STMatch / T-DFS).

The GPU systems of Table 1 fall into two regimes:

* **BFS systems** (GSI [67], cuTS [45]) expand all partial matches level
  by level — memory-hungry but perfectly coalesced;
* **warp-centric DFS systems** (STMatch [44], T-DFS [64]) give every
  warp its own stack over a chunk of independent search subtrees, and
  balance load by work stealing that splits heavy tasks.

Real GPUs are out of scope offline, so this module simulates the SIMT
execution model at the level the papers reason about: a
:class:`WarpSimulator` runs ``num_warps`` warps of ``warp_width`` lanes
in lock step.  In every cycle each warp takes the top frame of its
stack, the frame's candidate list is processed ``warp_width`` at a time
(one lane per candidate), and counters track:

* **divergence** — lanes idle because a frame had fewer candidates than
  the warp width (the cost of DFS irregularity the papers discuss);
* **stack depth** — memory per warp (O(pattern size), the DFS win);
* **steals** — idle warps split the deepest-loaded warp's bottom frame
  (STMatch's "work stealing which splits heavy tasks").

Frames take their candidates from the shared step
:func:`repro.matching.backtrack.extend_step`; only the schedule is the
simulator's, so it counts what ``match`` counts (``tlag.warp.count_vs_match``).

Bench C5 contrasts this against the BFS regime's peak-materialization
from :mod:`repro.tlag.aimd` and the hybrid policy of
:mod:`repro.tlag.hybrid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..graph.csr import Graph
from ..matching.backtrack import MatchStats, extend_step, step_tables
from ..matching.pattern import PatternGraph

__all__ = ["WarpStats", "WarpSimulator", "warp_match"]


@dataclass
class WarpStats:
    """Counters from one simulated kernel."""

    num_warps: int
    warp_width: int
    cycles: int = 0
    lane_slots: int = 0       # cycles * width summed over active warps
    lanes_busy: int = 0       # slots that actually processed a candidate
    steals: int = 0
    max_stack_depth: int = 0
    embeddings: int = 0

    @property
    def divergence(self) -> float:
        """Fraction of lane slots wasted by control divergence."""
        if self.lane_slots == 0:
            return 0.0
        return 1.0 - self.lanes_busy / self.lane_slots


@dataclass
class _Frame:
    """One DFS stack frame: a partial embedding and its pending candidates."""

    partial: Tuple[int, ...]
    candidates: List[int]


class WarpSimulator:
    """Lock-step warps running stack-based DFS subgraph matching."""

    def __init__(
        self,
        graph: Graph,
        pattern: PatternGraph,
        order: Optional[Sequence[int]] = None,
        num_warps: int = 8,
        warp_width: int = 32,
        steal: bool = True,
    ) -> None:
        self.graph = graph
        self.pattern = pattern
        self.num_warps = num_warps
        self.warp_width = warp_width
        self.steal = steal
        self._tables = step_tables(pattern, order)
        self.order = self._tables.order
        self._scan = MatchStats()  # the shared step's counters

    def _candidates(self, partial: Tuple[int, ...], step: int) -> List[int]:
        return extend_step(self.graph, self._tables, partial, step, self._scan)

    def run(self) -> WarpStats:
        """Simulate the kernel; returns the counters."""
        stats = WarpStats(self.num_warps, self.warp_width)
        n = self.pattern.n
        # Root tasks: chunks of first-level candidates, round-robin.
        roots = self._candidates((), 0)
        stacks: List[List[_Frame]] = [[] for _ in range(self.num_warps)]
        for i in range(self.num_warps):
            chunk = roots[i:: self.num_warps]
            if chunk:
                stacks[i].append(_Frame(partial=(), candidates=list(chunk)))

        while any(stacks):
            stats.cycles += 1
            for w in range(self.num_warps):
                if not stacks[w]:
                    if self.steal:
                        self._steal_into(w, stacks, stats)
                    if not stacks[w]:
                        continue
                frame = stacks[w][-1]
                stats.max_stack_depth = max(stats.max_stack_depth, len(stacks[w]))
                batch = frame.candidates[: self.warp_width]
                del frame.candidates[: len(batch)]
                stats.lane_slots += self.warp_width
                stats.lanes_busy += len(batch)
                step = len(frame.partial)
                for x in batch:
                    partial = frame.partial + (x,)
                    if step + 1 == n:
                        stats.embeddings += 1
                    else:
                        cands = self._candidates(partial, step + 1)
                        if cands:
                            stacks[w].append(
                                _Frame(partial=partial, candidates=cands)
                            )
                if not frame.candidates and frame in stacks[w]:
                    stacks[w].remove(frame)
        return stats

    def _steal_into(self, w: int, stacks: List[List[_Frame]], stats: WarpStats) -> None:
        """Split the bottom frame of the most loaded warp (task splitting)."""
        victim = max(
            range(self.num_warps),
            key=lambda k: sum(len(f.candidates) for f in stacks[k]),
        )
        if victim == w:
            return
        for frame in stacks[victim]:
            if len(frame.candidates) >= 2:
                half = len(frame.candidates) // 2
                stolen = frame.candidates[half:]
                del frame.candidates[half:]
                stacks[w].append(_Frame(partial=frame.partial, candidates=stolen))
                stats.steals += 1
                return


def warp_match(
    graph: Graph,
    pattern: PatternGraph,
    order: Optional[Sequence[int]] = None,
    num_warps: int = 8,
    warp_width: int = 32,
    steal: bool = True,
) -> WarpStats:
    """Run the warp simulator once; returns its stats (incl. count)."""
    return WarpSimulator(
        graph, pattern, order=order, num_warps=num_warps,
        warp_width=warp_width, steal=steal,
    ).run()
