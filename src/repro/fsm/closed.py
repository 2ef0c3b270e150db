"""Closed frequent pattern mining.

PrefixFPM's journal version [57] is explicitly "a parallel framework
for general-purpose mining of frequent **and closed** patterns": a
frequent pattern is *closed* when no super-pattern has the same
support, and reporting only closed patterns compresses the output
losslessly (every frequent pattern's support is recoverable from its
closed super-patterns).

* :func:`closed_graph_patterns` — filter gSpan output down to closed
  patterns (super-pattern test by subgraph isomorphism between the
  mined pattern graphs, restricted to equal-support candidates);
* :func:`closed_sequences` — the PrefixSpan analogue (CloSpan-style
  post-filter on subsequence containment);
* both verified against the definition by brute force in the tests.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..matching.backtrack import find_matches
from ..matching.pattern import PatternGraph
from .gspan import FrequentPattern

__all__ = ["is_subpattern", "closed_graph_patterns", "closed_sequences"]


def is_subpattern(small: PatternGraph, big: PatternGraph) -> bool:
    """Is ``small`` (label-preserving) subgraph-isomorphic to ``big``?"""
    if small.n > big.n or small.num_edges > big.num_edges:
        return False
    return bool(find_matches(big.graph, small, limit=1))


def closed_graph_patterns(
    patterns: Sequence[FrequentPattern],
) -> List[FrequentPattern]:
    """Keep only closed patterns from a gSpan result set.

    A pattern is closed iff no other mined pattern with the *same
    support* properly contains it.  Because support is anti-monotone,
    only equal-support pairs can witness non-closedness, and any
    super-pattern with equal support is itself frequent — so filtering
    within the mined set is exact (given the same ``max_edges`` bound
    used during mining; patterns at the bound are treated as closed
    relative to the mined universe).
    """
    graphs = [PatternGraph(p.to_graph()) for p in patterns]
    closed: List[FrequentPattern] = []
    for i, p in enumerate(patterns):
        dominated = False
        for j, q in enumerate(patterns):
            if i == j or q.support != p.support:
                continue
            if q.num_edges <= p.num_edges:
                continue
            if is_subpattern(graphs[i], graphs[j]):
                dominated = True
                break
        if not dominated:
            closed.append(p)
    return closed


def _is_subsequence(small: Tuple, big: Tuple) -> bool:
    iterator = iter(big)
    return all(any(x == item for item in iterator) for x in small)


def closed_sequences(
    mined: Sequence[Tuple[Tuple, int]],
) -> List[Tuple[Tuple, int]]:
    """CloSpan-style filter: drop subsequences with an equal-support
    proper super-sequence."""
    closed: List[Tuple[Tuple, int]] = []
    for pattern, support in mined:
        dominated = any(
            other != pattern
            and other_support == support
            and len(other) > len(pattern)
            and _is_subsequence(pattern, other)
            for other, other_support in mined
        )
        if not dominated:
            closed.append((pattern, support))
    return closed
