"""Graphlet census: small-motif counts as structural graph features.

Counting 3- and 4-vertex connected motifs ("graphlets") is the classic
structure-analytics featurization — the same family of "classic graph
structural features" that [35] found competitive with embeddings, and a
direct application of the compiled pattern matchers of
:mod:`repro.matching.codegen`.

* :func:`graphlet_census` — global counts of each connected motif on
  3 and 4 vertices (8 motifs), computed with pattern-compiled matchers;
* :func:`graphlet_feature_vector` — normalized census, usable as a
  graph-level feature vector;
* :data:`GRAPHLET_PATTERNS` — the motif inventory, in a fixed order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..graph.csr import Graph
from ..graph.store.handle import as_handle
from ..matching.codegen import compile_matcher
from ..matching.pattern import (
    PatternGraph,
    clique_pattern,
    cycle_pattern,
    diamond_pattern,
    path_pattern,
    star_pattern,
    tailed_triangle_pattern,
    triangle_pattern,
)

__all__ = ["GRAPHLET_PATTERNS", "graphlet_census", "graphlet_feature_vector"]

# The 2 connected 3-vertex motifs and the 6 connected 4-vertex motifs.
GRAPHLET_PATTERNS: List[Tuple[str, PatternGraph]] = [
    ("path3", path_pattern(3)),
    ("triangle", triangle_pattern()),
    ("path4", path_pattern(4)),
    ("star4", star_pattern(3)),
    ("cycle4", cycle_pattern(4)),
    ("tailed_triangle", tailed_triangle_pattern()),
    ("diamond", diamond_pattern()),
    ("clique4", clique_pattern(4)),
]


def graphlet_census(graph) -> Dict[str, int]:
    """Counts of each connected 3/4-vertex motif (distinct instances).

    Takes a :class:`Graph` or any graph handle.  The 8 matchers are
    compiled on the first census (``compile_matcher`` caches them).
    """
    graph = as_handle(graph)
    return {
        name: int(compile_matcher(pattern)(graph))
        for name, pattern in GRAPHLET_PATTERNS
    }


def graphlet_feature_vector(graph: Graph, log_scale: bool = True) -> np.ndarray:
    """The census as a fixed-order feature vector (optionally log1p)."""
    census = graphlet_census(graph)
    values = np.asarray(
        [census[name] for name, _ in GRAPHLET_PATTERNS], dtype=np.float64
    )
    return np.log1p(values) if log_scale else values
