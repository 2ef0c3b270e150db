"""Differential checks for subgraph matching.

The depth-first enumerator (:func:`~repro.matching.backtrack.match`) is
the reference; the frontier counter (``count_matches``), the generated-
and-compiled matcher (codegen), the TLAV message-passing triangle
counter, and the enumeration path must all agree exactly — pattern
counting is deterministic integer work, so every relation here is
bit-identical.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..check.registry import BIT_IDENTICAL, pair
from ..check.invariants import same_values
from ..check.workloads import gen_graph_params, make_graph
from ..graph.csr import Graph
from ..tlav.algorithms import triangle_count_tlav
from .backtrack import MatchStats, count_matches, match
from .codegen import compiled_count
from .pattern import (
    PatternGraph,
    clique_pattern,
    cycle_pattern,
    diamond_pattern,
    house_pattern,
    path_pattern,
    star_pattern,
    tailed_triangle_pattern,
    triangle_pattern,
)
from .plan import connected_orders
from .triangles import triangle_count, triangle_list

PATTERNS = (
    ("triangle", triangle_pattern),
    ("path3", lambda: path_pattern(3)),
    ("star3", lambda: star_pattern(3)),
    ("cycle4", lambda: cycle_pattern(4)),
    ("diamond", diamond_pattern),
    ("tailed_triangle", tailed_triangle_pattern),
    ("house", house_pattern),
    ("clique4", lambda: clique_pattern(4)),
)


def _gen_pattern(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 40))
    params["pattern"] = int(rng.integers(len(PATTERNS)))
    return params


@pair(
    "matching.patterns.backtrack_vs_codegen", "matching", BIT_IDENTICAL,
    gen=_gen_pattern, floors={"n": 4, "pattern": 0},
    description="The compiled matcher must count exactly what the "
    "interpreted backtracker counts, for every pattern in the zoo.",
)
def _check_codegen(params: Dict) -> List[str]:
    graph = make_graph(params)
    name, build = PATTERNS[int(params["pattern"]) % len(PATTERNS)]
    pattern = build()
    return same_values(
        count_matches(graph, pattern),
        compiled_count(graph, pattern),
        f"count[{name}]",
    )


def _gen_count(rng: np.random.Generator) -> Dict:
    params = _gen_pattern(rng)
    params["order_pick"] = int(rng.integers(1 << 16))
    params["distinct"] = int(rng.integers(2))
    params["vertex_labels"] = int(rng.integers(3))  # 0: unlabeled
    return params


@pair(
    "matching.count.frontier_vs_backtrack", "matching", BIT_IDENTICAL,
    gen=_gen_count,
    floors={"n": 4, "pattern": 0, "order_pick": 0, "distinct": 0,
            "vertex_labels": 0},
    description="The level-synchronous frontier counter returns the "
    "depth-first enumerator's count and every MatchStats field (the "
    "simulated-ops cost serve charges), for any connected order, with "
    "and without symmetry breaking, on vertex-labelled graphs too.",
)
def _check_frontier_count(params: Dict) -> List[str]:
    graph = make_graph(params)
    name, build = PATTERNS[int(params["pattern"]) % len(PATTERNS)]
    pattern = build()
    num_labels = int(params.get("vertex_labels", 0))
    if num_labels:
        rng = np.random.default_rng(int(params.get("graph_seed", 0)))
        graph = Graph(
            graph.indptr, graph.indices,
            vertex_labels=rng.integers(num_labels, size=graph.num_vertices),
        )
        pattern = PatternGraph(Graph(
            pattern.graph.indptr, pattern.graph.indices,
            vertex_labels=rng.integers(num_labels, size=pattern.n),
        ))
    orders = connected_orders(pattern)
    order = orders[int(params.get("order_pick", 0)) % len(orders)]
    distinct = bool(params.get("distinct", 1))
    want, got = MatchStats(), MatchStats()
    match(graph, pattern, order=order,
          restrictions=None if distinct else [], stats=want)
    count = count_matches(graph, pattern, order=order, distinct=distinct,
                          stats=got)
    out = same_values(want.embeddings, count, f"count[{name}]")
    out += same_values(want.extra_dict(), got.extra_dict(), f"stats[{name}]")
    return out


def _gen_graph(rng: np.random.Generator) -> Dict:
    return gen_graph_params(rng, n_range=(8, 64))


@pair(
    "matching.triangles.serial_vs_tlav", "matching", BIT_IDENTICAL,
    gen=_gen_graph, floors={"n": 4},
    description="The oriented-intersection triangle counter and the "
    "TLAV message-passing counter are independent algorithms for the "
    "same integer.",
)
def _check_tlav_triangles(params: Dict) -> List[str]:
    graph = make_graph(params)
    count, _messages = triangle_count_tlav(graph)
    return same_values(triangle_count(graph), count, "triangles")


@pair(
    "matching.triangles.count_vs_list", "matching", BIT_IDENTICAL,
    gen=_gen_graph, floors={"n": 4},
    description="triangle_count equals the length of triangle_list, "
    "and every listed triple is a real oriented triangle.",
)
def _check_count_vs_list(params: Dict) -> List[str]:
    graph = make_graph(params)
    listed = list(triangle_list(graph))
    out = same_values(triangle_count(graph), len(listed), "count")
    if len(set(listed)) != len(listed):
        out.append("triangles: duplicate triples in triangle_list")
    for (u, v, w) in listed:
        if not (
            graph.has_edge(u, v) and graph.has_edge(v, w) and graph.has_edge(u, w)
        ):
            out.append(f"triangles: listed non-triangle ({u}, {v}, {w})")
            break
    return out
