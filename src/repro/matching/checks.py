"""Differential checks for subgraph matching.

The depth-first enumerator (:func:`~repro.matching.backtrack.match`) is
the reference; the interpreted frontier counter (``frontier_count``),
the compiled program ``count_matches`` runs (whole, or as strided root
sets), the TLAV message-passing triangle counter, and the enumeration
path must all agree exactly — pattern counting is deterministic integer
work, so every relation here is bit-identical.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..check.registry import BIT_IDENTICAL, invariant, pair
from ..check.invariants import same_values
from ..check.workloads import gen_graph_params, make_graph
from ..graph.csr import Graph
from ..tlav.algorithms import triangle_count_tlav
from .backtrack import (
    MatchStats, _count_roots_task, count_matches, frontier_count, match,
)
from .pattern import (
    PatternGraph,
    automorphisms,
    clique_pattern,
    cycle_pattern,
    diamond_pattern,
    house_pattern,
    path_pattern,
    star_pattern,
    symmetry_breaking_restrictions,
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


def _gen_labelled_pattern(rng: np.random.Generator) -> Dict:
    params = _gen_pattern(rng)
    params["vertex_labels"] = int(rng.integers(3))  # 0: unlabeled
    params["edge_labels"] = int(rng.integers(3))  # 0: unlabeled
    return params


def _labelled(graph: Graph, rng: np.random.Generator, params: Dict) -> Graph:
    """``graph`` with ``vertex_labels`` random vertex labels and
    ``edge_labels`` random labels per unordered pair (0 of either: none)."""
    n, vertex_labels, edge_labels = graph.num_vertices, graph.vertex_labels, None
    if params.get("vertex_labels", 0):
        vertex_labels = rng.integers(int(params["vertex_labels"]), size=n)
    if params.get("edge_labels", 0):
        src = np.repeat(np.arange(n), graph.degrees())
        pair = np.minimum(src, graph.indices) * n + np.maximum(src, graph.indices)
        edge_labels = rng.integers(int(params["edge_labels"]), size=n * n)[pair]
    return Graph(graph.indptr, graph.indices,
                 vertex_labels=vertex_labels, edge_labels=edge_labels)


def _graph_and_pattern(params: Dict):
    """The drawn graph and pattern; with ``vertex_labels`` (``edge_labels``)
    > 0 both get that many random vertex (edge) labels."""
    graph = make_graph(params)
    name, build = PATTERNS[int(params["pattern"]) % len(PATTERNS)]
    pattern = build()
    if params.get("vertex_labels", 0) or params.get("edge_labels", 0):
        rng = np.random.default_rng(int(params.get("graph_seed", 0)))
        graph = _labelled(graph, rng, params)
        pattern = PatternGraph(_labelled(pattern.graph, rng, params))
    return name, graph, pattern


def _pattern_case(params: Dict):
    """The drawn graph, pattern and connected order (``order_pick``)."""
    name, graph, pattern = _graph_and_pattern(params)
    orders = connected_orders(pattern)
    order = orders[int(params.get("order_pick", 0)) % len(orders)]
    return name, graph, pattern, order


@pair(
    "matching.patterns.backtrack_vs_codegen", "matching", BIT_IDENTICAL,
    gen=_gen_labelled_pattern,
    floors={"n": 4, "pattern": 0, "vertex_labels": 0, "edge_labels": 0},
    description="The compiled program count_matches runs must count "
    "exactly what the interpreted frontier counter counts, for every "
    "pattern in the zoo, on vertex- and edge-labelled graphs too.",
)
def _check_codegen(params: Dict) -> List[str]:
    name, graph, pattern = _graph_and_pattern(params)
    return same_values(
        frontier_count(graph, pattern),
        count_matches(graph, pattern),
        f"count[{name}]",
    )


def _gen_count(rng: np.random.Generator) -> Dict:
    params = _gen_pattern(rng)
    params["order_pick"] = int(rng.integers(1 << 16))
    params["distinct"] = int(rng.integers(2))
    params["vertex_labels"] = int(rng.integers(3))  # 0: unlabeled
    params["edge_labels"] = int(rng.integers(3))  # 0: unlabeled
    return params


@pair(
    "matching.count.frontier_vs_backtrack", "matching", BIT_IDENTICAL,
    gen=_gen_count,
    floors={"n": 4, "pattern": 0, "order_pick": 0, "distinct": 0,
            "vertex_labels": 0, "edge_labels": 0},
    description="The interpreted level-synchronous frontier counter "
    "returns the depth-first enumerator's count and every MatchStats "
    "field, for any connected order, with and without symmetry "
    "breaking, on vertex- and edge-labelled graphs too.",
)
def _check_frontier_count(params: Dict) -> List[str]:
    name, graph, pattern, order = _pattern_case(params)
    distinct = bool(params.get("distinct", 1))
    want, got = MatchStats(), MatchStats()
    match(graph, pattern, order=order,
          restrictions=None if distinct else [], stats=want)
    count = frontier_count(graph, pattern, order=order, distinct=distinct,
                           stats=got)
    out = same_values(want.embeddings, count, f"count[{name}]")
    out += same_values(want.extra_dict(), got.extra_dict(), f"stats[{name}]")
    return out


def _gen_root_sets(rng: np.random.Generator) -> Dict:
    params = _gen_count(rng)
    params["root_sets"] = int(rng.integers(1, 10))
    return params


@pair(
    "matching.count.root_sets_sum", "matching", BIT_IDENTICAL,
    gen=_gen_root_sets,
    floors={"n": 4, "pattern": 0, "order_pick": 0, "distinct": 0,
            "vertex_labels": 0, "edge_labels": 0, "root_sets": 1},
    description="The compiled counts and tallies of the k strided root "
    "sets arange(i, n, k) sum to the whole-graph count and tally, for "
    "any k and connected order, with and without symmetry breaking, on "
    "vertex- and edge-labelled graphs too: the contract that lets count_matches "
    "fan out and merge MatchStats bit for bit.",
)
def _check_root_sets(params: Dict) -> List[str]:
    name, graph, pattern, order = _pattern_case(params)
    distinct = bool(params.get("distinct", 1))
    k = int(params.get("root_sets", 1))
    whole, parts = MatchStats(), MatchStats()
    count_matches(graph, pattern, order=order, distinct=distinct, stats=whole)
    restrictions = tuple(symmetry_breaking_restrictions(pattern) if distinct else ())
    for i in range(k):
        parts.merge(_count_roots_task(graph, (i, k, pattern, order, restrictions)))
    return same_values(whole.extra_dict(), parts.extra_dict(), f"stats[{name}]")


@invariant(
    "matching.count.distinct_times_automorphisms", "matching",
    gen=_gen_labelled_pattern,
    floors={"n": 4, "pattern": 0, "vertex_labels": 0, "edge_labels": 0},
    description="The distinct count times |Aut(P)| equals the count "
    "with restrictions=[], on vertex- and edge-labelled patterns too: "
    "the symmetry-breaking restrictions keep exactly one embedding per "
    "automorphism class, so the group must respect every label.",
)
def _check_distinct_times_automorphisms(params: Dict) -> List[str]:
    name, graph, pattern = _graph_and_pattern(params)
    return same_values(
        match(graph, pattern) * len(automorphisms(pattern)),
        match(graph, pattern, restrictions=[]),
        f"count[{name}]",
    )


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
