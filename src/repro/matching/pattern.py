"""Pattern graphs, automorphisms, and symmetry-breaking restrictions.

Subgraph enumeration engines must not report the same embedding once per
pattern automorphism: a triangle query would otherwise return every
triangle 6 times.  AutoMine [26], GraphPi [33] and GraphZero [25] solve
this with *restrictions*: a set of ``id(pattern_u) < id(pattern_v)``
constraints on the matched data-vertex ids, derived from the pattern's
automorphism group, that exactly one member of each duplicate class
satisfies.

:func:`automorphisms` computes the group by backtracking (patterns are
small); :func:`symmetry_breaking_restrictions` derives the constraints
with the classic stabilizer-chain construction:

    while the group is non-trivial:
        pick the smallest vertex u moved by any automorphism;
        emit ``u < sigma(u)`` for every automorphism sigma moving u;
        continue with the stabilizer of u.

Tests verify the defining property on random graphs: the number of
embeddings satisfying the restrictions times ``|Aut(P)|`` equals the
total embedding count.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..graph.csr import Graph

__all__ = [
    "PatternGraph",
    "automorphisms",
    "default_order",
    "symmetry_breaking_restrictions",
    "triangle_pattern",
    "path_pattern",
    "cycle_pattern",
    "clique_pattern",
    "star_pattern",
    "tailed_triangle_pattern",
    "diamond_pattern",
    "house_pattern",
    "NAMED_PATTERNS",
    "named_pattern",
]


class PatternGraph:
    """A small query graph.

    Wraps a :class:`~repro.graph.csr.Graph` with the convenience lookups
    the planner and matcher need (adjacency sets, labels).  Patterns must
    be connected and undirected.
    """

    def __init__(self, graph: Graph) -> None:
        if graph.directed:
            raise ValueError("patterns must be undirected")
        self.graph = graph
        self.n = graph.num_vertices
        self.adj: List[FrozenSet[int]] = [
            frozenset(int(w) for w in graph.neighbors(v)) for v in range(self.n)
        ]
        if self.n > 1 and not self._connected():
            raise ValueError("patterns must be connected")

    def _connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    @staticmethod
    def from_edges(
        edges: Sequence[Tuple[int, int]],
        vertex_labels: Sequence[int] = None,
    ) -> "PatternGraph":
        n = max(max(u, v) for u, v in edges) + 1
        return PatternGraph(
            Graph.from_edges(edges, num_vertices=n, vertex_labels=vertex_labels)
        )

    def label(self, v: int) -> int:
        return self.graph.vertex_label(v)

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PatternGraph(n={self.n}, m={self.num_edges})"


def default_order(pattern: PatternGraph, start: int = 0) -> List[int]:
    """A prefix-connected matching order (BFS from ``start``).

    Any connected pattern admits one; matchers use this when the caller
    does not supply a planned order.
    """
    order = [start]
    seen = {start}
    while len(order) < pattern.n:
        for v in range(pattern.n):
            if v not in seen and any(q in seen for q in pattern.adj[v]):
                order.append(v)
                seen.add(v)
                break
    return order


def automorphisms(pattern: PatternGraph) -> List[Tuple[int, ...]]:
    """All automorphisms of the pattern, as permutation tuples.

    Backtracking over degree- and label-compatible assignments; an edge
    must map onto an edge with the same label.  Patterns in this library
    are tiny (<= ~8 vertices), so this is instant.
    """
    n = pattern.n
    degrees = [pattern.degree(v) for v in range(n)]
    labels = [pattern.label(v) for v in range(n)]
    g = pattern.graph
    # edge[u][v]: the label of edge (u, v), 0 when unlabelled; None: no edge.
    edge: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
    for u in range(n):
        for v in pattern.adj[u]:
            edge[u][v] = 0 if g.edge_labels is None else g.edge_label(u, v)
    perms: List[Tuple[int, ...]] = []
    assignment = [-1] * n
    used = [False] * n

    def backtrack(u: int) -> None:
        if u == n:
            perms.append(tuple(assignment))
            return
        for candidate in range(n):
            if used[candidate]:
                continue
            if degrees[candidate] != degrees[u] or labels[candidate] != labels[u]:
                continue
            for prev in range(u):
                if edge[prev][u] != edge[assignment[prev]][candidate]:
                    break
            else:
                assignment[u] = candidate
                used[candidate] = True
                backtrack(u + 1)
                used[candidate] = False
                assignment[u] = -1

    backtrack(0)
    return perms


def symmetry_breaking_restrictions(
    pattern: PatternGraph,
) -> List[Tuple[int, int]]:
    """Restrictions ``(u, v)`` meaning "data id of u < data id of v".

    Exactly one embedding per automorphism class satisfies all returned
    restrictions (the GraphZero conditional-rules construction).
    """
    group = automorphisms(pattern)
    restrictions: List[Tuple[int, int]] = []
    current: List[Tuple[int, ...]] = group
    while len(current) > 1:
        moved = None
        for u in range(pattern.n):
            if any(perm[u] != u for perm in current):
                moved = u
                break
        if moved is None:  # only the identity remains
            break
        for perm in current:
            if perm[moved] != moved:
                restrictions.append((moved, perm[moved]))
        current = [perm for perm in current if perm[moved] == moved]
    # Deduplicate while preserving order.
    seen: Set[Tuple[int, int]] = set()
    unique = []
    for r in restrictions:
        if r not in seen:
            seen.add(r)
            unique.append(r)
    return unique


# ----------------------------------------------------------------------
# Common query patterns used by the benches and examples
# ----------------------------------------------------------------------


def triangle_pattern() -> PatternGraph:
    """K3."""
    return PatternGraph.from_edges([(0, 1), (1, 2), (0, 2)])


def path_pattern(k: int) -> PatternGraph:
    """Path on ``k`` vertices."""
    return PatternGraph.from_edges([(i, i + 1) for i in range(k - 1)])


def cycle_pattern(k: int) -> PatternGraph:
    """Cycle on ``k`` vertices."""
    return PatternGraph.from_edges([(i, (i + 1) % k) for i in range(k)])


def clique_pattern(k: int) -> PatternGraph:
    """K_k."""
    return PatternGraph.from_edges(
        [(i, j) for i in range(k) for j in range(i + 1, k)]
    )


def star_pattern(k: int) -> PatternGraph:
    """K_{1,k}: hub 0 with k leaves."""
    return PatternGraph.from_edges([(0, i) for i in range(1, k + 1)])


def tailed_triangle_pattern() -> PatternGraph:
    """Triangle with a pendant vertex."""
    return PatternGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])


def diamond_pattern() -> PatternGraph:
    """K4 minus one edge."""
    return PatternGraph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def house_pattern() -> PatternGraph:
    """4-cycle with a roof triangle (5 vertices, 6 edges)."""
    return PatternGraph.from_edges(
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)]
    )


#: Patterns by the name a CLI argument or a serve request carries.
NAMED_PATTERNS: Dict[str, Callable[[], PatternGraph]] = {
    "edge": lambda: path_pattern(2),
    "path3": lambda: path_pattern(3),
    "p4": lambda: path_pattern(4),
    "triangle": triangle_pattern,
    "star3": lambda: star_pattern(3),
    "c4": lambda: cycle_pattern(4),
    "diamond": diamond_pattern,
    "tailed-triangle": tailed_triangle_pattern,
    "house": house_pattern,
    "k4": lambda: clique_pattern(4),
}


def named_pattern(name: str) -> PatternGraph:
    try:
        return NAMED_PATTERNS[name]()
    except KeyError:
        raise KeyError(
            f"unknown pattern {name!r}; known: {sorted(NAMED_PATTERNS)}"
        ) from None
