"""BFS-style subgraph extension (the Arabesque/RStream/Pangolin model).

These systems support SF and FSM under one programming model by growing
subgraphs breadth-first: all embeddings of size ``i`` are materialized
before any embedding of size ``i + 1`` is generated.  The price is the
intermediate **embedding explosion** the tutorial highlights — the
number of materialized embeddings grows exponentially with pattern size,
which is precisely what the DFS/task systems avoid.

:class:`BfsExplorer` implements the model faithfully:

* levels of *canonical* embeddings — an embedding is kept only if its
  extension order is the canonical one for its vertex set (Arabesque's
  automorphism-dedup via canonicality checking), so each connected
  subgraph instance appears exactly once per level;
* a user ``filter`` prunes embeddings (e.g. "is still a clique") and a
  ``process`` callback consumes each surviving embedding;
* ``LevelStats`` records the materialized-count and peak-memory numbers
  bench C2 plots against the DFS engine.

The canonicality rule (from Arabesque): an embedding ``(v0 < ...)``
grown as a vertex sequence is canonical iff each appended vertex is
(a) adjacent to the prefix and (b) the smallest such vertex that is
larger than the earliest prefix position it attaches to — concretely we
use the standard rule "extend only with vertices greater than the
minimum vertex the extension attaches to, and keep an embedding iff its
sorted vertex set regenerates the same sequence".  For simplicity and
provable exactness we canonicalize on the *vertex set*: an embedding
survives iff its vertex sequence equals the lexicographically smallest
connected generation order of its set.

:func:`canonical_extensions` is that one pattern-free extension step.
:class:`BfsExplorer` runs it level by level, :mod:`repro.tlag.aimd` over
adaptive chunks, and :class:`~repro.tlag.programs.ConnectedSubgraphProgram`
depth first inside tasks; only the schedule differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from ..graph.csr import Graph

__all__ = ["LevelStats", "BfsExplorer", "bfs_enumerate_cliques", "bfs_enumerate_connected"]


@dataclass
class LevelStats:
    """Materialization counters per BFS level."""

    level: int
    generated: int
    kept: int


@dataclass
class BfsResult:
    """Output of a BFS exploration run."""

    levels: List[LevelStats] = field(default_factory=list)
    final_embeddings: List[Tuple[int, ...]] = field(default_factory=list)

    @property
    def peak_materialized(self) -> int:
        """Max embeddings held at once — the memory bottleneck of BFS systems."""
        return max((s.kept for s in self.levels), default=0)

    @property
    def total_generated(self) -> int:
        return sum(s.generated for s in self.levels)


def _canonical_generation(vertex_set: Tuple[int, ...], graph: Graph) -> Tuple[int, ...]:
    """Lexicographically smallest connected generation order of a vertex set."""
    vertices = sorted(vertex_set)
    sequence = [vertices[0]]
    used = {vertices[0]}
    while len(sequence) < len(vertices):
        # Smallest unused member adjacent to the current prefix.
        for v in vertices:
            if v not in used and not used.isdisjoint(graph.neighbors(v).tolist()):
                sequence.append(v)
                used.add(v)
                break
        else:  # disconnected set — cannot happen for connected growth
            raise ValueError("vertex set is not connected")
    return tuple(sequence)


def canonical_extensions(
    graph: Graph, emb: Tuple[int, ...]
) -> Tuple[List[Tuple[int, ...]], int]:
    """The one pattern-free extension step: ``emb`` plus each outside
    neighbor of a member, ascending, kept when canonical; also returns how
    many candidates were tried (BFS systems count each as generated)."""
    candidates: Set[int] = set()
    for u in emb:
        candidates.update(graph.neighbors(u).tolist())
    candidates.difference_update(emb)
    extended = [emb + (w,) for w in sorted(candidates)]
    kept = [e for e in extended if e == _canonical_generation(e, graph)]
    return kept, len(candidates)


class BfsExplorer:
    """Level-synchronous subgraph extension with canonicality dedup."""

    def __init__(
        self,
        graph: Graph,
        max_size: int,
        keep_filter: Optional[Callable[[Tuple[int, ...], Graph], bool]] = None,
    ) -> None:
        self.graph = graph
        self.max_size = max_size
        self.keep_filter = keep_filter or (lambda emb, g: True)

    def run(self) -> BfsResult:
        """Run levels 1..max_size; returns stats and the final level."""
        result = BfsResult()
        current: List[Tuple[int, ...]] = [
            (v,) for v in self.graph.vertices() if self.keep_filter((v,), self.graph)
        ]
        result.levels.append(
            LevelStats(level=1, generated=self.graph.num_vertices, kept=len(current))
        )
        for size in range(2, self.max_size + 1):
            generated = 0
            next_level: List[Tuple[int, ...]] = []
            for emb in current:
                extensions, tried = canonical_extensions(self.graph, emb)
                generated += tried
                next_level.extend(
                    e for e in extensions if self.keep_filter(e, self.graph)
                )
            result.levels.append(
                LevelStats(level=size, generated=generated, kept=len(next_level))
            )
            current = next_level
        result.final_embeddings = current
        return result


def _is_clique(embedding: Tuple[int, ...], graph: Graph) -> bool:
    for i, u in enumerate(embedding):
        for v in embedding[i + 1:]:
            if not graph.has_edge(u, v):
                return False
    return True


def bfs_enumerate_cliques(graph: Graph, k: int) -> BfsResult:
    """All k-cliques by BFS extension (the Arabesque clique program)."""
    return BfsExplorer(graph, max_size=k, keep_filter=_is_clique).run()


def bfs_enumerate_connected(graph: Graph, k: int) -> BfsResult:
    """All connected k-vertex subgraph instances by BFS extension."""
    return BfsExplorer(graph, max_size=k).run()
