"""Frequent subgraph mining in a single big graph (GraMi / ScaleMine / T-FSM).

In a single graph, "how often does a pattern occur" cannot just count
embeddings (not anti-monotone); the standard measure is **MNI**
(minimum-image-based support): for each pattern vertex, count the
distinct data vertices that appear in that position across all
embeddings, and take the minimum.  MNI is anti-monotone, so pattern
growth with support pruning is sound.

The tutorial's systems differ in *how they evaluate* MNI:

* GraMi [11] solves one existence CSP per (pattern vertex, candidate
  data vertex) pair, with prunings; this module implements its three
  core prunings, individually toggleable for bench C6:

  - ``prune_nlf`` — neighborhood label/degree filtering of candidate
    domains before any search;
  - ``early_stop`` — stop filling a domain once it reaches
    ``min_support`` (only the minimum matters for the frequency test);
  - ``reuse_embeddings`` — every found embedding validates one data
    vertex in *every* domain, so successful searches are shared.

* T-FSM [65] decomposes each pattern's support evaluation into
  independent subgraph-matching **tasks** (one per candidate vertex)
  executed by a parallel backtracking pool.  :class:`SingleGraphFSM`
  reports per-task costs so the simulated-parallel wrapper
  (:func:`mni_support_parallel`) can account makespan over workers the
  way T-FSM's massively parallel executor does.

Pattern growth reuses the DFS-code canonicality machinery of
:mod:`repro.fsm.gspan` (grow by rightmost-path extension over a
*pattern-level* search, checking frequency via MNI in the single data
graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..graph.csr import Graph
from ..matching.backtrack import MatchStats, match
from ..matching.pattern import PatternGraph
from ..sim import WorkerClocks
from .gspan import DFSCode, _edge_key, is_min

__all__ = [
    "MNIResult",
    "mni_support",
    "mni_support_parallel",
    "SingleGraphFSM",
    "SingleGraphPattern",
]


@dataclass
class MNIResult:
    """Support evaluation outcome for one pattern."""

    support: int
    domains: List[Set[int]]
    existence_checks: int = 0
    search_ops: int = 0
    reused: int = 0

    @property
    def frequent_at(self) -> int:
        return self.support


def _candidate_domains(
    graph: Graph, pattern: PatternGraph, prune_nlf: bool
) -> List[List[int]]:
    """Initial candidate domain per pattern vertex (label + NLF filter)."""
    domains: List[List[int]] = []
    # Precompute data-side neighbor label multisets once if needed.
    if prune_nlf:
        label_of = (
            (lambda v: int(graph.vertex_labels[v]))
            if graph.vertex_labels is not None
            else (lambda v: 0)
        )
    for pv in range(pattern.n):
        want = pattern.label(pv)
        want_degree = pattern.degree(pv)
        # Pattern vertex's neighbor label requirements.
        if prune_nlf:
            need: Dict[int, int] = {}
            for q in pattern.adj[pv]:
                lbl = pattern.label(q)
                need[lbl] = need.get(lbl, 0) + 1
        domain: List[int] = []
        for v in range(graph.num_vertices):
            if graph.vertex_labels is not None and graph.vertex_label(v) != want:
                continue
            if prune_nlf:
                if graph.degree(v) < want_degree:
                    continue
                have: Dict[int, int] = {}
                for w in graph.neighbors(v):
                    lbl = label_of(int(w))
                    have[lbl] = have.get(lbl, 0) + 1
                if any(have.get(lbl, 0) < cnt for lbl, cnt in need.items()):
                    continue
            domain.append(v)
        domains.append(domain)
    return domains


def mni_support(
    graph: Graph,
    pattern: PatternGraph,
    min_support: Optional[int] = None,
    prune_nlf: bool = True,
    early_stop: bool = True,
    reuse_embeddings: bool = True,
) -> MNIResult:
    """MNI support of ``pattern`` in ``graph`` (GraMi-style evaluation).

    When ``min_support`` is given with ``early_stop``, evaluation stops
    as soon as the frequency decision is known: each domain stops
    growing at ``min_support`` valid vertices, and the whole evaluation
    aborts when some domain is exhausted below it.
    """
    candidates = _candidate_domains(graph, pattern, prune_nlf)
    valid: List[Set[int]] = [set() for _ in range(pattern.n)]
    result = MNIResult(support=0, domains=valid)
    target = min_support if (min_support is not None and early_stop) else None

    for pv in range(pattern.n):
        for v in candidates[pv]:
            if target is not None and len(valid[pv]) >= target:
                break
            if v in valid[pv]:
                result.reused += 1
                continue
            emb, ops = _first_embedding(graph, pattern, pv, v)
            result.existence_checks += 1
            result.search_ops += ops
            if emb is not None:
                if reuse_embeddings:
                    for q in range(pattern.n):
                        valid[q].add(emb[q])
                else:
                    valid[pv].add(emb[pv])
        if target is not None and len(valid[pv]) < target:
            # This domain can never reach min_support: pattern infrequent.
            result.support = len(valid[pv])
            return result
    result.support = min(len(d) for d in valid) if valid else 0
    return result


class _FoundOne(Exception):
    """Signal: one embedding suffices for an existence check."""


def _first_embedding(
    graph: Graph, pattern: PatternGraph, pv: int, v: int
) -> Tuple[Optional[Tuple[int, ...]], int]:
    """One existence check: an embedding mapping ``pv`` to ``v`` (or
    ``None``) and the search ops it cost."""
    stats = MatchStats()
    found: List[Tuple[int, ...]] = []

    def stop_at_first(emb: Tuple[int, ...]) -> None:
        found.append(emb)
        raise _FoundOne

    try:
        match(
            graph,
            pattern,
            order=_order_starting_at(pattern, pv),
            restrictions=[],  # existence, not distinct counting
            on_match=stop_at_first,
            stats=stats,
            anchor=(pv, v),
        )
    except _FoundOne:
        pass
    return (found[0] if found else None), stats.candidates_scanned


def _order_starting_at(pattern: PatternGraph, start: int) -> List[int]:
    """A connected matching order beginning at ``start``."""
    order = [start]
    seen = {start}
    while len(order) < pattern.n:
        for v in range(pattern.n):
            if v in seen:
                continue
            if any(q in seen for q in pattern.adj[v]):
                order.append(v)
                seen.add(v)
                break
    return order


def mni_support_parallel(
    graph: Graph,
    pattern: PatternGraph,
    num_workers: int = 4,
    min_support: Optional[int] = None,
) -> Tuple[MNIResult, int]:
    """T-FSM-style evaluation: one matching task per (vertex, candidate).

    Runs the same existence checks as :func:`mni_support` but accounts
    each check as an independent task scheduled over ``num_workers``
    simulated workers; returns ``(result, makespan)`` where makespan is
    in search-ops units.  Embedding reuse is disabled here because tasks
    are independent — the T-FSM trade: more total work, near-perfect
    scaling.
    """
    candidates = _candidate_domains(graph, pattern, prune_nlf=True)
    valid: List[Set[int]] = [set() for _ in range(pattern.n)]
    result = MNIResult(support=0, domains=valid)
    clocks = WorkerClocks(num_workers)
    for pv in range(pattern.n):
        for v in candidates[pv]:
            start, w = clocks.pop()
            emb, ops = _first_embedding(graph, pattern, pv, v)
            result.existence_checks += 1
            result.search_ops += ops
            if emb is not None:
                valid[pv].add(v)
            clocks.push(w, start + max(ops, 1))
    result.support = min(len(d) for d in valid) if valid else 0
    return result, clocks.makespan


@dataclass
class SingleGraphPattern:
    """A frequent pattern mined from a single graph."""

    code: DFSCode
    support: int

    def to_graph(self) -> Graph:
        return self.code.to_graph()

    def to_pattern(self) -> PatternGraph:
        return PatternGraph(self.code.to_graph())


class SingleGraphFSM:
    """Pattern-growth FSM over one big labeled graph with MNI support."""

    def __init__(
        self,
        min_support: int,
        max_edges: Optional[int] = None,
        prune_nlf: bool = True,
        early_stop: bool = True,
        reuse_embeddings: bool = True,
    ) -> None:
        self.min_support = min_support
        self.max_edges = max_edges
        self.prune_nlf = prune_nlf
        self.early_stop = early_stop
        self.reuse_embeddings = reuse_embeddings
        self.total_existence_checks = 0
        self.total_search_ops = 0
        self.patterns_evaluated = 0

    def run(self, graph: Graph) -> List[SingleGraphPattern]:
        """Mine all patterns with MNI support >= ``min_support``."""
        results: List[SingleGraphPattern] = []
        seeds = self._frequent_edges(graph)
        for code in seeds:
            self._grow(code, graph, results)
        return results

    def _frequent_edges(self, graph: Graph) -> List[DFSCode]:
        """Canonical 1-edge codes whose MNI support passes the threshold."""
        seen: Set[tuple] = set()
        out: List[DFSCode] = []
        for u, v in graph.edges():
            lu, lv = graph.vertex_label(u), graph.vertex_label(v)
            el = graph.edge_label(u, v) if graph.edge_labels is not None else 0
            key = (min(lu, lv), el, max(lu, lv))
            if key in seen:
                continue
            seen.add(key)
            out.append(DFSCode(((0, 1, key[0], key[1], key[2]),)))
        return sorted(out)

    def _evaluate(self, code: DFSCode, graph: Graph) -> int:
        pattern = PatternGraph(code.to_graph())
        res = mni_support(
            graph,
            pattern,
            min_support=self.min_support,
            prune_nlf=self.prune_nlf,
            early_stop=self.early_stop,
            reuse_embeddings=self.reuse_embeddings,
        )
        self.patterns_evaluated += 1
        self.total_existence_checks += res.existence_checks
        self.total_search_ops += res.search_ops
        return res.support

    def _grow(
        self, code: DFSCode, graph: Graph, results: List[SingleGraphPattern]
    ) -> None:
        support = self._evaluate(code, graph)
        if support < self.min_support:
            return
        results.append(SingleGraphPattern(code=code, support=support))
        if self.max_edges is not None and len(code) >= self.max_edges:
            return
        for child in self._children(code, graph):
            self._grow(child, graph, results)

    def _children(self, code: DFSCode, graph: Graph) -> List[DFSCode]:
        """Canonical rightmost-path extensions present in the data graph.

        Candidate labels come from the data graph's label/edge inventory;
        non-minimal codes are dropped (each pattern visited once).
        """
        vertex_labels = (
            sorted(set(int(l) for l in graph.vertex_labels))
            if graph.vertex_labels is not None
            else [0]
        )
        edge_labels = (
            sorted(set(int(l) for l in graph.edge_labels))
            if graph.edge_labels is not None
            else [0]
        )
        pattern_graph = code.to_graph()
        labels = [pattern_graph.vertex_label(v) for v in range(code.num_vertices())]
        rmpath = code.rightmost_path()
        rightmost = rmpath[0]
        n = code.num_vertices()
        children: List[DFSCode] = []
        candidates: Set[tuple] = set()
        # Backward: rightmost -> earlier rmpath vertex.
        existing = {(min(t[0], t[1]), max(t[0], t[1])) for t in code}
        for idx in rmpath[1:]:
            if (min(rightmost, idx), max(rightmost, idx)) in existing:
                continue
            for el in edge_labels:
                candidates.add((rightmost, idx, labels[rightmost], el, labels[idx]))
        # Forward: from any rmpath vertex to a new vertex with any label.
        for idx in rmpath:
            for el in edge_labels:
                for vl in vertex_labels:
                    candidates.add((idx, n, labels[idx], el, vl))
        for t in sorted(candidates, key=_edge_key):
            child = DFSCode(code + (t,))
            if is_min(child):
                children.append(child)
        return children
