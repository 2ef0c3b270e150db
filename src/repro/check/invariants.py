"""Comparators and structural invariants shared by the check suite.

Comparators return a list of violation messages (empty = equivalence
held), one per detected discrepancy, so a check can report several
independent mismatches from one workload.  The structural invariants
cover the properties the harness enforces on *every* generated
workload: CSR well-formedness, partition-metric consistency (the
edge-cut ↔ replication tie of the vertex-cut satellite), per-worker
stats merges, and checkpoint round-trips.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..graph.csr import Graph
from ..graph.partition import (
    Partition,
    balance,
    edge_cut_fraction,
    replication_factor,
)

__all__ = [
    "same_bits",
    "same_values",
    "same_multiset",
    "bounded_error",
    "same_stats",
    "csr_well_formed",
    "partition_consistent",
]


def _fmt(value: Any, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ----------------------------------------------------------------------
# Comparators
# ----------------------------------------------------------------------


def same_bits(reference: Any, candidate: Any, label: str = "result") -> List[str]:
    """Bit-identical equality: exact values, and exact dtype for arrays."""
    ref_arr = isinstance(reference, np.ndarray)
    cand_arr = isinstance(candidate, np.ndarray)
    if ref_arr or cand_arr:
        if not (ref_arr and cand_arr):
            return [f"{label}: type mismatch {type(reference).__name__} "
                    f"vs {type(candidate).__name__}"]
        if reference.dtype != candidate.dtype:
            return [f"{label}: dtype {reference.dtype} vs {candidate.dtype}"]
        if reference.shape != candidate.shape:
            return [f"{label}: shape {reference.shape} vs {candidate.shape}"]
        if not np.array_equal(reference, candidate):
            bad = np.flatnonzero(
                np.asarray(reference).ravel() != np.asarray(candidate).ravel()
            )
            i = int(bad[0])
            return [f"{label}: {bad.size} differing entries; first at flat index "
                    f"{i}: {reference.ravel()[i]!r} vs {candidate.ravel()[i]!r}"]
        return []
    return same_values(reference, candidate, label)


def same_values(reference: Any, candidate: Any, label: str = "result") -> List[str]:
    """Plain ``==`` equality with a first-difference diagnostic."""
    if isinstance(reference, (list, tuple)) and isinstance(candidate, (list, tuple)):
        if len(reference) != len(candidate):
            return [f"{label}: length {len(reference)} vs {len(candidate)}"]
        for i, (a, b) in enumerate(zip(reference, candidate)):
            if a != b:
                return [f"{label}[{i}]: {_fmt(a)} vs {_fmt(b)}"]
        return []
    if reference != candidate:
        return [f"{label}: {_fmt(reference)} vs {_fmt(candidate)}"]
    return []


def same_multiset(
    reference: Sequence, candidate: Sequence, label: str = "result"
) -> List[str]:
    """Permutation equality: the same results in any order."""
    ref_sorted = sorted(reference)
    cand_sorted = sorted(candidate)
    if len(ref_sorted) != len(cand_sorted):
        return [f"{label}: {len(ref_sorted)} vs {len(cand_sorted)} items"]
    for i, (a, b) in enumerate(zip(ref_sorted, cand_sorted)):
        if a != b:
            return [f"{label}: multisets differ; first sorted mismatch at "
                    f"{i}: {_fmt(a)} vs {_fmt(b)}"]
    return []


def bounded_error(
    reference: Any,
    candidate: Any,
    atol: float,
    label: str = "result",
    rtol: float = 0.0,
) -> List[str]:
    """Bounded-error equality for lossy pairs (quantization, staleness)."""
    ref = np.asarray(reference, dtype=np.float64)
    cand = np.asarray(candidate, dtype=np.float64)
    if ref.shape != cand.shape:
        return [f"{label}: shape {ref.shape} vs {cand.shape}"]
    err = np.abs(ref - cand)
    bound = atol + rtol * np.abs(ref)
    bad = np.flatnonzero((err > bound).ravel())
    if bad.size:
        i = int(bad[0])
        return [f"{label}: {bad.size} entries exceed tolerance "
                f"(atol={atol}, rtol={rtol}); worst |err|="
                f"{float(err.max()):.3e} at flat index {i}"]
    return []


def same_stats(
    reference: Any, candidate: Any, label: str = "stats",
    ignore: Sequence[str] = (),
) -> List[str]:
    """Stats-record equality via ``as_dict()`` (merged == serial checks)."""
    ref_d: Dict[str, Any] = reference.as_dict()
    cand_d: Dict[str, Any] = candidate.as_dict()
    out: List[str] = []
    for key in sorted(set(ref_d) | set(cand_d)):
        if key in ignore:
            continue
        a, b = ref_d.get(key), cand_d.get(key)
        if isinstance(a, float) or isinstance(b, float):
            if a is None or b is None or abs(a - b) > 1e-12:
                out.append(f"{label}.{key}: {a!r} vs {b!r}")
        elif a != b:
            out.append(f"{label}.{key}: {a!r} vs {b!r}")
    return out


# ----------------------------------------------------------------------
# Structural invariants
# ----------------------------------------------------------------------


def csr_well_formed(graph: Graph, label: str = "graph") -> List[str]:
    """The CSR contract every kernel in the repo leans on.

    ``indptr`` monotone from 0 to ``len(indices)``; neighbor ids in
    range and sorted per row; degrees consistent; undirected graphs
    symmetric with an even directed-slot count.
    """
    out: List[str] = []
    indptr, indices = graph.indptr, graph.indices
    n = graph.num_vertices
    if len(indptr) != n + 1:
        return [f"{label}: indptr has {len(indptr)} entries for {n} vertices"]
    if indptr[0] != 0:
        out.append(f"{label}: indptr[0] == {indptr[0]}, expected 0")
    if np.any(np.diff(indptr) < 0):
        out.append(f"{label}: indptr not monotone")
    if indptr[-1] != len(indices):
        out.append(f"{label}: indptr[-1] == {indptr[-1]} != "
                   f"len(indices) == {len(indices)}")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        out.append(f"{label}: neighbor id out of range "
                   f"[{indices.min()}, {indices.max()}] for n={n}")
    if out:
        return out  # row checks below assume a sane indptr
    for v in range(n):
        row = indices[indptr[v]: indptr[v + 1]]
        if row.size > 1 and np.any(np.diff(row) < 0):
            out.append(f"{label}: neighbors of {v} not sorted")
            break
    degrees = graph.degrees()
    if not np.array_equal(degrees, np.diff(indptr)):
        out.append(f"{label}: degrees() disagrees with indptr diffs")
    if not graph.directed:
        if len(indices) % 2:
            out.append(f"{label}: undirected graph with odd slot count")
        for v in range(n):
            for w in indices[indptr[v]: indptr[v + 1]]:
                if not graph.has_edge(int(w), v):
                    out.append(f"{label}: edge ({v}, {int(w)}) not symmetric")
                    return out
    return out


def partition_consistent(
    graph: Graph, partition: Partition, label: str = "partition"
) -> List[str]:
    """Consistency of a partition and its quality metrics.

    Beyond coverage and balance this ties the two communication metrics
    together, which is exactly what the vertex-cut bug violated:

    * **vertex-cut** partitions pay communication through *replication*,
      never through cut edges — every edge lives whole on its assigned
      worker, which by construction holds replicas of both endpoints, so
      ``edge_cut_fraction`` must be 0 and ``replication_factor >= 1``;
    * **vertex** partitions pay through the halo: each cut edge adds at
      most one replica to each endpoint, so
      ``(replication_factor - 1) * |V| <= 2 * cut_edges``.
    """
    out: List[str] = []
    n = graph.num_vertices
    if len(partition.assignment) != n:
        return [f"{label}: assignment covers {len(partition.assignment)} "
                f"of {n} vertices"]
    sizes = partition.sizes()
    if int(sizes.sum()) != n:
        out.append(f"{label}: part sizes sum to {int(sizes.sum())} != {n}")
    if n and balance(partition) < 1.0 - 1e-9:
        out.append(f"{label}: balance {balance(partition):.3f} < 1")
    cut = edge_cut_fraction(graph, partition)
    rf = replication_factor(graph, partition)
    if not 0.0 <= cut <= 1.0:
        out.append(f"{label}: edge_cut_fraction {cut:.3f} outside [0, 1]")
    if partition.edge_assignment is not None:
        if len(partition.edge_assignment) != graph.num_edges:
            out.append(f"{label}: edge_assignment covers "
                       f"{len(partition.edge_assignment)} of "
                       f"{graph.num_edges} edges")
        for (u, v), k in partition.edge_assignment.items():
            if not 0 <= k < partition.num_parts:
                out.append(f"{label}: edge ({u}, {v}) assigned to "
                           f"out-of-range worker {k}")
                break
        if graph.num_edges and cut != 0.0:
            out.append(
                f"{label}: vertex-cut edge_cut_fraction {cut:.3f} != 0 — "
                f"every edge is local to its assigned worker; the cut "
                f"cost is already paid by replication_factor {rf:.3f}"
            )
        if n and rf < 1.0 - 1e-9:
            out.append(f"{label}: replication_factor {rf:.3f} < 1")
    elif graph.num_edges:
        cut_edges = cut * graph.num_edges
        if (rf - 1.0) * n > 2.0 * cut_edges + 1e-6:
            out.append(
                f"{label}: replication_factor {rf:.3f} implies more halo "
                f"than {cut_edges:.0f} cut edges can induce"
            )
    return out
