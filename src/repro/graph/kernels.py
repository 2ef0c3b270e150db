"""Vectorized adjacency kernels shared by the hot paths.

Every inner loop the profiler flags — candidate intersection in the
backtracking matcher, the per-edge merge join of triangle counting, the
frontier expansion of TLAV supersteps, the edge scan of modularity —
reduces to a handful of numpy primitives over the sorted CSR arrays:

* :func:`in_sorted` — batched membership of many queries in one sorted
  adjacency list (one ``searchsorted`` call instead of one per element);
* :func:`intersect_sorted` / :func:`intersect_count` — merge-join of two
  sorted lists, probing the smaller into the larger;
* :func:`intersect_multi` — k-way intersection, smallest list first
  (the matcher's candidate kernel);
* :func:`expand_frontier` — gather the concatenated neighborhoods of a
  vertex frontier plus the owner of each gathered entry, without a
  Python loop (the repeat/arange trick); :func:`gather_ranges` is the
  same gather over arbitrary ``[start, stop)`` ranges of one array;
* :func:`find_sorted` — batched exact lookup in a sorted array: the
  position of each needle, or -1 (the edge-membership primitive over
  sorted ``src·n + dst`` edge codes);
* :func:`sorted_unique` — distinct values ascending, without the
  bookkeeping of ``np.unique``;
* :func:`closed_wedges` — the triangles of a degree-oriented CSR whose
  lowest corner lies in a source span, as chunked wedge closures: one
  frontier gather and one ``searchsorted`` over edge codes per chunk of
  at most ``cap`` wedges (triangle counting and per-vertex triangles);
* :func:`any_true_per_owner` — reduce a per-gathered-entry mask to a
  per-owner "any hit" flag (the arc-consistency test of candidate
  refinement, batched);
* :func:`scatter_add_ordered` — ordered scatter-add (``np.add.at``):
  increments apply in element order, so for any destination the adds
  happen in source order.  The dense TLAV path relies on this to stay
  bit-identical to the per-vertex engine's left-fold combiner.

All functions take plain ``int64`` arrays so they work on both a
:class:`~repro.graph.csr.Graph` and the shared-memory views that
:mod:`repro.parallel` reattaches inside worker processes.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "in_sorted",
    "intersect_sorted",
    "intersect_count",
    "intersect_multi",
    "expand_frontier",
    "gather_ranges",
    "find_sorted",
    "sorted_unique",
    "closed_wedges",
    "any_true_per_owner",
    "scatter_add_ordered",
    "edge_array",
]


def in_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``needles`` occur in the sorted ``haystack``.

    One vectorized binary search for the whole query batch — the
    replacement for per-element ``np.searchsorted`` calls.
    """
    needles = np.asarray(needles)
    if haystack.size == 0 or needles.size == 0:
        return np.zeros(needles.shape, dtype=bool)
    pos = np.searchsorted(haystack, needles)
    found = pos < haystack.size
    out = np.zeros(needles.shape, dtype=bool)
    hit = np.flatnonzero(found)
    out[hit] = haystack[pos[hit]] == needles[hit]
    return out


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted duplicate-free arrays (sorted output).

    Probes the smaller list into the larger one: ``O(min * log max)``,
    the binary-search flavour of the merge join (right regime for the
    skewed degree distributions the matcher sees).
    """
    if a.size > b.size:
        a, b = b, a
    return a[in_sorted(b, a)]


def intersect_count(a: np.ndarray, b: np.ndarray) -> int:
    """``|a ∩ b|`` for sorted duplicate-free arrays, without materializing."""
    if a.size > b.size:
        a, b = b, a
    return int(np.count_nonzero(in_sorted(b, a)))


def intersect_multi(lists: Sequence[np.ndarray]) -> np.ndarray:
    """k-way intersection of sorted lists, smallest first.

    Starting from the smallest list keeps every probe batch as small as
    possible — the same ordering heuristic the per-element merge kernel
    used, now one ``searchsorted`` per remaining list.
    """
    if not lists:
        return np.empty(0, dtype=np.int64)
    ordered: List[np.ndarray] = sorted(lists, key=lambda arr: arr.size)
    base = ordered[0]
    for other in ordered[1:]:
        if base.size == 0:
            break
        base = base[in_sorted(other, base)]
    return base


def expand_frontier(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated neighborhoods of ``frontier`` and their owners.

    Returns ``(owners, neighbors)`` where ``neighbors`` is
    ``concat(indices[indptr[v]:indptr[v+1]] for v in frontier)`` and
    ``owners[k]`` is the *position in frontier* that contributed
    ``neighbors[k]``.  Pure array arithmetic — no Python loop.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    return gather_ranges(indices, indptr[frontier], indptr[frontier + 1])


def gather_ranges(
    values: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(owners, concat(values[starts[k]:stops[k]] for k))``.

    ``owners[m]`` is the range ``k`` that contributed the ``m``-th
    gathered entry; ``stops >= starts`` elementwise.
    """
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    owners = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    # Global position of each gathered entry: its rank in the output
    # shifted by its range's start minus the range's output offset.
    shift = starts - (np.cumsum(lengths) - lengths)
    flat = np.arange(total, dtype=np.int64) + np.repeat(shift, lengths)
    return owners, values[flat]


def find_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Position of each needle in the sorted duplicate-free ``haystack``, or -1."""
    pos = np.searchsorted(haystack, needles)
    if haystack.size == 0:
        return np.full(pos.shape, -1, dtype=np.int64)
    miss = haystack[np.minimum(pos, haystack.size - 1)] != needles
    pos[miss] = -1
    return pos


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct ``values`` ascending, by sort plus adjacent difference."""
    values = np.sort(values)
    if values.size > 1:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


def closed_wedges(
    indptr: np.ndarray, indices: np.ndarray, lo: int, hi: int, cap: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Closed wedges ``u -> v -> w`` of an oriented CSR with ``u`` in ``[lo, hi)``.

    On a degree-oriented graph (:meth:`Graph.orient_by_degree`) every
    triangle is exactly one wedge ``u -> v -> w`` closed by the edge
    ``u -> w``, with ``u`` its lowest corner, so this yields each
    triangle with a corner in the span once, as aligned ``(u, v, w)``
    arrays, chunk by chunk.  The span's edges are cut into chunks whose
    summed head out-degree is at most ``cap`` (an edge above the cap goes
    alone), so at most ``cap`` wedges are resident; each chunk is one
    :func:`expand_frontier` of its heads and one ``searchsorted`` of the
    wedge codes ``u·n + w`` against the span's edge codes ``u·n + v``,
    which the CSR order already sorts.
    """
    n = indptr.size - 1
    begin, end = int(indptr[lo]), int(indptr[hi])
    mid = indices[begin:end]
    src = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(indptr[lo: hi + 1]))
    codes = src * n + mid
    bounds = np.cumsum(indptr[mid + 1] - indptr[mid])
    start = 0
    while start < mid.size:
        base = int(bounds[start - 1]) if start else 0
        stop = max(int(np.searchsorted(bounds, base + cap, "right")), start + 1)
        owners, w = expand_frontier(indptr, indices, mid[start:stop])
        if w.size:
            u = src[start:stop][owners]
            hit = find_sorted(codes, u * n + w) >= 0
            yield u[hit], mid[start:stop][owners[hit]], w[hit]
        start = stop


def any_true_per_owner(
    owners: np.ndarray, mask: np.ndarray, num_owners: int
) -> np.ndarray:
    """Per-owner OR-reduction of a gathered-entry mask.

    ``owners``/``mask`` are aligned with an :func:`expand_frontier`
    gather; the result is a boolean array of ``num_owners`` entries
    where ``out[k]`` is True iff any gathered entry owned by ``k`` has
    ``mask`` set — the batched form of ``any(pred(w) for w in
    neighbors(v))`` that candidate refinement runs per candidate.
    """
    out = np.zeros(num_owners, dtype=bool)
    if mask.size:
        out[owners[mask]] = True
    return out


def scatter_add_ordered(
    out: np.ndarray, idx: np.ndarray, vals: np.ndarray
) -> np.ndarray:
    """``out[idx[k]] += vals[k]`` applied in element order.

    ``np.add.at`` is unbuffered: repeated destinations accumulate one
    increment at a time, in array order.  When ``idx`` is CSR-ordered
    (sorted by source) the per-destination accumulation order is source-
    ascending — exactly the left fold the Pregel combiner performs, which
    is what makes the dense PageRank path bit-identical to the engine.
    """
    np.add.at(out, idx, vals)
    return out


def edge_array(indptr: np.ndarray, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All directed CSR edges as ``(src, dst)`` arrays in CSR order."""
    degrees = np.diff(indptr)
    src = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), degrees)
    return src, indices
