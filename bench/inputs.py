"""Bench-owned, seeded, vectorised input generators.

The repo's own generators (``repro.graph.generators``) build graphs one
edge at a time through ``GraphBuilder`` — ``rmat(17)`` takes ~48 s and
``Graph.from_edges`` on 1.6M pairs ~36 s — so using them would put tens
of seconds of generator time into ``setup_s`` and make the generators an
accidental optimisation target.  Everything here is plain numpy; the
program under test only ever receives the arrays these functions return
(edge pairs, CSR ``indptr``/``indices`` fed to the public
``Graph(indptr, indices)`` constructor, labels, features, update
batches), and ``--seed`` alone selects them.

Sizes are exact functions of the parameters wherever the program's work
depends on them (vertex count always; edge count up to the few
duplicates a random draw produces), so run-to-run spread across seeds
comes from the program, not from the inputs.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "power_law_edges",
    "sbm_edges",
    "noisy_onehot",
    "csr_from_edges",
    "check_csr",
    "update_batches",
]


def _canonical(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Unique undirected pairs ``lo < hi`` as sorted codes ``lo * n + hi``."""
    keep = u != v
    u, v = u[keep], v[keep]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    return np.unique(lo * np.int64(n) + hi)


def power_law_edges(
    n: int, out_degree: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Undirected power-law graph as a shuffled ``(m, 2)`` edge stream.

    Every vertex draws ``out_degree`` targets from a Zipf-like law over
    vertex ids (``P(j) ∝ (j + 1) ** -alpha``, inverse-CDF sampled), so
    low ids are hubs, every vertex has degree >= 1, and the hub's
    eccentricity — which fixes the BFS depth and the hash-min WCC round
    count — is the same for every seed.  ``m`` is ``n * out_degree``
    minus the self-loops/duplicates the draw produced (< 2 % at the
    bench sizes).  The stream order is a seeded shuffle with random
    endpoint orientation: what an ingest pipeline sees, not CSR order.
    """
    weights = np.arange(1, n + 1, dtype=np.float64) ** -alpha
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    dst = np.searchsorted(cdf, rng.random(src.size)).astype(np.int64)
    np.minimum(dst, n - 1, out=dst)
    codes = _canonical(src, dst, n)
    rng.shuffle(codes)
    pairs = np.stack([codes // n, codes % n], axis=1)
    flip = rng.random(pairs.shape[0]) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    return pairs


def sbm_edges(
    n: int,
    communities: int,
    intra_degree: float,
    inter_degree: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stochastic block model: ``(pairs, labels)``.

    ``labels`` assigns vertices round-robin to ``communities`` equal
    blocks; each vertex gets ``intra_degree`` expected neighbours inside
    its block and ``inter_degree`` outside.  Pair counts are fixed (not
    binomial) so the edge count barely moves with the seed.
    """
    labels = (np.arange(n, dtype=np.int64) % communities).astype(np.int64)
    block = n // communities
    m_in = int(round(n * intra_degree / 2))
    m_out = int(round(n * inter_degree / 2))
    # Intra: pick a community, then two members (ids = c + communities * k).
    c = rng.integers(communities, size=m_in)
    a = c + communities * rng.integers(block, size=m_in)
    b = c + communities * rng.integers(block, size=m_in)
    # Inter: two vertices from different communities (shift by 1..C-1).
    u = rng.integers(block * communities, size=m_out)
    shift = rng.integers(1, communities, size=m_out)
    v = (u % communities + shift) % communities + communities * rng.integers(
        block, size=m_out
    )
    codes = _canonical(
        np.concatenate([a, u]).astype(np.int64),
        np.concatenate([b, v]).astype(np.int64),
        n,
    )
    return np.stack([codes // n, codes % n], axis=1), labels


def noisy_onehot(
    labels: np.ndarray, dim: int, noise: float, rng: np.random.Generator
) -> np.ndarray:
    """``(n, dim)`` float64 features: one-hot of the label plus Gaussian noise."""
    x = rng.normal(scale=noise, size=(labels.size, dim))
    x[np.arange(labels.size), labels % dim] += 1.0
    return x


def csr_from_edges(pairs: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric, sorted, duplicate-free CSR of undirected ``pairs`` (checked)."""
    codes = _canonical(pairs[:, 0], pairs[:, 1], n)
    lo, hi = codes // n, codes % n
    # One sort of the directed codes ``src * n + dst`` orders by (src, dst).
    slots = np.sort(np.concatenate([codes, hi * np.int64(n) + lo]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(slots // n, minlength=n), out=indptr[1:])
    indices = slots % n
    check_csr(indptr, indices)
    return indptr, indices


def check_csr(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise unless the CSR is sorted, symmetric, loop- and duplicate-free."""
    n = indptr.size - 1
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
        raise ValueError("indptr is not a monotone 0..len(indices) index")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("neighbor id out of range")
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if np.any(src == indices):
        raise ValueError("self-loop present")
    codes = src * np.int64(n) + indices
    if np.any(np.diff(codes) <= 0):
        raise ValueError("adjacency not strictly sorted (unsorted or duplicate)")
    if not np.array_equal(np.sort(indices * np.int64(n) + src), codes):
        raise ValueError("adjacency not symmetric")


def update_batches(
    pairs: np.ndarray, n: int, batch_edges: int, rng: np.random.Generator
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Endless consistent ``(inserts, deletes)`` batches over an evolving edge set.

    Each batch deletes ``batch_edges`` live edges and inserts the same
    number of fresh non-edges, so the edge count is stationary and every
    request is effective (same contract as ``random_edge_updates``,
    without its per-edge Python set loop).
    """
    live = _canonical(pairs[:, 0], pairs[:, 1], n)
    while True:
        victims = rng.choice(live, size=batch_edges, replace=False)
        fresh = np.empty(0, dtype=np.int64)
        while fresh.size < batch_edges:
            cand = _canonical(
                rng.integers(n, size=2 * batch_edges),
                rng.integers(n, size=2 * batch_edges),
                n,
            )
            fresh = np.union1d(fresh, cand[~np.isin(cand, live)])
        fresh = rng.permutation(fresh)[:batch_edges]
        live = np.union1d(np.setdiff1d(live, victims), fresh)
        yield (
            np.stack([fresh // n, fresh % n], axis=1),
            np.stack([victims // n, victims % n], axis=1),
        )
