"""Differential checks for the graph substrate.

Structural invariants over every generated workload (CSR
well-formedness, partition-metric consistency across *all* five
partitioners — which is the check that flushed out the vertex-cut
``edge_cut_fraction`` bug) plus the I/O round-trip, edge-lookup
(presence-filtered vs plain binary search) and CSR-build
(``csr_from_pairs`` vs a dict-and-set build) oracle pairs.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from typing import Dict, List

import numpy as np

from ..check.invariants import csr_well_formed, partition_consistent, same_bits
from ..check.registry import BIT_IDENTICAL, invariant, pair
from ..check.workloads import gen_graph_params, make_graph
from .io import load_edge_list, save_edge_list
from .kernels import PresenceIndex, csr_from_pairs, find_sorted
from .partition import (
    Partition,
    bfs_voronoi_partition,
    hash_partition,
    metis_like_partition,
    range_partition,
    vertex_cut_partition,
)

PARTITIONERS = ("hash", "range", "metis", "bfs_voronoi", "vertex_cut")


def build_partition(graph, params: Dict) -> Partition:
    """Build the partition a parameter dict describes."""
    name = PARTITIONERS[int(params["partitioner"]) % len(PARTITIONERS)]
    parts = max(1, int(params["num_parts"]))
    seed = int(params.get("part_seed", 0))
    n = graph.num_vertices
    if name == "hash":
        return hash_partition(graph, parts, seed=seed)
    if name == "range":
        return range_partition(graph, parts)
    if name == "metis":
        return metis_like_partition(graph, parts, seed=seed)
    if name == "bfs_voronoi":
        stride = max(1, n // max(2 * parts, 1))
        seeds = list(range(0, n, stride))[: max(parts, 1)]
        return bfs_voronoi_partition(graph, parts, seeds or [0], seed=seed)
    return vertex_cut_partition(graph, parts, seed=seed)


def _gen_graph(rng: np.random.Generator) -> Dict:
    return gen_graph_params(rng)


@invariant(
    "graph.csr.well_formed", "graph", gen=_gen_graph, floors={"n": 4},
    description="Generated CSR graphs satisfy the structural contract "
    "every kernel assumes (monotone indptr, sorted in-range rows, "
    "symmetry when undirected).",
)
def _check_csr(params: Dict) -> List[str]:
    return csr_well_formed(make_graph(params))


def _gen_partition(rng: np.random.Generator) -> Dict:
    params = gen_graph_params(rng, n_range=(8, 64))
    params["num_parts"] = int(rng.integers(2, 6))
    params["partitioner"] = int(rng.integers(len(PARTITIONERS)))
    params["part_seed"] = int(rng.integers(1 << 16))
    return params


@invariant(
    "graph.partition.metrics_consistent", "graph", gen=_gen_partition,
    floors={"n": 4, "num_parts": 2, "partitioner": 0},
    description="Partition coverage/balance plus the edge-cut vs "
    "replication tie: vertex-cut partitions must report zero edge cut "
    "(their cost is replication), vertex partitions must not report "
    "more replication than their cut edges can induce.",
)
def _check_partition(params: Dict) -> List[str]:
    graph = make_graph(params)
    partition = build_partition(graph, params)
    return partition_consistent(graph, partition)


@pair(
    "graph.io.edge_list_roundtrip", "graph", BIT_IDENTICAL,
    gen=_gen_graph, floors={"n": 4},
    description="save_edge_list -> load_edge_list reproduces the exact "
    "CSR (indptr, indices, direction).",
)
def _check_io_roundtrip(params: Dict) -> List[str]:
    graph = make_graph(params)
    with tempfile.TemporaryDirectory(prefix="check-io-") as tmp:
        path = os.path.join(tmp, "graph.edges")
        save_edge_list(graph, path)
        loaded = load_edge_list(path, directed=graph.directed)
    out = same_bits(graph.indptr, loaded.indptr, "indptr")
    out += same_bits(graph.indices, loaded.indices, "indices")
    if graph != loaded:
        out.append("roundtrip: Graph equality failed")
    return out


# Largest vertex count whose pair codes u·n + w (up to n² - 1) fit int64.
_MAX_CODE_N = 3_037_000_499


def _gen_lookup(rng: np.random.Generator) -> Dict:
    return {
        # Half the cases draw codes from a small id space (dense haystacks,
        # many hits), half from one whose codes reach 2**63.
        "n": int(rng.integers(1, 40)) if rng.integers(2) else
        int(rng.integers(40, _MAX_CODE_N + 1)),
        "codes": int(rng.integers(0, 200)),
        "absent": int(rng.integers(0, 200)),
        "outside": int(rng.integers(0, 20)),
        "value_seed": int(rng.integers(1 << 16)),
    }


@pair(
    "graph.kernels.filtered_vs_searchsorted", "graph", BIT_IDENTICAL,
    gen=_gen_lookup, floors={"n": 1, "codes": 0, "absent": 0, "outside": 0},
    description="PresenceIndex.find (hashed presence table, then binary "
    "search of the needles that pass) vs find_sorted on sorted "
    "duplicate-free codes in [0, n²): empty, single-code and dense "
    "haystacks, codes up to 2**63 - 1, and needles mixing every "
    "haystack code with absent and out-of-range ones.",
)
def _check_filtered_lookup(params: Dict) -> List[str]:
    n = int(params["n"])
    rng = np.random.default_rng(int(params["value_seed"]))
    universe = n * n
    hay = np.unique(rng.integers(0, universe, size=int(params["codes"])))
    outside = int(params["outside"])
    needles = np.concatenate([
        hay,
        rng.integers(0, universe, size=int(params["absent"])),
        rng.integers(universe, np.iinfo(np.int64).max, size=outside, endpoint=True),
        -rng.integers(1, np.iinfo(np.int64).max, size=outside, endpoint=True),
    ])
    rng.shuffle(needles)
    return same_bits(find_sorted(hay, needles), PresenceIndex(hay).find(needles),
                     "PresenceIndex.find")


def _gen_pairs(rng: np.random.Generator) -> Dict:
    return {
        "n": int(rng.integers(0, 40)),
        # 0: square (one vertex space); 1: rectangular, as a store shard's
        # local rows against global columns; 2: rectangular past int64 codes.
        "shape": int(rng.integers(3)),
        "directed": int(rng.integers(2)),
        "pairs": int(rng.integers(0, 150)),
        "repeats": int(rng.integers(0, 60)),
        "labels": int(rng.integers(0, 4)),  # distinct labels; 0: none
        "outside": int(rng.integers(4) == 0),
        "value_seed": int(rng.integers(1 << 16)),
    }


def _draw_pairs(params: Dict):
    """Random pairs plus repeats of some (reversed half the time when
    square), self-loops, perhaps one pair past the last row; shuffled."""
    n, kind = int(params["n"]), int(params["shape"])
    rng = np.random.default_rng(int(params["value_seed"]))
    width = n
    if kind == 1:
        width += int(rng.integers(1, 20))
    elif kind == 2:
        width = (1 << 62) + int(rng.integers(1 << 20))
    count = int(params["pairs"]) if n else 0
    rows = rng.integers(0, max(n, 1), size=count)
    # The wide shape's columns are a few huge ids, so pairs repeat there too.
    cols = width - 1 - rng.integers(0, 8, size=count) if kind == 2 else \
        rng.integers(0, max(width, 1), size=count)
    again = rng.integers(0, max(count, 1), size=int(params["repeats"]) if count else 0)
    flip = (rng.integers(2, size=again.size) == 1) & (kind == 0)
    loops = rng.integers(0, max(n, 1), size=again.size // 4)
    rows, cols = (
        np.concatenate([rows, np.where(flip, cols[again], rows[again]), loops]),
        np.concatenate([cols, np.where(flip, rows[again], cols[again]), loops]),
    )
    if params["outside"]:
        rows, cols = np.append(rows, n + int(rng.integers(3))), np.append(cols, 0)
    order = rng.permutation(rows.size)
    labels = rng.integers(0, int(params["labels"]) + 1, size=rows.size)
    directed = bool(params["directed"]) or kind != 0
    return (rows[order], cols[order], labels if params["labels"] else None,
            (n, width), directed)


def _reference_csr(rows, cols, labels, shape, directed):
    """The builder's rules in plain Python: a dict of first labels, one
    pair at a time, then the kept slots sorted."""
    num_rows, width = shape
    first: Dict = {}
    for r, c, label in zip(rows, cols, labels):
        if num_rows == width and r == c:
            continue
        if not (0 <= r < num_rows and 0 <= c < width):
            raise ValueError(f"pair ({r}, {c}) outside {shape}")
        first.setdefault((r, c) if directed else (min(r, c), max(r, c)), label)
    slots = dict(first)
    if not directed:
        slots.update({(c, r): label for (r, c), label in first.items()})
    ordered = sorted(slots)
    indptr = [0] * (num_rows + 1)
    for r, _ in ordered:
        indptr[r + 1] += 1
    return (np.array(list(itertools.accumulate(indptr)), dtype=np.int64),
            np.array([c for _, c in ordered], dtype=np.int64),
            np.array([slots[key] for key in ordered], dtype=np.int64))


@pair(
    "graph.csr.from_pairs_vs_reference", "graph", BIT_IDENTICAL,
    gen=_gen_pairs,
    floors={"n": 0, "shape": 0, "directed": 0, "pairs": 0, "repeats": 0,
            "labels": 0, "outside": 0},
    description="csr_from_pairs (code sort; stable argsort under labels; "
    "lexsort past int64) vs a pure-Python dict build with the builder's "
    "rules (self-loops dropped, undirected pairs canonical and mirrored, "
    "first label kept, rows sorted) over square, rectangular and "
    "overflowing shapes, n of 0 and 1, isolated vertices, and "
    "out-of-range pairs, which both sides must reject.",
)
def _check_from_pairs(params: Dict) -> List[str]:
    rows, cols, labels, shape, directed = _draw_pairs(params)

    def run():
        return csr_from_pairs(rows, cols, shape, directed=directed, labels=labels)

    try:
        want = _reference_csr(rows.tolist(), cols.tolist(),
                              [0] * rows.size if labels is None else labels.tolist(),
                              shape, directed)
    except ValueError:
        try:
            run()
        except ValueError:
            return []
        return ["an out-of-range pair was accepted"]
    got = run()
    out = same_bits(want[0], got[0], "indptr") + same_bits(want[1], got[1], "indices")
    if labels is not None:
        return out + same_bits(want[2], got[2], "labels")
    return out + ([] if got[2] is None else ["labels returned for unlabelled input"])
