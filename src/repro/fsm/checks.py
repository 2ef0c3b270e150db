"""Differential checks for the frequent-pattern miners.

Both miners run on :mod:`repro.sim`'s simulated workers, and in both the
worker count is a *schedule*, never an answer: PrefixFPM with one worker
is the serial depth-first reference and any other count reorders the
pattern tree's traversal, and task-parallel MNI runs exactly the
existence checks the serial GraMi evaluation runs with the same
prunings switched off.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..check.invariants import same_multiset, same_values
from ..check.registry import BIT_IDENTICAL, PERMUTATION, pair
from ..graph.generators import random_labeled_graph, random_labeled_transactions
from ..matching.pattern import PatternGraph
from .prefixfpm import GraphPatterns, PrefixMiner, SequencePatterns
from .single_graph import mni_support, mni_support_parallel


def _gen_prefix(rng: np.random.Generator) -> Dict:
    return {
        "seed": int(rng.integers(1 << 16)),
        "database": int(rng.integers(2, 9)),
        "length": int(rng.integers(1, 8)),
        "min_support": int(rng.integers(1, 4)),
        "num_workers": int(rng.integers(2, 7)),
    }


@pair(
    "fsm.prefixfpm.workers_vs_serial", "fsm", PERMUTATION,
    gen=_gen_prefix,
    floors={"database": 1, "length": 1, "min_support": 1, "num_workers": 2},
    description="Stealing reorders the pattern tree's traversal: any "
    "worker count mines the (pattern, support) multiset one worker "
    "mines, for PrefixSpan sequences and for gSpan graph patterns.",
)
def _check_prefix(params: Dict) -> List[str]:
    seed, size = int(params["seed"]), int(params["database"])
    rng = np.random.default_rng(seed)
    sequences = rng.integers(4, size=(size, int(params["length"]))).tolist()
    db = random_labeled_transactions(size, 6, 0.4, 2, seed=seed)
    out: List[str] = []
    for label, domain in (
        ("sequences", SequencePatterns(sequences)),
        ("graphs", GraphPatterns(db, max_edges=3)),
    ):
        serial, multi = (
            PrefixMiner(domain, int(params["min_support"]), num_workers=w).run()
            for w in (1, int(params["num_workers"]))
        )
        out += same_multiset(serial, multi, label)
    return out


def _gen_mni(rng: np.random.Generator) -> Dict:
    return {
        "seed": int(rng.integers(1 << 16)),
        "n": int(rng.integers(6, 40)),
        "p": round(float(rng.uniform(0.05, 0.3)), 3),
        "pattern_edges": int(rng.integers(1, 4)),
        "num_workers": int(rng.integers(1, 9)),
    }


@pair(
    "fsm.mni.parallel_vs_serial", "fsm", BIT_IDENTICAL,
    gen=_gen_mni,
    floors={"n": 3, "pattern_edges": 1, "num_workers": 1},
    description="T-FSM's one-task-per-candidate MNI evaluation returns "
    "the support and the per-vertex domains of the serial evaluation "
    "with early stop and embedding reuse off, at any worker count.",
)
def _check_mni(params: Dict) -> List[str]:
    seed = int(params["seed"])
    graph = random_labeled_graph(
        max(int(params["n"]), 3), float(params["p"]), 2, seed=seed
    )
    # A labelled path, closed into a triangle at three edges.
    k = int(params["pattern_edges"])
    labels = np.random.default_rng(seed).integers(2, size=min(k + 1, 3))
    pattern = PatternGraph.from_edges(
        [(0, 1), (1, 2), (2, 0)][:k], vertex_labels=labels.tolist()
    )
    serial = mni_support(
        graph, pattern, early_stop=False, reuse_embeddings=False
    )
    parallel, _ = mni_support_parallel(
        graph, pattern, num_workers=int(params["num_workers"])
    )
    out = same_values(serial.support, parallel.support, "support")
    out += same_values(serial.domains, parallel.domains, "domains")
    out += same_values(serial.search_ops, parallel.search_ops, "search_ops")
    return out
