"""Differential correctness harness.

Every engine family in this repository exists at least twice — an
in-memory reference plus out-of-core, vectorized, distributed, parallel
or compiled re-implementations of the *same* computation.  This package
turns that redundancy into an enforced oracle relation:

* :mod:`repro.check.registry` — declarations: every redundant pair and
  structural invariant, with its equivalence relation (bit-identical,
  permutation, bounded-error) and shrink floors;
* :mod:`repro.check.invariants` — the shared comparators and the
  structural invariants (CSR well-formedness, partition-metric
  consistency, stats-merge equality);
* :mod:`repro.check.shrink` — greedy minimization of failing cases to
  committable reproducers;
* :mod:`repro.check.runner` — suite/corpus execution, reporting, and
  ``check.*`` observability.

Run it via ``python -m repro check --suite quick --seed 0`` (the CI
gate) or ``--suite full`` for every registered pair.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "invariants": (
        "bounded_error", "csr_well_formed", "partition_consistent", "same_bits",
        "same_multiset", "same_stats", "same_values",
    ),
    "registry": (
        "BIT_IDENTICAL", "BOUNDED_ERROR", "INVARIANT", "PERMUTATION", "REGISTRY",
        "Check", "CheckRegistry", "case_rng", "invariant", "load_all", "pair",
    ),
    "runner": (
        "CaseResult", "CheckReport", "default_corpus_dir", "load_case", "run_case",
        "run_corpus", "run_suite", "save_case",
    ),
    "shrink": ("ShrinkResult", "shrink_case"),
})
