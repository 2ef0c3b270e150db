"""repro: systems for scalable graph analytics and machine learning.

A from-scratch Python reproduction of the system families surveyed in
"Systems for Scalable Graph Analytics and Machine Learning: Trends and
Methods" (Yan, Yuan, Ahmad, Adhikari; PVLDB 18(12), 2025 / EDBT 2025):

* :mod:`repro.graph` -- CSR graph substrate, generators, I/O, partitioners,
  and the on-disk partitioned store;
* :mod:`repro.cluster` -- simulated workers/links with traffic accounting;
* :mod:`repro.tlav` -- think-like-a-vertex (Pregel-family) engines;
* :mod:`repro.tlag` -- think-like-a-task engines for subgraph search
  (DFS tasks + stealing, BFS extension, AIMD chunking, BFS-DFS hybrid,
  warp-level GPU simulation, interactive querying);
* :mod:`repro.matching` -- patterns, matching orders, codegen, cliques;
* :mod:`repro.fsm` -- gSpan, PrefixFPM, single-graph MNI mining;
* :mod:`repro.gnn` -- numpy autograd, GCN/SAGE/GAT, sampling, the
  mini-batch loader, and the distributed-training technique set of the
  paper's Table 2;
* :mod:`repro.core` -- the Figure-1 pipeline API and the Tables-1/2
  taxonomy;
* :mod:`repro.serve` -- the multi-tenant serving front door (scheduler,
  micro-batcher, versioned result cache, circuit breakers, soaks);
* :mod:`repro.parallel` -- real multicore executors, warm worker pools,
  shared-memory CSR and the cost model behind ``backend="auto"``;
* :mod:`repro.obs` -- metrics, tracing and the stats-view protocol;
* :mod:`repro.check` -- the differential correctness harness;
* :mod:`repro.resilience` -- seeded fault plans, retries and snapshots.

Every package ``__init__`` only declares lazy re-exports
(:mod:`repro._exports`): a name is imported the first time it is read.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table, figure and quantified claim.
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, dict.fromkeys((
    "graph", "cluster", "tlav", "tlag", "matching", "fsm", "gnn", "core",
    "serve", "parallel", "obs", "check", "resilience",
)))
__all__.append("__version__")
