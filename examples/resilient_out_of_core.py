"""Production concerns for TLAV analytics: memory limits, crashes, queries.

The BigGraph@CUHK lineage the tutorial's presenters built (Section 7)
addressed the unglamorous parts of running vertex-centric analytics in
production.  This example exercises three of them on one graph:

1. **GraphD** — the graph does not fit in memory: PageRank runs over
   on-disk CSR shards paged through a zero-budget cache (at most one
   shard resident at any time);
2. **LWCP** — a worker crashes mid-run: the checkpointed engine
   recovers and still produces the exact answer;
3. **Quegel** — analysts fire point-to-point distance queries at the
   same deployment, batched so they share superstep overhead.

Run with::

    python examples/resilient_out_of_core.py
"""

import os
import tempfile

import numpy as np

from repro.graph.generators import barabasi_albert
from repro.graph.store import build_store, open_store
from repro.resilience import FaultPlan
from repro.tlav import (
    CheckpointedEngine,
    PointQuery,
    QuegelEngine,
    pagerank,
)
from repro.tlav.algorithms import WCCProgram


def main() -> None:
    graph = barabasi_albert(1500, 4, seed=29)
    print(f"graph: {graph}\n")

    # ------------------------------------------------------------------
    # 1. Out-of-core PageRank (GraphD): CSR shards on disk, paged
    #    through a zero-budget cache — at most one shard resident.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as workdir:
        store_path = os.path.join(workdir, "store")
        build_store(graph, store_path, partition="hash", num_parts=8)
        on_disk = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(store_path)
            for name in names
        )
        with open_store(store_path, cache_budget=0) as stored:
            values = pagerank(stored, iterations=10)
            stats = stored.cache.stats
            resident = stored.cache.resident_bytes
        reference = pagerank(graph, iterations=10)
        print("GraphD out-of-core PageRank")
        print(f"  store {on_disk / 1e6:.2f} MB on disk in 8 shards, paged "
              f"{stats.bytes_paged / 1e6:.2f} MB through the cache")
        print(f"  zero budget: {stats.evictions} evictions, "
              f"{resident / 1e3:.1f} KB peak resident")
        print(f"  exact match with in-memory engine: "
              f"{bool(np.allclose(values, reference))}\n")

    # ------------------------------------------------------------------
    # 2. Crash + recovery (LWCP).
    # ------------------------------------------------------------------
    engine = CheckpointedEngine(
        graph, WCCProgram(), checkpoint_interval=2, mode="light",
        injector=FaultPlan().fail_superstep(3).build(),
    )
    values = engine.run()
    from repro.tlav import wcc

    print("LWCP crash recovery (failure injected at superstep 3)")
    print(f"  checkpoints: {engine.stats.checkpoints_taken} light snapshots, "
          f"{engine.stats.checkpoint_bytes / 1e3:.1f} KB total")
    print(f"  supersteps replayed after the crash: "
          f"{engine.stats.supersteps_replayed}")
    print(f"  result identical to failure-free run: "
          f"{values == wcc(graph).tolist()}\n")

    # ------------------------------------------------------------------
    # 3. Batched point queries (Quegel).
    # ------------------------------------------------------------------
    server = QuegelEngine(graph, superstep_overhead=1.0)
    rng = np.random.default_rng(5)
    pairs = [
        (int(rng.integers(graph.num_vertices)),
         int(rng.integers(graph.num_vertices)))
        for _ in range(12)
    ]
    for s, t in pairs:
        server.submit(PointQuery(s, t))
    outcomes, accounting = server.run()
    print("Quegel batched distance queries")
    print(f"  {len(pairs)} queries answered in "
          f"{accounting['global_supersteps']:.0f} shared supersteps")
    print(f"  overhead: {accounting['shared_overhead']:.0f} shared vs "
          f"{accounting['sequential_overhead']:.0f} one-at-a-time "
          f"({accounting['overhead_saving']:.0f} saved)")
    sample = outcomes[0]
    print(f"  e.g. dist({pairs[0][0]}, {pairs[0][1]}) = {sample.distance}, "
          f"touching {sample.vertices_touched} vertices")


if __name__ == "__main__":
    main()
