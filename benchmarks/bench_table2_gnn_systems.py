"""T2 — regenerate Table 2: techniques of distributed GNN systems.

The paper's Table 2 checks, per system, which of the technique columns
it uses.  This bench (a) prints the taxonomy's rendering, (b) runs one
training configuration per *technique column* on the same task — the
ablation view of Table 2 — reporting each technique's characteristic
measurement, and (c) sanity-checks the flags.
"""

import numpy as np
import pytest

from _harness import report
from repro.core.taxonomy import TABLE2_SYSTEMS, render_table2
from repro.gnn.distributed import DistributedTrainer
from repro.gnn.models import NodeClassifier
from repro.gnn.pipeline import measured_stage_times, pipelined_schedule, sequential_schedule
from repro.gnn.staleness import simulate_staleness, train_stale_gradients
from repro.gnn.train import train_sampled
from repro.graph.generators import planted_partition
from repro.graph.partition import hash_partition, metis_like_partition


def _run():
    g, labels = planted_partition(3, 28, p_in=0.18, p_out=0.012, seed=12)
    n = g.num_vertices
    rng = np.random.default_rng(6)
    features = np.eye(3)[labels] + rng.normal(0, 1.2, size=(n, 3))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[: n // 2]] = True
    val_mask = ~train_mask

    rows = []

    def distributed(partition, bits=None, ef=False):
        trainer = DistributedTrainer(
            NodeClassifier(3, 8, 3, seed=0), g, partition, features, labels,
            lr=0.05, halo_bits=bits, error_feedback=ef,
        )
        rep = trainer.train(train_mask, val_mask, epochs=15)
        return trainer, rep

    base_t, base_r = distributed(hash_partition(g, 4))
    rows.append(
        ["baseline (hash, sync, fp64)", base_t.remote_bytes,
         round(base_r.final_val_accuracy, 3), "-"]
    )
    part_t, part_r = distributed(metis_like_partition(g, 4, seed=0))
    rows.append(
        ["+ partitioning (DistDGL/METIS)", part_t.remote_bytes,
         round(part_r.final_val_accuracy, 3),
         f"-{100 * (1 - part_t.remote_bytes / base_t.remote_bytes):.0f}% bytes"]
    )
    samp_r = train_sampled(
        NodeClassifier(3, 8, 3, layer="sage", seed=0), g, features=features,
        labels=labels, train_mask=train_mask, val_mask=val_mask, epochs=10,
        batch_size=16, fanouts=(5, 5), lr=0.05,
    )
    rows.append(
        ["+ sampling (Euler/AliGraph)",
         f"{samp_r.gathered_features // samp_r.steps} rows/step",
         round(samp_r.final_val_accuracy, 3), "-"]
    )
    batches = measured_stage_times(30, seed=1)
    seq = sequential_schedule(batches).makespan
    pipe = pipelined_schedule(batches).makespan
    rows.append(
        ["+ scheduling (ByteGNN/BGL)", f"makespan {pipe:.1f} vs {seq:.1f}",
         "-", f"-{100 * (1 - pipe / seq):.0f}% time"]
    )
    ssp0 = simulate_staleness(8, 50, 0, seed=2)
    ssp3 = simulate_staleness(8, 50, 3, seed=2)
    async_r = train_stale_gradients(
        NodeClassifier(3, 8, 3, seed=0), g, features, labels, train_mask,
        val_mask, staleness=3, epochs=30, lr=0.05,
    )
    rows.append(
        ["+ asynchrony (Dorylus/P3/Sancus)",
         f"util {ssp3.utilization:.2f} vs {ssp0.utilization:.2f}",
         round(async_r.final_val_accuracy, 3), "-"]
    )
    quant_t, quant_r = distributed(metis_like_partition(g, 4, seed=0), bits=4, ef=True)
    rows.append(
        ["+ compression (EC-Graph int4+EF)", quant_t.remote_bytes,
         round(quant_r.final_val_accuracy, 3),
         f"-{100 * (1 - quant_t.remote_bytes / part_t.remote_bytes):.0f}% bytes"]
    )
    return rows


def test_table2_feature_flags_consistent():
    by_name = {s.name: s for s in TABLE2_SYSTEMS}
    assert by_name["DistDGL"].partitioning
    assert by_name["Sancus"].asynchrony
    assert by_name["EC-Graph"].compression
    assert by_name["DGCL"].comm_optimization
    assert by_name["HongTu"].cpu_offload
    assert by_name["Dorylus"].platform == "serverless"


def test_table2_regeneration(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    table_text = render_table2()
    print("\n" + table_text)
    report(
        "T2",
        "Table 2 regenerated + per-technique ablation on one GCN task",
        ["technique column (exemplar systems)", "traffic / resource",
         "val accuracy", "delta"],
        rows,
    )
    import os

    from _harness import RESULTS_DIR

    with open(os.path.join(RESULTS_DIR, "T2_table.txt"), "w") as handle:
        handle.write(table_text + "\n")
    # Partitioning cut bytes; compression cut more; accuracy held.
    assert int(rows[1][1]) < int(rows[0][1])
    assert int(rows[5][1]) < int(rows[1][1])
    for row in (rows[0], rows[1], rows[5]):
        assert row[2] >= 0.5
