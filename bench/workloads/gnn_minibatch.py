"""``gnn_minibatch`` — sampled training to an accuracy gate, over a store.

The ML path: ``gnn.sampling`` + ``gnn.dataloader`` + ``gnn.caching`` +
the store's feature shards dominate.  The full-graph twin bypasses
sampler and loader; sampled inference uses the sampler the way serving
does, so a sampler rewrite must move training *and* inference and leave
the twin flat.  Regimes are compared by time to a fixed accuracy gate
(Bajaj et al.), never by epoch time.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

import inputs
from harness import Phase
from repro.gnn.caching import LRUCache
from repro.gnn.dataloader import MiniBatchLoader, infer_sampled
from repro.gnn.models import NodeClassifier
from repro.gnn.train import train_full_graph, train_sampled
from repro.graph.csr import Graph
from repro.graph.store import build_store, open_store

SIZES = {
    "full": {"n": 800, "communities": 4, "intra_degree": 12.0,
             "inter_degree": 4.5, "feature_dim": 8, "noise": 0.6, "parts": 8,
             "batch_size": 64, "fanouts": (10, 10), "epochs": 2, "lr": 0.05,
             "fullgraph_epochs": 20, "target_acc": 0.85, "feature_rows": 4_096,
             "trace_passes": {"train": 8, "full": 12, "infer": 16, "loader": 5,
                              "features": 10}},
    "smoke": {"n": 240, "communities": 4, "intra_degree": 8.0,
              "inter_degree": 2.0, "feature_dim": 8, "noise": 0.3, "parts": 2,
              "batch_size": 32, "fanouts": (5, 5), "epochs": 3, "lr": 0.05,
              "fullgraph_epochs": 40, "target_acc": 0.7, "feature_rows": 256,
              "trace_passes": {"train": 1, "full": 1, "infer": 1, "loader": 1,
                               "features": 1}},
}
SHARES = {"train": 0.5, "full": 0.25, "infer": 0.25}
ALIASES = {"main_pass_s": "train_to_target_s",
           "twin_pass_s": "fullgraph_to_target_s",
           "side_rate": "infer_nodes_per_s"}


def setup(run):
    sz = run.sizes
    rng = np.random.default_rng(run.seed)
    pairs, labels = inputs.sbm_edges(
        sz["n"], sz["communities"], sz["intra_degree"], sz["inter_degree"], rng
    )
    indptr, indices = inputs.csr_from_edges(pairs, sz["n"])
    graph = Graph(indptr, indices)
    features = inputs.noisy_onehot(labels, sz["feature_dim"], sz["noise"], rng)
    train_mask = np.zeros(sz["n"], dtype=bool)
    train_mask[rng.permutation(sz["n"])[: sz["n"] // 2]] = True
    store_dir = os.path.join(run.workdir, "gnn-store")
    build_store(graph, store_dir, partition="range", num_parts=sz["parts"],
                features=features)
    return {"graph": graph, "features": features, "labels": labels,
            "train_mask": train_mask, "val_mask": ~train_mask,
            "store_dir": store_dir, "stored": open_store(store_dir)}


def teardown(run, state):
    state["stored"].close()
    shutil.rmtree(state["store_dir"], ignore_errors=True)


def _model(run):
    sz = run.sizes
    return NodeClassifier(sz["feature_dim"], 16, sz["communities"], seed=run.seed)


def _loader(run, state, prefetch=0):
    sz = run.sizes
    return MiniBatchLoader(
        state["stored"], items=np.nonzero(state["train_mask"])[0],
        batch_size=sz["batch_size"], fanouts=sz["fanouts"], seed=run.seed,
        cache=LRUCache(sz["n"] // 4), prefetch=prefetch,
    )


def run(run, state):
    sz, fixed = run.sizes, run.sizes["trace_passes"]
    stored, labels = state["stored"], state["labels"]
    val_nodes = np.nonzero(state["val_mask"])[0]
    last = {}  # model / loader / reports of the latest pass (same work every pass)

    def train(i):
        last["model"] = model = _model(run)
        with run.timed("train"), run.span("gnn.train_sampled", layer="gnn.train"):
            last["loader"] = _loader(run, state)
            last["report"] = train_sampled(
                model, stored, labels=labels, train_mask=state["train_mask"],
                val_mask=state["val_mask"], epochs=sz["epochs"],
                batch_size=sz["batch_size"], fanouts=sz["fanouts"], lr=sz["lr"],
                seed=run.seed, loader=last["loader"],
            )
        run.check("gnn.sampled_accuracy_gate",
                  last["report"].final_val_accuracy >= sz["target_acc"])

    def full(i):
        twin = _model(run)
        with run.timed("full"), run.span("gnn.train_full_graph", layer="gnn.train"):
            last["full_report"] = train_full_graph(
                twin, state["graph"], features=state["features"], labels=labels,
                train_mask=state["train_mask"], val_mask=state["val_mask"],
                epochs=sz["fullgraph_epochs"], lr=sz["lr"],
            )
        run.check("gnn.fullgraph_accuracy_gate",
                  last["full_report"].final_val_accuracy >= sz["target_acc"])

    def infer(i):
        with run.timed("infer"), run.span("gnn.infer_sampled", layer="gnn.sampling"):
            predicted = infer_sampled(
                last["model"], stored, nodes=val_nodes, batch_size=sz["batch_size"],
                fanouts=sz["fanouts"], seed=run.seed,
            )
        if "predicted" not in last:
            last["predicted"] = predicted
            run.check("gnn.inference_accuracy_gate",
                      np.mean(predicted == labels[val_nodes]) >= sz["target_acc"])
        run.check("gnn.inference_repeatable",
                  np.array_equal(predicted, last["predicted"]))

    def drain(prefetch):
        def body(i):
            loader = _loader(run, state, prefetch=prefetch)
            with run.timed(f"loader{prefetch}"), run.span(
                f"gnn.loader_drain_prefetch{prefetch}", layer="gnn.dataloader"
            ):
                last[f"batches{prefetch}"] = sum(1 for _ in loader.epoch())
        return body

    ids = np.random.default_rng(run.seed + 2).integers(sz["n"], size=sz["feature_rows"])

    def features(i):
        with run.timed("features"), run.span("store.features"):
            rows = stored.features(ids)
        if i == 0:
            run.check("store.feature_rows_equal_input",
                      np.array_equal(rows, state["features"][ids]))

    run.measure([
        Phase(train, SHARES["train"], fixed["train"], alternate=True),
        Phase(full, SHARES["full"], fixed["full"]),
        Phase(infer, SHARES["infer"], fixed["infer"], min_passes=5),
        Phase(drain(0), 0.0, fixed["loader"]),
        Phase(drain(4), 0.0, fixed["loader"]),
        Phase(features, 0.0, fixed["features"]),
    ])

    if not run.trace:
        run.timing("main_pass_s", of="train")
        run.timing("twin_pass_s", of="full")
        run.metric("side_rate", val_nodes.size / run.fast("infer"), of="infer")
        return

    report, full_report = last["report"], last["full_report"]
    stages = {
        stage: sum(getattr(t, stage) for t in last["loader"].stage_times)
        for stage in ("sample", "gather", "compute")
    }
    train_s = run.samples["train"][-1]  # the pass the stage times belong to
    run.metric("gnn.sample_s", stages["sample"])
    run.metric("gnn.gather_s", stages["gather"])
    run.metric("gnn.compute_s", stages["compute"])
    run.metric("gnn.sample_share", stages["sample"] / train_s)
    run.metric("gnn.eval_s", train_s - sum(stages.values()))
    run.metric("gnn.loader_batches_per_s", last["batches0"] / run.fast("loader0"),
               of="loader0")
    run.metric("gnn.loader_prefetch_batches_per_s",
               last["batches4"] / run.fast("loader4"), of="loader4")
    run.metric("gnn.cache_hit_ratio", last["loader"].cache_report()["hit_rate"],
               exact=True)
    run.metric("gnn.gathered_rows_per_step",
               report.gathered_features / max(1, report.steps), exact=True)
    run.metric("gnn.steps", report.steps, exact=True)
    run.metric("gnn.final_val_acc", report.final_val_accuracy, exact=True)
    run.metric("gnn.fullgraph_final_val_acc", full_report.final_val_accuracy,
               exact=True)
    run.metric("gnn.fullgraph_epoch_s", run.fast("full") / sz["fullgraph_epochs"],
               of="full")
    run.metric("store.feature_rows_per_s", ids.size / run.fast("features"),
               of="features")
    run.metric("bench.trace_overhead_frac", run.trace_overhead("train"))
