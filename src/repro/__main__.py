"""Command-line interface: ``python -m repro <command>``.

Commands (``python -m repro <command> --help`` lists each one's options):

* ``tables`` -- the paper's Tables 1 and 2 from the taxonomy registry;
* ``analyze`` -- structural profile of an edge list, or paged profile of
  a store directory;
* ``match`` -- count a named pattern with the compiled matcher;
* ``generate`` -- write a synthetic graph as an edge list;
* ``store build|inspect|verify|repair`` -- on-disk partitioned stores;
* ``chaos`` -- every engine under a deterministic fault plan;
* ``check`` -- the differential correctness harness (the CI gate);
* ``serve`` -- a seeded multi-tenant serving scenario;
* ``minibatch`` -- GNN training through the mini-batch dataloader;
* ``obs-demo`` -- one metrics registry observing three engines.
"""

from __future__ import annotations

import argparse
import sys
import time

from .core.taxonomy import render_table1, render_table2
from .graph.io import EdgeListError
from .graph.store import StoreError, is_store_dir
from .matching.pattern import NAMED_PATTERNS


def _cmd_tables(_args: argparse.Namespace) -> int:
    print(render_table1())
    print()
    print(render_table2())
    return 0


def _analyze_store(args: argparse.Namespace) -> int:
    """Storage-aware profile: resident O(|V|) arrays, paged analytics."""
    import numpy as np

    from .graph.store import open_store
    from .obs import MetricsRegistry
    from .tlav.vectorized import bfs_dense, pagerank_dense, wcc_dense

    obs = MetricsRegistry()
    stored = open_store(args.path, cache_budget=args.shard_cache, obs=obs)
    manifest = stored.manifest
    degs = stored.degrees()  # resident at open; no paging
    profile = {
        "store": stored.root,
        "name": manifest.name,
        "version": manifest.version,
        "partitioner": manifest.partitioner,
        "num_parts": manifest.num_parts,
        "num_vertices": stored.num_vertices,
        "num_edges": stored.num_edges,
        "num_edge_slots": stored.num_edge_slots,
        "directed": stored.directed,
        "feature_dim": stored.feature_dim,
        "degree": {
            "min": int(degs.min()) if degs.size else 0,
            "median": int(np.median(degs)) if degs.size else 0,
            "mean": float(degs.mean()) if degs.size else 0.0,
            "max": int(degs.max()) if degs.size else 0,
        },
    }
    # Paged analytics: every pass streams CSR shards through the cache.
    ranks = pagerank_dense(stored, iterations=10)
    profile["pagerank"] = {
        "iterations": 10,
        "top_vertex": int(np.argmax(ranks)),
        "top_score": float(ranks.max()),
    }
    if not stored.directed:
        labels = wcc_dense(stored)
        profile["components"] = int(np.unique(labels).size)
        levels = bfs_dense(stored, 0)
        reached = levels >= 0
        profile["bfs_from_0"] = {
            "reached": int(reached.sum()),
            "eccentricity": int(levels[reached].max()) if reached.any() else 0,
        }
    stats = stored.cache_stats()
    profile["paging"] = {
        "shard_bytes": manifest.shard_bytes,
        "cache_budget": stored.cache.budget,
        "paged": stats["bytes_paged"] > 0,
        **stats,
    }
    stored.close()
    if args.json:
        import json

        from .obs import json_safe

        print(json.dumps(json_safe(profile), indent=2, sort_keys=True))
        return 0
    print(f"store           {profile['store']}  (v{profile['version']}, "
          f"{profile['partitioner']} x{profile['num_parts']})")
    print(f"graph           n={profile['num_vertices']} "
          f"m={profile['num_edges']} slots={profile['num_edge_slots']}"
          f"{'  directed' if profile['directed'] else ''}")
    d = profile["degree"]
    print(f"degree          min {d['min']}  median {d['median']} "
          f" mean {d['mean']:.2f}  max {d['max']}")
    pr = profile["pagerank"]
    print(f"pagerank        top vertex {pr['top_vertex']} "
          f"({pr['top_score']:.6f}) after {pr['iterations']} iterations")
    if "components" in profile:
        print(f"components      {profile['components']}")
        bfs = profile["bfs_from_0"]
        print(f"bfs from 0      reached {bfs['reached']} vertices, "
              f"eccentricity {bfs['eccentricity']}")
    pg = profile["paging"]
    budget = "unbounded" if pg["cache_budget"] is None else pg["cache_budget"]
    print(f"paging          shard_bytes={pg['shard_bytes']} budget={budget} "
          f"hits={pg['hits']} misses={pg['misses']} "
          f"evictions={pg['evictions']} bytes_paged={pg['bytes_paged']}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import numpy as np

    if is_store_dir(args.path):
        return _analyze_store(args)

    from .core.graphlets import graphlet_census
    from .graph.io import load_edge_list
    from .graph.properties import (
        clustering_coefficients,
        core_numbers,
        num_connected_components,
    )
    from .matching.densest import densest_subgraph
    from .matching.triangles import triangle_count
    from .matching.truss import max_truss
    from .parallel import ParallelExecutor

    graph = load_edge_list(args.path, directed=args.directed)
    executor = ParallelExecutor(backend=args.backend, workers=args.workers)
    degs = graph.degrees()
    profile = {
        "graph": str(graph),
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "directed": graph.directed,
        "degree": {
            "min": int(degs.min()),
            "median": int(np.median(degs)),
            "mean": float(degs.mean()),
            "max": int(degs.max()),
        },
        "parallel": {
            "backend": executor.backend,
            "workers": executor.workers,
        },
    }
    if not graph.directed:
        vertices, dens = densest_subgraph(graph)
        profile.update(
            components=num_connected_components(graph),
            triangles=triangle_count(graph, executor=executor),
            avg_clustering=float(clustering_coefficients(graph).mean()),
            max_core=int(core_numbers(graph).max()),
            max_truss=max_truss(graph),
            densest_subgraph={"vertices": len(vertices), "density": float(dens)},
        )
        if graph.num_vertices <= 2000:
            profile["graphlets"] = {
                k: int(v) for k, v in graphlet_census(graph).items()
            }
        # The parallel-efficiency gauge the executor recorded while
        # counting triangles: busy / (wall * workers).
        profile["parallel"]["efficiency"] = round(executor.efficiency, 3)
    if executor.backend == "auto":
        # What the calibrated model learned while profiling this graph.
        profile["parallel"]["cost_model"] = executor.cost_model.snapshot()
    executor.close()
    if args.json:
        import json

        from .obs import json_safe

        print(json.dumps(json_safe(profile), indent=2, sort_keys=True))
        return 0
    print(f"graph           {profile['graph']}")
    d = profile["degree"]
    print(f"degree          min {d['min']}  median {d['median']} "
          f" mean {d['mean']:.2f}  max {d['max']}")
    if not graph.directed:
        print(f"components      {profile['components']}")
        print(f"triangles       {profile['triangles']}")
        print(f"avg clustering  {profile['avg_clustering']:.4f}")
        print(f"max core        {profile['max_core']}")
        print(f"max truss       {profile['max_truss']}")
        ds = profile["densest_subgraph"]
        print(f"densest subgraph  {ds['vertices']} vertices, density {ds['density']:.3f}")
        if "graphlets" in profile:
            print("graphlets       "
                  + "  ".join(f"{k}={v}" for k, v in profile["graphlets"].items()))
        par = profile["parallel"]
        print(f"parallel        backend={par['backend']}  workers={par['workers']}"
              f"  efficiency={par['efficiency']:.3f}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run every engine under a deterministic fault plan and check that
    recovery reproduces the failure-free run bit-for-bit."""
    import json

    import numpy as np

    from .cluster.comm import Network
    from .graph.generators import barabasi_albert
    from .obs import MetricsRegistry, Tracer, json_safe
    from .parallel import ParallelExecutor
    from .resilience import FaultPlan, RetryPolicy, resolve_fault_seed

    seed = args.seed if args.seed is not None else resolve_fault_seed()
    obs = MetricsRegistry()
    tracer = Tracer()
    graph = barabasi_albert(200, 3, seed=1)
    retry = RetryPolicy(max_attempts=4, timeout=0.5, seed=seed)

    def run_executor():
        from .matching.triangles import triangle_count

        reference = triangle_count(graph)
        injector = FaultPlan(seed=seed).crash_worker(chunk=1).build(obs)
        with ParallelExecutor(
            backend=args.backend, workers=args.workers, obs=obs,
            injector=injector, tracer=tracer,
        ) as executor:
            recovered = triangle_count(graph, executor=executor)
        return {
            "ok": recovered == reference,
            "faults": injector.faults_injected,
            "redispatched_chunks": int(
                obs.counter("resilience.redispatched_chunks").total
            ),
        }

    def run_network():
        def pump(net):
            received = []
            for i in range(80):
                net.send(i % 4, (3 * i + 1) % 4, payload=i, tag="chaos")
            while net.has_pending():
                net.deliver()
                for w in range(4):
                    received.extend(
                        (w, m.seq, m.payload) for m in net.receive(w)
                    )
            return sorted(received)

        reference = pump(Network(4))
        plan = FaultPlan(seed=seed).lossy_network(
            drop=0.15, duplicate=0.1, delay=0.1
        )
        lossy = Network(
            4, registry=obs, injector=plan.build(obs), retry=retry
        )
        recovered = pump(lossy)
        return {
            "ok": recovered == reference,
            "dropped": lossy.stats.dropped,
            "duplicates": lossy.stats.duplicates,
            "delayed": lossy.stats.delayed,
            "retransmits": lossy.stats.retransmits,
            "retransmitted_bytes": lossy.stats.retransmitted_bytes,
        }

    def run_tlav():
        from .tlav.algorithms import BFSProgram
        from .tlav.fault_tolerance import CheckpointedEngine

        reference = CheckpointedEngine(
            graph, BFSProgram(source=0), checkpoint_interval=2
        ).run()
        injector = FaultPlan(seed=seed).fail_superstep(3).build(obs)
        engine = CheckpointedEngine(
            graph, BFSProgram(source=0), checkpoint_interval=2,
            injector=injector, obs=obs, tracer=tracer,
        )
        return {
            "ok": engine.run() == reference,
            "failures": engine.stats.failures,
            "supersteps_replayed": engine.stats.supersteps_replayed,
        }

    def run_tlag():
        from .tlag.engine import TaskEngine
        from .tlag.programs import TriangleProgram

        reference = sorted(
            TaskEngine(graph, TriangleProgram(), num_workers=4).run()
        )
        injector = FaultPlan(seed=seed).fail_task(25).build(obs)
        engine = TaskEngine(
            graph, TriangleProgram(), num_workers=4,
            injector=injector, checkpoint_every=10, obs=obs, tracer=tracer,
        )
        return {
            "ok": sorted(engine.run()) == reference,
            "restores": engine.snapshots.restores("tlag"),
            "checkpoints": engine.snapshots.checkpoints_taken("tlag"),
        }

    def run_gnn():
        from .gnn.models import NodeClassifier
        from .gnn.train import train_full_graph

        rng = np.random.default_rng(0)
        features = rng.normal(size=(graph.num_vertices, 8))
        labels = rng.integers(0, 3, size=graph.num_vertices)
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[: graph.num_vertices // 2] = True

        def train(injector=None):
            return train_full_graph(
                NodeClassifier(8, 16, 3, seed=5), graph, features=features,
                labels=labels, train_mask=mask, val_mask=~mask, epochs=8,
                injector=injector, checkpoint_every=3, tracer=tracer, obs=obs,
            )

        reference = train()
        injector = FaultPlan(seed=seed).fail_epoch(5).build(obs)
        recovered = train(injector)
        return {
            "ok": recovered.losses == reference.losses
            and recovered.val_accuracy == reference.val_accuracy,
            "final_loss": recovered.final_loss,
        }

    def run_lambda():
        from .gnn.serverless import simulate_fleet

        def fleet(with_retry):
            injector = FaultPlan(seed=seed).fail_lambda(
                0.15, straggler=0.05
            ).build(obs)
            return simulate_fleet(
                64, 1.0, 8, injector=injector,
                retry=retry if with_retry else None, obs=obs,
            )

        cured, uncured = fleet(True), fleet(False)
        return {
            "ok": cured.makespan <= uncured.makespan,
            "failures": cured.failures,
            "stragglers": cured.stragglers,
            "retries": cured.retries,
            "makespan": round(cured.makespan, 3),
            "makespan_no_retry": round(uncured.makespan, 3),
        }

    def run_mutate_soak_scenario():
        from .serve.soak import run_mutate_soak

        report = run_mutate_soak(seed=seed, obs=obs)
        return {
            "ok": report["ok"],
            "batches": report["batches"],
            "final_epoch": report["final_epoch"],
            "pagerank_max_err": report["pagerank_max_err"],
            "cache_promoted": report["cache"]["promoted"],
            "report": report,
        }

    def run_serve_soak_scenario():
        from .serve.soak import run_serve_soak

        report = run_serve_soak(
            seed=seed, workers=args.workers or 2, backend=args.backend,
            obs=obs, tracer=tracer,
        )
        serve_part, store_part = report["serve"], report["store"]
        return {
            "ok": report["ok"],
            "degraded": serve_part["chaos"]["degraded"],
            "breaker_opens": serve_part["breaker_transitions"]["open"],
            "breaker_probes": serve_part["breaker_transitions"]["half_open"],
            "max_staleness": serve_part["max_staleness"],
            "resumed_chunks": store_part["chunks"],
            "report": report,
        }

    scenarios = {
        "executor": run_executor,
        "network": run_network,
        "tlav": run_tlav,
        "tlag": run_tlag,
        "gnn": run_gnn,
        "lambda": run_lambda,
        "serve-soak": run_serve_soak_scenario,
        "mutate-soak": run_mutate_soak_scenario,
    }
    chosen = (
        list(scenarios) if args.scenario == "all" else [args.scenario]
    )
    results = {name: scenarios[name]() for name in chosen}
    report = {
        "fault_seed": seed,
        "scenarios": results,
        "resilience_metrics": {
            m.name: m.as_dict()
            for m in obs
            if m.name.startswith(("resilience.", "cluster.link_faults",
                                  "cluster.retransmit", "serve.breaker.",
                                  "serve.degraded."))
        },
        "recover_spans": [
            s.as_dict() for s in tracer.find("resilience.recover")
        ],
    }
    ok = all(r["ok"] for r in results.values())
    if args.json:
        print(json.dumps(json_safe(report), indent=2, sort_keys=True))
    else:
        print(f"fault seed {seed}")
        for name, r in results.items():
            detail = "  ".join(
                f"{k}={v}" for k, v in r.items()
                if k != "ok" and not isinstance(v, dict)
            )
            print(f"{name:<10} {'OK' if r['ok'] else 'FAILED':<7} {detail}")
        print(f"recoveries traced: {len(report['recover_spans'])}")
    return 0 if ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the differential harness; exit 1 on any violation."""
    import json

    from .check import load_all, run_corpus, run_suite
    from .obs import MetricsRegistry, Tracer, json_safe

    registry = load_all()

    if args.list:
        for check in registry.select(
            suite=None, names=args.only or None, subsystems=args.subsystem or None
        ):
            print(f"{check.name:<46} {check.subsystem:<10} "
                  f"{check.relation:<14} suites={','.join(check.suites)}")
        return 0

    obs = MetricsRegistry()
    tracer = Tracer()
    if args.suite == "corpus":
        report = run_corpus(
            corpus_dir=args.corpus_dir, registry=registry, obs=obs, tracer=tracer
        )
    else:
        report = run_suite(
            suite=args.suite,
            seed=args.seed,
            cases=args.cases,
            shrink_failures=args.shrink,
            names=args.only or None,
            subsystems=args.subsystem or None,
            registry=registry,
            obs=obs,
            tracer=tracer,
        )

    if args.json:
        payload = report.as_dict()
        payload["metrics"] = json_safe(obs.as_dict())
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.ok else 1

    for result in report.results:
        status = "OK" if result.ok else "FAILED"
        print(f"{status:<7} {result.check:<46} "
              f"[{result.relation}] case={result.case} "
              f"({result.seconds * 1000:.0f} ms)")
        if not result.ok:
            print(f"        params: {result.params}")
            for violation in result.violations:
                print(f"        {violation}")
            if result.error:
                print(f"        error: {result.error}")
            if result.shrunk is not None:
                print(f"        shrunk reproducer ({result.shrink_evals} "
                      f"evals): {result.shrunk}")
    print(
        f"suite={report.suite} seed={report.seed}: {report.cases} cases, "
        f"{report.failures} failures; {report.pairs_run} oracle pairs and "
        f"{report.invariants_run} invariants across "
        f"{', '.join(report.subsystems())}"
    )
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a named serving scenario and print its latency/SLO report."""
    import json

    from .obs import MetricsRegistry, Tracer, json_safe
    from .serve import run_scenario

    obs = MetricsRegistry()
    tracer = Tracer()
    report = run_scenario(
        args.scenario,
        seed=args.seed,
        workers=args.workers,
        queue_bound=args.queue_bound,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        cache=not args.no_cache,
        obs=obs,
        tracer=tracer,
    )
    overall = report["overall"]
    if args.json:
        payload = dict(report)
        payload["metrics"] = json_safe(obs.as_dict())
        payload["request_spans"] = len(tracer.find("serve.request"))
        print(json.dumps(json_safe(payload), indent=2, sort_keys=True))
        return 0 if overall["ledger_ok"] else 1
    print(f"scenario {report['scenario']}  seed {report['seed']}  "
          f"workers {report['workers']}  queue_bound {report['queue_bound']}  "
          f"batch_window {report['batch_window']}  "
          f"cache {'on' if report['cache'] else 'off'}")
    print(f"{'endpoint':<22} {'count':>5} {'ok':>4} {'p50':>7} {'p95':>7} "
          f"{'p99':>7} {'miss':>5} {'hits':>5} {'batch':>6}")
    for name, row in report["endpoints"].items():
        print(f"{name:<22} {row['count']:>5} {row['ok']:>4} {row['p50']:>7} "
              f"{row['p95']:>7} {row['p99']:>7} {row['deadline_misses']:>5} "
              f"{row['cache_hits']:>5} {row['mean_batch_size']:>6}")
    print(f"overall         admitted={overall['admitted']} "
          f"completed={overall['completed']} shed={overall['shed']} "
          f"expired={overall['expired']} degraded={overall['degraded']} "
          f"deadline_misses={overall['deadline_misses']}")
    print(f"throughput      {overall['qps_per_kops']} req/kop over "
          f"{overall['makespan_ops']} ops; cache hit rate "
          f"{overall['cache_hit_rate']}; peak queue "
          f"{overall['peak_queue_depth']}")
    print(f"tenants         "
          + "  ".join(f"{t}={w}" for t, w in report["tenants"].items()))
    print(f"ledger          "
          f"{'OK' if overall['ledger_ok'] else 'VIOLATED'} "
          f"(admitted == completed + shed + expired + degraded, "
          f"in_flight 0)")
    return 0 if overall["ledger_ok"] else 1


def _cmd_obs_demo(args: argparse.Namespace) -> int:
    """One shared registry observing three different engines."""
    import json

    import numpy as np

    from .core.pipeline import Pipeline, stages
    from .graph.generators import barabasi_albert
    from .graph.partition import hash_partition
    from .obs import MetricsRegistry, Tracer, json_safe
    from .tlag.engine import TaskEngine
    from .tlag.programs import TriangleProgram
    from .tlav.algorithms import PageRankProgram
    from .tlav.distributed import DistributedPregel
    from .tlav.engine import Aggregator

    obs = MetricsRegistry()
    tracer = Tracer()
    graph = barabasi_albert(300, 3, seed=7)

    with tracer.span("obs-demo"):
        # TLAG: triangle counting on the simulated task engine.
        engine = TaskEngine(
            graph, TriangleProgram(), num_workers=args.workers,
            task_budget=64, collect_results=False, obs=obs, tracer=tracer,
        )
        engine.run()

        # TLAV: distributed PageRank over a hash partition.
        pregel = DistributedPregel(
            graph, PageRankProgram(iterations=8),
            hash_partition(graph, args.workers, seed=0),
            aggregators={
                "dangling": Aggregator(reduce=lambda a, b: a + b, initial=0.0)
            },
            max_supersteps=10, obs=obs,
        )
        pregel.run()

        # Figure-1 pipeline: vertex analytics path.
        Pipeline(
            [stages.pagerank_scores(iterations=10),
             stages.structural_vertex_features()],
            obs=obs, tracer=tracer,
        ).run(graph)

    snapshot = {
        "workload": {
            "graph": str(graph),
            "workers": args.workers,
            "triangles": engine.result_count,
        },
        "metrics": obs.as_dict(),
        "spans": tracer.as_dict()["spans"],
    }
    print(json.dumps(json_safe(snapshot), indent=2, sort_keys=True))
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    from .graph.io import load_edge_list
    from .matching.codegen import compile_matcher, prepare_adjacency
    from .matching.plan import GraphStats, Planner

    graph = load_edge_list(args.path)
    pattern = NAMED_PATTERNS[args.pattern]()
    planner = Planner(GraphStats.of(graph))
    plan = planner.plan(pattern) if args.order == "planned" else planner.worst_plan(pattern)
    func = compile_matcher(pattern, order=plan.order)
    adj, adjset = prepare_adjacency(graph)
    start = time.perf_counter()
    count = func(adj, adjset, graph.num_vertices)
    elapsed = time.perf_counter() - start
    print(f"{args.pattern} instances: {count}  "
          f"(order {plan.order}, {elapsed:.3f}s compiled)")
    return 0


def _cmd_store_build(args: argparse.Namespace) -> int:
    """Stream an unlabelled edge list through the chunked ingest when the
    partitioner only needs vertex ids; build metis partitions and edge
    labels in memory."""
    from .graph.io import load_edge_list, read_edge_list
    from .graph.store import STREAMING_PARTITIONERS, build_store, ingest_edge_stream

    n, labelled = 0, False
    if args.partition in STREAMING_PARTITIONERS:
        # Pass 0: vertex count and label column, one line at a time.
        # Self-loops are dropped on both paths, as load_edge_list does.
        for u, v, label in read_edge_list(args.path):
            if u != v:
                n = max(n, u + 1, v + 1)
            labelled = labelled or label != 0
    if labelled or args.partition not in STREAMING_PARTITIONERS:
        manifest = build_store(
            load_edge_list(args.path, directed=args.directed), args.dest,
            partition=args.partition, num_parts=args.num_parts,
            seed=args.seed, name=args.name, overwrite=args.overwrite,
        )
    else:
        manifest = ingest_edge_stream(
            ((u, v) for u, v, _ in read_edge_list(args.path) if u != v),
            n, args.dest,
            directed=args.directed, partition=args.partition,
            num_parts=args.num_parts, seed=args.seed,
            chunk_edges=args.chunk_edges, name=args.name,
            overwrite=args.overwrite,
        )
    print(f"wrote {args.dest}: n={manifest.num_vertices} "
          f"m={manifest.num_edges} slots={manifest.num_edge_slots} "
          f"parts={manifest.num_parts} ({manifest.partitioner}, "
          f"{manifest.built_by}), {manifest.shard_bytes} shard bytes")
    return 0


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    from .graph.store import Manifest, verify_store

    manifest = Manifest.load(args.dir)
    if args.verify:
        report = verify_store(args.dir)
        if not report.ok:
            raise StoreError(
                f"{len(report.bad_paths)} file(s) failed verification: "
                + ", ".join(report.bad_paths)
            )
    if args.json:
        import json

        payload = manifest.as_dict()
        if args.verify:
            payload["verified"] = True
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"store           {args.dir}")
    print(f"name            {manifest.name}  (v{manifest.version}, "
          f"built by {manifest.built_by})")
    print(f"graph           n={manifest.num_vertices} "
          f"m={manifest.num_edges} slots={manifest.num_edge_slots}"
          f"{'  directed' if manifest.directed else ''}")
    print(f"partitioner     {manifest.partitioner} x{manifest.num_parts}")
    labels = [
        label for label, present in (
            ("vertex", manifest.has_vertex_labels),
            ("edge", manifest.has_edge_labels),
        ) if present
    ]
    if labels:
        print(f"labels          {', '.join(labels)}")
    if manifest.feature_dim is not None:
        print(f"features        dim {manifest.feature_dim}")
    print(f"shard bytes     {manifest.shard_bytes}")
    print(f"{'part':>4} {'vertices':>9} {'slots':>9} {'bytes':>10}")
    for part in manifest.partitions:
        print(f"{part.part_id:>4} {part.num_vertices:>9} "
              f"{part.num_edge_slots:>9} {part.shard_bytes:>10}")
    if args.verify:
        print("verified        all shard sizes and CRC-32 checksums OK")
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from .graph.store import CorruptShardError, repair_store, verify_store

    if args.store_command == "repair":
        try:
            report = repair_store(args.dir)
        except CorruptShardError as exc:
            report = exc.report
    else:
        report = verify_store(args.dir)
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    print(f"store           {args.dir}")
    print(f"checked         {report.checked} manifest-listed files")
    for label, paths in (("corrupt", report.corrupt),
                         ("truncated", report.truncated),
                         ("missing", report.missing),
                         ("quarantined", report.quarantined)):
        if paths:
            print(f"{label:<15} " + "  ".join(paths))
    print(f"integrity       {'OK' if report.ok else 'VIOLATED'}")
    return 0 if report.ok else 1


def _cmd_store(args: argparse.Namespace) -> int:
    return {
        "build": _cmd_store_build,
        "inspect": _cmd_store_inspect,
        "verify": _cmd_store_verify,
        "repair": _cmd_store_verify,
    }[args.store_command](args)


def _cmd_minibatch(args: argparse.Namespace) -> int:
    """Train a small GNN through the staged mini-batch dataloader."""
    import json
    import math

    import numpy as np

    from .gnn.caching import LRUCache, StaticDegreeCache
    from .gnn.dataloader import MiniBatchLoader
    from .gnn.models import NodeClassifier
    from .gnn.train import train_sampled
    from .graph.generators import planted_partition
    from .obs import MetricsRegistry, json_safe

    communities = 3
    size = max(4, args.n // communities)
    graph, labels = planted_partition(
        communities, size, p_in=0.15, p_out=0.01, seed=args.seed + 1
    )
    n = graph.num_vertices
    rng = np.random.default_rng(args.seed)
    features = np.eye(communities)[labels] + rng.normal(
        0, 1.5, size=(n, communities)
    )
    train_mask = np.zeros(n, dtype=bool)
    train_mask[rng.permutation(n)[: n // 2]] = True
    val_mask = ~train_mask
    obs = MetricsRegistry()
    cache = None
    if args.cache == "lru":
        cache = LRUCache(args.capacity, obs=obs)
    elif args.cache == "static":
        cache = StaticDegreeCache(graph, args.capacity, obs=obs)
    fanouts = (args.fanout, args.fanout)
    loader = MiniBatchLoader(
        graph,
        items=np.nonzero(train_mask)[0],
        batch_size=args.batch_size,
        fanouts=fanouts,
        features=features,
        seed=args.seed,
        cache=cache,
        prefetch=args.prefetch,
        obs=obs,
    )
    model = NodeClassifier(
        communities, 16, communities, layer="sage", seed=args.seed
    )
    report = train_sampled(
        model, graph, features=features, labels=labels, train_mask=train_mask,
        val_mask=val_mask, epochs=args.epochs, batch_size=args.batch_size,
        fanouts=fanouts, seed=args.seed, obs=obs, loader=loader,
    )
    schedule = loader.schedule_report()
    cache_report = loader.cache_report()
    # The smoke contract CI leans on: exhaustive epoch coverage and a
    # finite loss trace.
    ok = (
        report.steps == args.epochs * len(loader)
        and all(math.isfinite(loss) for loss in report.losses)
    )
    if args.json:
        payload = {
            "n": n,
            "epochs": args.epochs,
            "batch_size": args.batch_size,
            "fanout": args.fanout,
            "prefetch": args.prefetch,
            "cache": args.cache,
            "capacity": args.capacity,
            "steps": report.steps,
            "batches_per_epoch": len(loader),
            "losses": report.losses,
            "train_accuracy": report.train_accuracy,
            "val_accuracy": report.val_accuracy,
            "gathered_features": report.gathered_features,
            "schedule": schedule,
            "cache_report": cache_report,
            "metrics": json_safe(obs.as_dict()),
            "ok": ok,
        }
        print(json.dumps(json_safe(payload), indent=2, sort_keys=True))
        return 0 if ok else 1
    print(f"minibatch  n={n}  epochs={args.epochs}  "
          f"batch_size={args.batch_size}  fanout={args.fanout}  "
          f"prefetch={args.prefetch}  cache={args.cache}")
    print(f"steps {report.steps} ({len(loader)}/epoch)  "
          f"loss {report.losses[0]:.4f} -> {report.losses[-1]:.4f}  "
          f"val_acc {report.final_val_accuracy:.3f}  "
          f"gathered {report.gathered_features}")
    util = schedule["utilization"]
    print(f"pipeline   overlap speedup {schedule['overlap_speedup']:.2f}x  "
          f"utilization sample={util['sample']:.2f} "
          f"gather={util['gather']:.2f} compute={util['compute']:.2f}")
    print(f"cache      hit rate {cache_report['hit_rate']:.3f} "
          f"({cache_report['hits']} hits / {cache_report['misses']} misses)")
    print(f"coverage   {'OK' if ok else 'VIOLATED'} "
          f"(every train node once per epoch, finite losses)")
    return 0 if ok else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    from .graph import generators
    from .graph.io import save_edge_list

    kind = args.kind
    if kind == "er":
        graph = generators.erdos_renyi(args.n, args.p, seed=args.seed)
    elif kind == "ba":
        graph = generators.barabasi_albert(args.n, args.m, seed=args.seed)
    elif kind == "rmat":
        graph = generators.rmat(args.scale, args.m, seed=args.seed)
    elif kind == "ws":
        graph = generators.watts_strogatz(args.n, args.m, args.p, seed=args.seed)
    elif kind == "grid":
        graph = generators.grid_graph(args.n, args.n)
    else:
        print(f"unknown kind {kind!r}", file=sys.stderr)
        return 2
    save_edge_list(graph, args.path)
    print(f"wrote {graph} to {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable graph analytics and ML systems (paper reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print the paper's Tables 1 and 2")

    analyze = sub.add_parser(
        "analyze", help="profile an edge-list graph or an on-disk store"
    )
    analyze.add_argument("path",
                         help="edge-list file, or a store directory (resident "
                              "degrees, paged analytics, paging ledger)")
    analyze.add_argument("--shard-cache", type=int, default=None,
                         metavar="BYTES",
                         help="shard-cache budget for a store (default: "
                              "unbounded)")
    analyze.add_argument("--directed", action="store_true")
    analyze.add_argument("--json", action="store_true",
                         help="emit the profile as JSON")
    analyze.add_argument("--workers", type=int, default=None,
                         help="worker count for the parallel executor "
                              "(default: $REPRO_WORKERS, then all CPUs)")
    analyze.add_argument("--backend",
                         choices=["serial", "thread", "process", "auto"],
                         default=None,
                         help="executor backend (default: $REPRO_BACKEND, "
                              "then auto)")

    chaos = sub.add_parser(
        "chaos",
        help="run every engine under a fault plan and verify recovery",
    )
    chaos.add_argument("--scenario",
                       choices=["all", "executor", "network", "tlav",
                                "tlag", "gnn", "lambda", "serve-soak",
                                "mutate-soak"],
                       default="all")
    chaos.add_argument("--seed", type=int, default=None,
                       help="fault seed (default: $REPRO_FAULT_SEED, then 0)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the chaos report as JSON")
    chaos.add_argument("--workers", type=int, default=None,
                       help="executor workers (default: $REPRO_WORKERS)")
    chaos.add_argument("--backend",
                       choices=["serial", "thread", "process", "auto"],
                       default=None,
                       help="executor backend (default: $REPRO_BACKEND)")

    check = sub.add_parser(
        "check",
        help="run the differential correctness harness (oracle pairs "
             "+ invariants); the CI gate",
    )
    check.add_argument("--suite", choices=["quick", "full", "corpus"],
                       default="quick",
                       help="quick = CI gate subset, full = every "
                            "registered check, corpus = replay pinned "
                            "minimal reproducers")
    check.add_argument("--seed", type=int, default=0,
                       help="workload seed (each check draws its own "
                            "stream keyed on name+seed+case)")
    check.add_argument("--cases", type=int, default=1,
                       help="random workloads per check")
    check.add_argument("--shrink", action="store_true",
                       help="greedily minimize failing cases to "
                            "committable reproducers")
    check.add_argument("--json", action="store_true",
                       help="emit the report (plus check.* metrics) as JSON")
    check.add_argument("--list", action="store_true",
                       help="list registered checks and exit")
    check.add_argument("--only", action="append", metavar="NAME",
                       help="run only the named check (repeatable)")
    check.add_argument("--subsystem", action="append", metavar="S",
                       help="restrict to one subsystem (repeatable)")
    check.add_argument("--corpus-dir", default=None,
                       help="corpus directory for --suite corpus "
                            "(default: tests/check/corpus)")

    serve = sub.add_parser(
        "serve",
        help="run a multi-tenant serving scenario (admission control, "
             "micro-batching, versioned result cache, SLO report)",
    )
    serve.add_argument("--scenario", choices=["smoke", "mixed", "burst", "temporal"],
                       default="smoke",
                       help="smoke = every engine family at moderate load; "
                            "mixed = two graphs, open+closed loops, an "
                            "epoch bump mid-stream; burst = overload "
                            "against a small queue bound (shedding)")
    serve.add_argument("--seed", type=int, default=0,
                       help="workload seed (identical seeds give "
                            "identical reports)")
    serve.add_argument("--json", action="store_true",
                       help="emit the full report (plus serve.* metrics) "
                            "as JSON")
    serve.add_argument("--workers", type=int, default=None,
                       help="simulated service workers "
                            "(default: per-scenario)")
    serve.add_argument("--queue-bound", type=int, default=None,
                       help="admission queue bound; arrivals beyond it "
                            "are shed (default: per-scenario)")
    serve.add_argument("--batch-window", type=int, default=None,
                       help="micro-batch window in simulated ops; 0 "
                            "disables batching (default: per-scenario)")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="max requests coalesced into one engine call")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the versioned result cache")

    obs_demo = sub.add_parser(
        "obs-demo",
        help="run a small workload and print the metrics/span snapshot",
    )
    obs_demo.add_argument("--workers", type=int, default=4)

    match_cmd = sub.add_parser("match", help="count a pattern in a graph")
    match_cmd.add_argument("path")
    match_cmd.add_argument("pattern", choices=sorted(NAMED_PATTERNS))
    match_cmd.add_argument("--order", choices=["planned", "worst"],
                           default="planned")

    store = sub.add_parser(
        "store",
        help="build and inspect on-disk partitioned graph stores",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    build = store_sub.add_parser(
        "build", help="materialize an edge list as a versioned store"
    )
    build.add_argument("path", help="edge-list file to ingest")
    build.add_argument("dest", help="store directory to create")
    build.add_argument("--partition", choices=["hash", "range", "metis"],
                       default="range")
    build.add_argument("--num-parts", type=int, default=1)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--directed", action="store_true")
    build.add_argument("--chunk-edges", type=int, default=200_000,
                       help="edges buffered per ingest chunk when an "
                            "unlabelled file streams (hash, range)")
    build.add_argument("--name", default=None,
                       help="manifest name (default: dest basename)")
    build.add_argument("--overwrite", action="store_true",
                       help="replace an existing store at dest")
    inspect = store_sub.add_parser(
        "inspect", help="print a store's manifest and partition table"
    )
    inspect.add_argument("dir", help="store directory")
    inspect.add_argument("--json", action="store_true",
                         help="emit the manifest as JSON")
    inspect.add_argument("--verify", action="store_true",
                         help="re-check every file's size and CRC-32")
    for verb, helptext in (
        ("verify", "sweep every shard's size and CRC-32; report failures"),
        ("repair", "quarantine corrupt/truncated shards under _quarantine/"),
    ):
        cmd = store_sub.add_parser(verb, help=helptext)
        cmd.add_argument("dir", help="store directory")
        cmd.add_argument("--json", action="store_true",
                         help="emit the integrity report as JSON")

    minibatch = sub.add_parser(
        "minibatch",
        help="train a small GNN through the staged mini-batch dataloader "
             "(prefetch overlap, feature cache, schedule analysis)",
    )
    minibatch.add_argument("--n", type=int, default=90,
                           help="planted-partition vertices (3 communities)")
    minibatch.add_argument("--epochs", type=int, default=3)
    minibatch.add_argument("--batch-size", type=int, default=16)
    minibatch.add_argument("--fanout", type=int, default=5,
                           help="per-layer neighbor fanout (two layers)")
    minibatch.add_argument("--prefetch", type=int, default=0,
                           help="prefetch queue depth; 0 = synchronous")
    minibatch.add_argument("--cache", choices=["none", "lru", "static"],
                           default="lru",
                           help="feature cache in front of the gather stage")
    minibatch.add_argument("--capacity", type=int, default=32,
                           help="feature-cache capacity (vertices)")
    minibatch.add_argument("--seed", type=int, default=0)
    minibatch.add_argument("--json", action="store_true",
                           help="emit the run report as JSON")

    gen = sub.add_parser("generate", help="write a synthetic graph")
    gen.add_argument("kind", choices=["er", "ba", "rmat", "ws", "grid"])
    gen.add_argument("path")
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--m", type=int, default=4)
    gen.add_argument("--p", type=float, default=0.01)
    gen.add_argument("--scale", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    return parser


#: Commands that read a user's edge list or store.
_INPUT_COMMANDS = ("analyze", "match", "store")


def main(argv=None) -> int:
    """Run one command.  For the commands that read user input, input a
    reader rejects (a missing file, a bad edge line, a malformed store)
    ends it with ``repro <cmd>: <message>`` on stderr and exit code 1."""
    args = build_parser().parse_args(argv)
    handler = {
        "tables": _cmd_tables,
        "analyze": _cmd_analyze,
        "chaos": _cmd_chaos,
        "check": _cmd_check,
        "serve": _cmd_serve,
        "store": _cmd_store,
        "match": _cmd_match,
        "minibatch": _cmd_minibatch,
        "generate": _cmd_generate,
        "obs-demo": _cmd_obs_demo,
    }[args.command]
    if args.command not in _INPUT_COMMANDS:
        return handler(args)
    try:
        return handler(args)
    except (OSError, EdgeListError, StoreError) as exc:
        command = " ".join(filter(None, (args.command,
                                         getattr(args, "store_command", None))))
        print(f"repro {command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
