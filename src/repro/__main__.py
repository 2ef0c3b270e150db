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


def _emit(payload, lines=(), as_json: bool = True) -> None:
    """Every command's one output path: ``payload`` as one sorted,
    indented JSON object when ``as_json``, else the text ``lines``."""
    if as_json:
        import json

        from .obs import json_safe

        print(json.dumps(json_safe(payload), indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_tables(_args: argparse.Namespace) -> int:
    print(render_table1())
    print()
    print(render_table2())
    return 0


def _degree_summary(degs) -> dict:
    import numpy as np

    if not degs.size:
        return {"min": 0, "median": 0, "mean": 0.0, "max": 0}
    return {"min": int(degs.min()), "median": int(np.median(degs)),
            "mean": float(degs.mean()), "max": int(degs.max())}


def _store_profile(args: argparse.Namespace) -> dict:
    """Storage-aware profile: resident O(|V|) arrays, paged analytics."""
    import numpy as np

    from .graph.store import open_store
    from .obs import MetricsRegistry
    from .tlav.vectorized import bfs_dense, pagerank_dense, wcc_dense

    with open_store(
        args.path, cache_budget=args.shard_cache, obs=MetricsRegistry()
    ) as stored:
        manifest = stored.manifest
        profile = {
            "store": stored.root,
            **{k: getattr(manifest, k)
               for k in ("name", "version", "partitioner", "num_parts")},
            **{k: getattr(stored, k)
               for k in ("num_vertices", "num_edges", "num_edge_slots",
                         "directed", "feature_dim")},
            "degree": _degree_summary(stored.degrees()),  # resident; no paging
        }
        # Paged analytics: every pass streams CSR shards through the cache.
        ranks = pagerank_dense(stored, iterations=10)
        profile["pagerank"] = {
            "iterations": 10,
            "top_vertex": int(np.argmax(ranks)),
            "top_score": float(ranks.max()),
        }
        if not stored.directed:
            profile["components"] = int(np.unique(wcc_dense(stored)).size)
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
    return profile


def _edge_list_profile(args: argparse.Namespace) -> dict:
    from .core.graphlets import graphlet_census
    from .graph.io import load_edge_list
    from .graph.properties import (
        clustering_coefficients, core_numbers, num_connected_components,
    )
    from .matching.densest import densest_subgraph
    from .matching.triangles import triangle_count
    from .matching.truss import max_truss
    from .parallel import ParallelExecutor

    graph = load_edge_list(args.path, directed=args.directed)
    executor = ParallelExecutor(backend=args.backend, workers=args.workers)
    profile = {
        "graph": str(graph),
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "directed": graph.directed,
        "degree": _degree_summary(graph.degrees()),
        "parallel": {"backend": executor.backend, "workers": executor.workers},
    }
    if not graph.directed:
        vertices, dens = densest_subgraph(graph)
        clustering = clustering_coefficients(graph)
        profile.update(
            components=num_connected_components(graph),
            triangles=triangle_count(graph, executor=executor),
            avg_clustering=float(clustering.mean()) if clustering.size else 0.0,
            max_core=int(core_numbers(graph).max(initial=0)),
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
    # Wall vs CPU seconds inside the chunks: under the process backend,
    # busy/cpu well above 1 means the workers time-shared a CPU.
    for name in ("busy_seconds", "cpu_seconds"):
        profile["parallel"][name] = executor.obs.counter(f"parallel.{name}").total
    if executor.backend == "auto":
        # What the calibrated model learned while profiling this graph.
        profile["parallel"]["cost_model"] = executor.cost_model.snapshot()
    return profile


def _analyze_lines(p: dict):
    """``analyze``'s text: a store profile or an edge-list profile."""
    if "store" in p:
        yield (f"store           {p['store']}  (v{p['version']}, "
               f"{p['partitioner']} x{p['num_parts']})")
        yield (f"graph           n={p['num_vertices']} "
               f"m={p['num_edges']} slots={p['num_edge_slots']}"
               f"{'  directed' if p['directed'] else ''}")
    else:
        yield f"graph           {p['graph']}"
    d = p["degree"]
    yield (f"degree          min {d['min']}  median {d['median']} "
           f" mean {d['mean']:.2f}  max {d['max']}")
    if "pagerank" in p:
        pr = p["pagerank"]
        yield (f"pagerank        top vertex {pr['top_vertex']} "
               f"({pr['top_score']:.6f}) after {pr['iterations']} iterations")
    if "components" in p:
        yield f"components      {p['components']}"
    if "bfs_from_0" in p:
        bfs = p["bfs_from_0"]
        yield (f"bfs from 0      reached {bfs['reached']} vertices, "
               f"eccentricity {bfs['eccentricity']}")
    if "triangles" in p:
        yield f"triangles       {p['triangles']}"
        yield f"avg clustering  {p['avg_clustering']:.4f}"
        yield f"max core        {p['max_core']}"
        yield f"max truss       {p['max_truss']}"
        ds = p["densest_subgraph"]
        yield f"densest subgraph  {ds['vertices']} vertices, density {ds['density']:.3f}"
        if "graphlets" in p:
            yield ("graphlets       "
                   + "  ".join(f"{k}={v}" for k, v in p["graphlets"].items()))
        par = p["parallel"]
        yield (f"parallel        backend={par['backend']}  workers={par['workers']}"
               f"  efficiency={par['efficiency']:.3f}")
    if "paging" in p:
        pg = p["paging"]
        budget = "unbounded" if pg["cache_budget"] is None else pg["cache_budget"]
        yield (f"paging          shard_bytes={pg['shard_bytes']} budget={budget} "
               f"hits={pg['hits']} misses={pg['misses']} "
               f"evictions={pg['evictions']} bytes_paged={pg['bytes_paged']}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Profile an edge list, or a store directory through its pages."""
    profile = (
        _store_profile if is_store_dir(args.path) else _edge_list_profile
    )(args)
    _emit(profile, _analyze_lines(profile), args.json)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run every engine under a deterministic fault plan and check that
    recovery reproduces the failure-free run bit-for-bit."""
    import numpy as np

    from .cluster.comm import Network
    from .graph.generators import barabasi_albert
    from .obs import MetricsRegistry, Tracer
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
        executor = ParallelExecutor(
            backend=args.backend, workers=args.workers, obs=obs,
            injector=injector, tracer=tracer,
        )
        recovered = triangle_count(graph, executor=executor)
        redispatched = obs.counter("resilience.redispatched_chunks").total
        return {"ok": recovered == reference,
                "faults": injector.faults_injected,
                "redispatched_chunks": int(redispatched)}

    def run_network():
        def pump(net):
            received = []
            for i in range(80):
                net.send(i % 4, (3 * i + 1) % 4, payload=i, tag="chaos")
            while net.has_pending():
                net.deliver()
                for w in range(4):
                    received.extend((w, m.seq, m.payload) for m in net.receive(w))
            return sorted(received)

        reference = pump(Network(4))
        plan = FaultPlan(seed=seed).lossy_network(drop=0.15, duplicate=0.1,
                                                  delay=0.1)
        lossy = Network(4, registry=obs, injector=plan.build(obs), retry=retry)
        recovered = pump(lossy)
        return {"ok": recovered == reference, **{
            k: getattr(lossy.stats, k)
            for k in ("dropped", "duplicates", "delayed", "retransmits",
                      "retransmitted_bytes")}}

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
        return {"ok": engine.run() == reference,
                "failures": engine.stats.failures,
                "supersteps_replayed": engine.stats.supersteps_replayed}

    def run_tlag():
        from .tlag.engine import TaskEngine
        from .tlag.programs import TriangleProgram

        reference = sorted(
            TaskEngine(graph, TriangleProgram(), num_workers=4).run())
        injector = FaultPlan(seed=seed).fail_task(25).build(obs)
        engine = TaskEngine(
            graph, TriangleProgram(), num_workers=4,
            injector=injector, checkpoint_every=10, obs=obs, tracer=tracer,
        )
        return {"ok": sorted(engine.run()) == reference,
                "restores": engine.snapshots.restores("tlag"),
                "checkpoints": engine.snapshots.checkpoints_taken("tlag")}

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
        recovered = train(FaultPlan(seed=seed).fail_epoch(5).build(obs))
        return {"ok": recovered.losses == reference.losses
                and recovered.val_accuracy == reference.val_accuracy,
                "final_loss": recovered.final_loss}

    def run_lambda():
        from .gnn.serverless import simulate_fleet

        def fleet(with_retry):
            injector = FaultPlan(seed=seed).fail_lambda(
                0.15, straggler=0.05).build(obs)
            return simulate_fleet(64, 1.0, 8, injector=injector,
                                  retry=retry if with_retry else None, obs=obs)

        cured, uncured = fleet(True), fleet(False)
        return {"ok": cured.makespan <= uncured.makespan,
                "failures": cured.failures,
                "stragglers": cured.stragglers,
                "retries": cured.retries,
                "makespan": round(cured.makespan, 3),
                "makespan_no_retry": round(uncured.makespan, 3)}

    def run_mutate_soak_scenario():
        from .serve.soak import run_mutate_soak

        report = run_mutate_soak(seed=seed, obs=obs)
        return {"ok": report["ok"], "batches": report["batches"],
                "final_epoch": report["final_epoch"],
                "pagerank_max_err": report["pagerank_max_err"],
                "cache_promoted": report["cache"]["promoted"],
                "report": report}

    def run_serve_soak_scenario():
        from .serve.soak import run_serve_soak

        report = run_serve_soak(seed=seed, workers=args.workers or 2,
                                backend=args.backend, obs=obs, tracer=tracer)
        serve_part = report["serve"]
        transitions = serve_part["breaker_transitions"]
        return {"ok": report["ok"],
                "degraded": serve_part["chaos"]["degraded"],
                "breaker_opens": transitions["open"],
                "breaker_probes": transitions["half_open"],
                "max_staleness": serve_part["max_staleness"],
                "resumed_chunks": report["store"]["chunks"],
                "report": report}

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
    chosen = list(scenarios) if args.scenario == "all" else [args.scenario]
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
        "recover_spans": [s.as_dict() for s in tracer.find("resilience.recover")],
    }
    lines = [f"fault seed {seed}"]
    for name, r in results.items():
        detail = "  ".join(
            f"{k}={v}" for k, v in r.items()
            if k != "ok" and not isinstance(v, dict)
        )
        lines.append(f"{name:<10} {'OK' if r['ok'] else 'FAILED':<7} {detail}")
    lines.append(f"recoveries traced: {len(report['recover_spans'])}")
    _emit(report, lines, args.json)
    return 0 if all(r["ok"] for r in results.values()) else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the differential harness; exit 1 on any violation."""
    from .check import load_all, run_corpus, run_suite
    from .obs import MetricsRegistry, Tracer

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
            suite=args.suite, seed=args.seed, cases=args.cases,
            shrink_failures=args.shrink, names=args.only or None,
            subsystems=args.subsystem or None, registry=registry, obs=obs,
            tracer=tracer,
        )

    _emit({**report.as_dict(), "metrics": obs.as_dict()},
          _check_lines(report), args.json)
    return 0 if report.ok else 1


def _check_lines(report):
    for result in report.results:
        status = "OK" if result.ok else "FAILED"
        yield (f"{status:<7} {result.check:<46} "
               f"[{result.relation}] case={result.case} "
               f"({result.seconds * 1000:.0f} ms)")
        if not result.ok:
            yield f"        params: {result.params}"
            for violation in result.violations:
                yield f"        {violation}"
            if result.error:
                yield f"        error: {result.error}"
            if result.shrunk is not None:
                yield (f"        shrunk reproducer ({result.shrink_evals} "
                       f"evals): {result.shrunk}")
    yield (f"suite={report.suite} seed={report.seed}: {report.cases} cases, "
           f"{report.failures} failures; {report.pairs_run} oracle pairs and "
           f"{report.invariants_run} invariants across "
           f"{', '.join(report.subsystems())}")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a named serving scenario and print its latency/SLO report."""
    from .obs import MetricsRegistry, Tracer
    from .serve import run_scenario

    obs = MetricsRegistry()
    tracer = Tracer()
    report = run_scenario(
        args.scenario, seed=args.seed, workers=args.workers,
        queue_bound=args.queue_bound, batch_window=args.batch_window,
        max_batch=args.max_batch, cache=not args.no_cache, obs=obs,
        tracer=tracer,
    )
    overall = report["overall"]
    lines = [f"scenario {report['scenario']}  seed {report['seed']}  "
             f"workers {report['workers']}  queue_bound {report['queue_bound']}  "
             f"batch_window {report['batch_window']}  "
             f"cache {'on' if report['cache'] else 'off'}",
             f"{'endpoint':<22} {'count':>5} {'ok':>4} {'p50':>7} {'p95':>7} "
             f"{'p99':>7} {'miss':>5} {'hits':>5} {'batch':>6}"]
    for name, row in report["endpoints"].items():
        lines.append(
            f"{name:<22} {row['count']:>5} {row['ok']:>4} {row['p50']:>7} "
            f"{row['p95']:>7} {row['p99']:>7} {row['deadline_misses']:>5} "
            f"{row['cache_hits']:>5} {row['mean_batch_size']:>6}")
    lines += [
        f"overall         admitted={overall['admitted']} "
        f"completed={overall['completed']} shed={overall['shed']} "
        f"expired={overall['expired']} degraded={overall['degraded']} "
        f"deadline_misses={overall['deadline_misses']}",
        f"throughput      {overall['qps_per_kops']} req/kop over "
        f"{overall['makespan_ops']} ops; cache hit rate "
        f"{overall['cache_hit_rate']}; peak queue "
        f"{overall['peak_queue_depth']}",
        "tenants         "
        + "  ".join(f"{t}={w}" for t, w in report["tenants"].items()),
        f"ledger          {'OK' if overall['ledger_ok'] else 'VIOLATED'} "
        f"(admitted == completed + shed + expired + degraded, in_flight 0)",
    ]
    _emit({**report, "metrics": obs.as_dict(),
           "request_spans": len(tracer.find("serve.request"))},
          lines, args.json)
    return 0 if overall["ledger_ok"] else 1


def _cmd_obs_demo(args: argparse.Namespace) -> int:
    """One shared registry observing three different engines."""
    from .core.pipeline import Pipeline, stages
    from .graph.generators import barabasi_albert
    from .graph.partition import hash_partition
    from .obs import MetricsRegistry, Tracer
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

    _emit({
        "workload": {
            "graph": str(graph),
            "workers": args.workers,
            "triangles": engine.result_count,
        },
        "metrics": obs.as_dict(),
        "spans": tracer.as_dict()["spans"],
    })
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    from .graph.io import load_edge_list
    from .matching.codegen import compiled_count
    from .matching.plan import GraphStats, Planner

    graph = load_edge_list(args.path)
    pattern = NAMED_PATTERNS[args.pattern]()
    planner = Planner(GraphStats.of(graph))
    plan = planner.plan(pattern) if args.order == "planned" else planner.worst_plan(pattern)
    start = time.perf_counter()  # compile and count
    count = compiled_count(graph, pattern, order=plan.order)
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
    payload = manifest.as_dict()
    if args.verify:
        report = verify_store(args.dir)
        if not report.ok:
            raise StoreError(
                f"{len(report.bad_paths)} file(s) failed verification: "
                + ", ".join(report.bad_paths)
            )
        payload["verified"] = True
    _emit(payload, _inspect_lines(args, manifest), args.json)
    return 0


def _inspect_lines(args: argparse.Namespace, manifest):
    yield f"store           {args.dir}"
    yield (f"name            {manifest.name}  (v{manifest.version}, "
           f"built by {manifest.built_by})")
    yield (f"graph           n={manifest.num_vertices} "
           f"m={manifest.num_edges} slots={manifest.num_edge_slots}"
           f"{'  directed' if manifest.directed else ''}")
    yield f"partitioner     {manifest.partitioner} x{manifest.num_parts}"
    labels = [
        label for label, present in (
            ("vertex", manifest.has_vertex_labels),
            ("edge", manifest.has_edge_labels),
        ) if present
    ]
    if labels:
        yield f"labels          {', '.join(labels)}"
    if manifest.feature_dim is not None:
        yield f"features        dim {manifest.feature_dim}"
    yield f"shard bytes     {manifest.shard_bytes}"
    yield f"{'part':>4} {'vertices':>9} {'slots':>9} {'bytes':>10}"
    for part in manifest.partitions:
        yield (f"{part.part_id:>4} {part.num_vertices:>9} "
               f"{part.num_edge_slots:>9} {part.shard_bytes:>10}")
    if args.verify:
        yield "verified        all shard sizes and CRC-32 checksums OK"


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from .graph.store import CorruptShardError, repair_store, verify_store

    if args.store_command == "repair":
        try:
            report = repair_store(args.dir)
        except CorruptShardError as exc:
            report = exc.report
    else:
        report = verify_store(args.dir)
    lines = [f"store           {args.dir}",
             f"checked         {report.checked} manifest-listed files"]
    for label, paths in (("corrupt", report.corrupt),
                         ("truncated", report.truncated),
                         ("missing", report.missing),
                         ("quarantined", report.quarantined)):
        if paths:
            lines.append(f"{label:<15} " + "  ".join(paths))
    lines.append(f"integrity       {'OK' if report.ok else 'VIOLATED'}")
    _emit(report.as_dict(), lines, args.json)
    return 0 if report.ok else 1


def _cmd_minibatch(args: argparse.Namespace) -> int:
    """Train a small GNN through the staged mini-batch dataloader."""
    import math

    import numpy as np

    from .gnn.caching import LRUCache, StaticDegreeCache
    from .gnn.dataloader import MiniBatchLoader
    from .gnn.models import NodeClassifier
    from .gnn.train import train_sampled
    from .graph.generators import planted_partition
    from .obs import MetricsRegistry

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
        cache = LRUCache(args.capacity)
    elif args.cache == "static":
        cache = StaticDegreeCache(graph, args.capacity)
    fanouts = (args.fanout, args.fanout)
    loader = MiniBatchLoader(
        graph, items=np.nonzero(train_mask)[0], batch_size=args.batch_size,
        fanouts=fanouts, features=features, seed=args.seed, cache=cache,
        prefetch=args.prefetch, obs=obs,
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
    options = {k: getattr(args, k) for k in (
        "epochs", "batch_size", "fanout", "prefetch", "cache", "capacity")}
    payload = {
        "n": n,
        **options,
        "steps": report.steps,
        "batches_per_epoch": len(loader),
        "losses": report.losses,
        "train_accuracy": report.train_accuracy,
        "val_accuracy": report.val_accuracy,
        "gathered_features": report.gathered_features,
        "schedule": schedule,
        "cache_report": cache_report,
        "metrics": obs.as_dict(),
        "ok": ok,
    }
    util = schedule["utilization"]
    _emit(payload, [
        f"minibatch  n={n}  " + "  ".join(
            f"{k}={v}" for k, v in options.items() if k != "capacity"),
        f"steps {report.steps} ({len(loader)}/epoch)  "
        f"loss {report.losses[0]:.4f} -> {report.losses[-1]:.4f}  "
        f"val_acc {report.final_val_accuracy:.3f}  "
        f"gathered {report.gathered_features}",
        f"pipeline   overlap speedup {schedule['overlap_speedup']:.2f}x  "
        f"utilization sample={util['sample']:.2f} "
        f"gather={util['gather']:.2f} compute={util['compute']:.2f}",
        f"cache      hit rate {cache_report['hit_rate']:.3f} "
        f"({cache_report['hits']} hits / {cache_report['misses']} misses)",
        f"coverage   {'OK' if ok else 'VIOLATED'} "
        f"(every train node once per epoch, finite losses)",
    ], args.json)
    return 0 if ok else 1


#: ``generate``'s kinds: each makes its graph from the generators
#: module and the parsed options.
_GENERATORS = {
    "er": lambda gen, a: gen.erdos_renyi(a.n, a.p, seed=a.seed),
    "ba": lambda gen, a: gen.barabasi_albert(a.n, a.m, seed=a.seed),
    "rmat": lambda gen, a: gen.rmat(a.scale, a.m, seed=a.seed),
    "ws": lambda gen, a: gen.watts_strogatz(a.n, a.m, a.p, seed=a.seed),
    "grid": lambda gen, a: gen.grid_graph(a.n, a.n),
}


def _cmd_generate(args: argparse.Namespace) -> int:
    from .graph import generators
    from .graph.io import save_edge_list

    graph = _GENERATORS[args.kind](generators, args)
    save_edge_list(graph, args.path)
    print(f"wrote {graph} to {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable graph analytics and ML systems (paper reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options several commands share, each defined once.
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="emit the report as one JSON object")
    executor = argparse.ArgumentParser(add_help=False)
    executor.add_argument("--workers", type=int,
                          help="workers' spans each parallel fan-out is cut "
                               "into; the pool always has one process per "
                               "usable CPU (default: $REPRO_WORKERS, then "
                               "the usable CPUs)")
    executor.add_argument("--backend", choices=["serial", "process", "auto"],
                          help="executor backend (default: $REPRO_BACKEND, "
                               "then auto)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0,
                      help="workload seed (identical seeds give identical "
                           "output)")

    def command(name, func, *parents, group=sub, reads_input=False, **kwargs):
        """Add a subcommand that runs ``func``; a command that
        ``reads_input`` reports bad input in one line and exits 1."""
        cmd = group.add_parser(name, parents=list(parents), **kwargs)
        cmd.set_defaults(func=func, reads_input=reads_input)
        return cmd

    command("tables", _cmd_tables, help="print the paper's Tables 1 and 2")

    analyze = command(
        "analyze", _cmd_analyze, as_json, executor, reads_input=True,
        help="profile an edge-list graph or an on-disk store",
    )
    analyze.add_argument("path",
                         help="edge-list file, or a store directory (resident "
                              "degrees, paged analytics, paging ledger)")
    analyze.add_argument("--shard-cache", type=int, metavar="BYTES",
                         help="shard-cache budget for a store (default: "
                              "unbounded)")
    analyze.add_argument("--directed", action="store_true")

    chaos = command(
        "chaos", _cmd_chaos, as_json, executor,
        help="run every engine under a fault plan and verify recovery",
    )
    chaos.add_argument("--scenario",
                       choices=["all", "executor", "network", "tlav",
                                "tlag", "gnn", "lambda", "serve-soak",
                                "mutate-soak"],
                       default="all")
    chaos.add_argument("--seed", type=int,
                       help="fault seed (default: $REPRO_FAULT_SEED, then 0)")

    check = command(
        "check", _cmd_check, as_json, seed,
        help="run the differential correctness harness (oracle pairs "
             "+ invariants); the CI gate",
    )
    check.add_argument("--suite", choices=["quick", "full", "corpus"],
                       default="quick",
                       help="quick = CI gate subset, full = every "
                            "registered check, corpus = replay pinned "
                            "minimal reproducers")
    check.add_argument("--cases", type=int, default=1,
                       help="random workloads per check")
    check.add_argument("--shrink", action="store_true",
                       help="greedily minimize failing cases to "
                            "committable reproducers")
    check.add_argument("--list", action="store_true",
                       help="list registered checks and exit")
    check.add_argument("--only", action="append", metavar="NAME",
                       help="run only the named check (repeatable)")
    check.add_argument("--subsystem", action="append", metavar="S",
                       help="restrict to one subsystem (repeatable)")
    check.add_argument("--corpus-dir",
                       help="corpus directory for --suite corpus "
                            "(default: tests/check/corpus)")

    serve = command(
        "serve", _cmd_serve, as_json, seed,
        help="run a multi-tenant serving scenario (admission control, "
             "micro-batching, versioned result cache, SLO report)",
    )
    serve.add_argument("--scenario", choices=["smoke", "mixed", "burst", "temporal"],
                       default="smoke",
                       help="smoke = every engine family at moderate load; "
                            "mixed = two graphs, open+closed loops, an "
                            "epoch bump mid-stream; burst = overload "
                            "against a small queue bound (shedding)")
    serve.add_argument("--workers", type=int,
                       help="simulated service workers (default: per-scenario)")
    serve.add_argument("--queue-bound", type=int,
                       help="admission queue bound; arrivals beyond it "
                            "are shed (default: per-scenario)")
    serve.add_argument("--batch-window", type=int,
                       help="micro-batch window in simulated ops; 0 "
                            "disables batching (default: per-scenario)")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="max requests coalesced into one engine call")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the versioned result cache")

    command(
        "obs-demo", _cmd_obs_demo,
        help="run a small workload and print the metrics/span snapshot",
    ).add_argument("--workers", type=int, default=4)

    match_cmd = command("match", _cmd_match, reads_input=True,
                        help="count a pattern in a graph")
    match_cmd.add_argument("path")
    match_cmd.add_argument("pattern", choices=sorted(NAMED_PATTERNS))
    match_cmd.add_argument("--order", choices=["planned", "worst"],
                           default="planned")

    store = sub.add_parser(
        "store", help="build and inspect on-disk partitioned graph stores")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    build = command(
        "build", _cmd_store_build, group=store_sub, reads_input=True,
        help="materialize an edge list as a versioned store",
    )
    build.add_argument("path", help="edge-list file to ingest")
    build.add_argument("dest", help="store directory to create")
    build.add_argument("--partition", choices=["hash", "range", "metis"],
                       default="range")
    build.add_argument("--num-parts", type=int, default=1)
    build.add_argument("--seed", type=int, default=0,
                       help="partitioner seed")
    build.add_argument("--directed", action="store_true")
    build.add_argument("--chunk-edges", type=int, default=200_000,
                       help="edges buffered per ingest chunk when an "
                            "unlabelled file streams (hash, range)")
    build.add_argument("--name",
                       help="manifest name (default: dest basename)")
    build.add_argument("--overwrite", action="store_true",
                       help="replace an existing store at dest")
    for verb, func, helptext in (
        ("inspect", _cmd_store_inspect,
         "print a store's manifest and partition table"),
        ("verify", _cmd_store_verify,
         "sweep every shard's size and CRC-32; report failures"),
        ("repair", _cmd_store_verify,
         "quarantine corrupt/truncated shards under _quarantine/"),
    ):
        cmd = command(verb, func, as_json, group=store_sub, reads_input=True,
                      help=helptext)
        cmd.add_argument("dir", help="store directory")
        if verb == "inspect":
            cmd.add_argument("--verify", action="store_true",
                             help="re-check every file's size and CRC-32")

    minibatch = command(
        "minibatch", _cmd_minibatch, as_json, seed,
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

    gen = command("generate", _cmd_generate, seed, help="write a synthetic graph")
    gen.add_argument("kind", choices=list(_GENERATORS))
    gen.add_argument("path")
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--m", type=int, default=4)
    gen.add_argument("--p", type=float, default=0.01)
    gen.add_argument("--scale", type=int, default=10)
    return parser


def main(argv=None) -> int:
    """Run one command.  For the commands that read user input, input a
    reader rejects (a missing file, a bad edge line, a malformed store)
    ends it with ``repro <cmd>: <message>`` on stderr and exit code 1."""
    args = build_parser().parse_args(argv)
    if not args.reads_input:
        return args.func(args)
    try:
        return args.func(args)
    except (OSError, EdgeListError, StoreError) as exc:
        command = " ".join(filter(None, (args.command,
                                         getattr(args, "store_command", None))))
        print(f"repro {command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
