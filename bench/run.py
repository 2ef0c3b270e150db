#!/usr/bin/env python3
"""One end-to-end + per-layer benchmark for the ``repro`` package.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --all [--seeds 0,1] [--record bench/results/BENCH_<pr>.json]
    python3 bench/run.py --smoke

A single-workload run prints every metric by name with its unit and, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, the ``per_layer`` metrics with ``--trace 1`` (which also
writes a Chrome-trace JSON).  See ``bench/README.md``.
"""

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# String hashes are salted per process; dict/set-heavy code (the serve cache
# index) then iterates and collides differently from run to run.  Pin the
# salt so a seed fixes the run.  Must be set before the interpreter starts.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

# One driver process, one BLAS/OpenMP thread: pinned before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench: no program to measure: {SRC}/repro is missing")
sys.path[:0] = [BENCH_DIR, SRC]

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import atexit  # noqa: E402
import signal  # noqa: E402

import harness  # noqa: E402

# Exit hooks run last-registered-first: registered here, before anything of
# the program is imported, this one runs after the program's own
# (shutdown_pools, the shm sweep) and leaves no process behind.  SIGTERM and
# SIGHUP become a normal exit so the hooks run then too.
atexit.register(harness.stop_children)
for _sig in (signal.SIGTERM, signal.SIGHUP):
    signal.signal(_sig, lambda signum, frame: sys.exit(128 + signum))

from workloads import NAMES  # noqa: E402

SETUP_REPEATS = 3
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_workload(args, contract):
    trace = bool(args.trace)
    tier = "per_layer" if trace else "end_to_end"
    catalogue = {m["name"]: m["unit"] for m in contract[tier]}
    workdir = os.path.abspath(
        os.path.join(args.out, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    )
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    module = importlib.import_module(f"workloads.{args.workload}")
    sizes = module.SIZES[args.sizes]
    run = harness.Run(
        args.workload, args.seed, args.seconds, trace, sizes, workdir,
        catalogue, flip_gate=args.flip_gate,
    )
    import_s = time.perf_counter() - _PROCESS_START
    error = None
    try:
        # Set-up runs several times; the median is reported, the last is used.
        setup_times = []
        state = None
        for _ in range(1 if args.sizes == "smoke" else SETUP_REPEATS):
            if state is not None:
                module.teardown(run, state)
            t0 = time.perf_counter()
            state = module.setup(run)
            setup_times.append(time.perf_counter() - t0)
        try:
            module.run(run, state)
        finally:
            module.teardown(run, state)
        run.hygiene()
        if trace:
            run.metric("parallel.shm_leaked", len(run.info["shm_leaked"]), exact=True)
            # Spans must account for the timed wall: the benchmark's own glue
            # inside timed passes (root-span self time) stays under 5 %.
            glue = run.tracer.layer_self_seconds().get("bench", 0.0)
            run.check("bench.spans_cover_timed_wall",
                      glue <= 0.05 * run.tracer.root_seconds())
    except Exception as exc:  # a crash in the program is a failed operation
        import traceback

        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
        run.attempted += 1
        run.failed += 1
        run.failures.append(error)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if error is None and not trace:
        run.metric("setup_s", import_s + statistics.median(setup_times))
        run.metric("peak_rss_mb", harness.peak_rss_mb())
    measured = sorted(run.metrics)
    if error is None and trace:
        for name in catalogue:  # a layer this workload never calls reads 0
            run.metrics.setdefault(name, 0.0)
    missing = sorted(set(catalogue) - set(run.metrics))
    if error is None and missing:
        error = f"metrics not reported: {missing}"
    run.info["aliases"] = module.ALIASES
    record = run.record(harness.environment(args.seed, args.seconds, sizes))
    suffix = "trace" if trace else "e2e"
    stem = os.path.join(args.out, f"{args.workload}_{args.seed}_{suffix}")
    harness.write_json(stem + ".json", record)
    if trace:
        harness.write_json(stem + ".chrome.json", run.tracer.chrome_trace())

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={int(trace)}")
    for name in measured:
        alias = module.ALIASES.get(name)
        label = f"{name} (= {alias})" if alias else name
        print(f"{label:48s} {run.metrics[name]:.6g} {catalogue[name]}")
    print(f"{'failed_frac':48s} {record['failed_frac']:.6g} ratio "
          f"({run.failed}/{run.attempted}) {run.failures or ''}")
    if error is not None:
        sys.exit(f"bench: {error}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": catalogue[name]}
            for name, value in run.metrics.items()
        },
    }))


def _child(args, workload, seed, trace, sizes, seconds):
    """Run one workload in a fresh process; return (last-line JSON, record)."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--sizes", sizes, "--out", args.out,
    ]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench: {' '.join(cmd)} failed:\n{done.stdout}\n{done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    suffix = "trace" if trace else "e2e"
    with open(os.path.join(args.out, f"{workload}_{seed}_{suffix}.json")) as handle:
        return last, json.load(handle)


def validate(last, contract, trace):
    """Schema check of one result line against ``BENCHMARK.json``."""
    declared = {
        m["name"]: m["unit"]
        for m in contract["per_layer" if trace else "end_to_end"]
    }
    problems = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(last)}")
    elif set(last["metrics"]) != set(declared):
        problems.append(f"metric names differ: {set(last['metrics']) ^ set(declared)}")
    else:
        if not (isinstance(last["attempted"], int) and last["attempted"] >= 1
                and isinstance(last["failed"], int)):
            problems.append("attempted/failed are not whole numbers")
        for name, entry in last["metrics"].items():
            if not NAME_RE.match(name) or entry["unit"] != declared[name]:
                problems.append(f"bad name or unit: {name}")
            elif not isinstance(entry["value"], (int, float)):
                problems.append(f"{name} is not a number")
            elif not trace and entry["value"] == 0:
                problems.append(f"end-to-end metric {name} is 0")
    if problems:
        sys.exit(f"bench: result does not match BENCHMARK.json: {problems}")


def run_all(args, contract):
    sizes = "smoke" if args.smoke else "full"
    seconds = 2 if args.smoke else contract["run_seconds"]
    seeds = [0] if args.smoke else [int(s) for s in args.seeds.split(",")]
    runs = []
    started = time.perf_counter()
    for seed in seeds:
        for workload in NAMES:
            for trace in (0, 1):
                last, record = _child(args, workload, seed, trace, sizes, seconds)
                validate(last, contract, trace)
                runs.append(record)
                print(f"{workload} seed={seed} trace={trace}: "
                      f"failed {last['failed']}/{last['attempted']}", flush=True)
    failed = sum(r["failed"] for r in runs)
    if args.record:
        harness.write_json(args.record, {"schema": 1, "runs": runs})
        print(f"wrote {args.record}")
    print(f"{'smoke' if args.smoke else 'all'}: {len(runs)} runs, {failed} failed "
          f"operations, {time.perf_counter() - started:.1f} s")
    sys.exit(1 if failed else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=".bench_out",
                        help="directory for run records, traces and temp stores")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced, per seed")
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--record", help="with --all: write the combined run file")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny sizes + schema validation")
    parser.add_argument("--flip-gate", metavar="GATE",
                        help="invert one correctness gate (shows it can fail)")
    args = parser.parse_args()
    contract = load_contract()
    if args.all or args.smoke:
        run_all(args, contract)
    if args.workload is None:
        parser.error("give --workload, --all or --smoke")
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    run_workload(args, contract)


if __name__ == "__main__":
    main()
