"""DESIGN.md's experiment index must match the benchmark suite."""

import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _design_text() -> str:
    with open(os.path.join(ROOT, "DESIGN.md")) as handle:
        return handle.read()


class TestExperimentIndex:
    def test_every_indexed_bench_exists(self):
        text = _design_text()
        bench_refs = set(re.findall(r"`benchmarks/(bench_\w+\.py)`", text))
        assert bench_refs, "experiment index lists no benches?"
        for ref in bench_refs:
            assert os.path.exists(os.path.join(ROOT, "benchmarks", ref)), ref

    def test_every_bench_file_indexed(self):
        text = _design_text()
        on_disk = {
            f
            for f in os.listdir(os.path.join(ROOT, "benchmarks"))
            if f.startswith("bench_") and f.endswith(".py")
        }
        indexed = set(re.findall(r"`benchmarks/(bench_\w+\.py)`", text))
        assert on_disk == indexed

    def test_every_experiment_in_experiments_md(self):
        """Each experiment id of DESIGN.md appears in EXPERIMENTS.md."""
        design = _design_text()
        ids = set(re.findall(r"^\| (T\d|F\d|C\d+|X\d) \|", design, re.M))
        with open(os.path.join(ROOT, "EXPERIMENTS.md")) as handle:
            experiments = handle.read()
        recorded = set(re.findall(r"^\| (T\d|F\d|C\d+|X\d) \|", experiments, re.M))
        assert ids == recorded

    def test_inventory_modules_importable(self):
        """Every `repro.x.y` module named in DESIGN.md imports."""
        import importlib

        design = _design_text()
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", design))
        for name in sorted(modules):
            importlib.import_module(name)


class TestOneSimulatedWorkerLoop:
    """`repro.sim` is the only event loop over simulated workers."""

    #: Modules that may import heapq: the core, the serving scheduler's
    #: arrival queue, and algorithmic priority queues (Dijkstra, k-core
    #: peeling, densest-subgraph peeling, incremental BFS repair).
    HEAPQ_ALLOWED = {
        "sim.py",
        "serve/scheduler.py",
        "graph/weighted.py",
        "graph/properties.py",
        "matching/densest.py",
        "tlav/incremental.py",
    }

    def test_heapq_only_where_listed(self):
        src = os.path.join(ROOT, "src", "repro")
        importers = set()
        for folder, _, files in os.walk(src):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                with open(path) as handle:
                    if re.search(r"^\s*(import heapq|from heapq )", handle.read(), re.M):
                        importers.add(os.path.relpath(path, src).replace(os.sep, "/"))
        assert importers <= self.HEAPQ_ALLOWED, (
            f"{sorted(importers - self.HEAPQ_ALLOWED)} schedule with their own "
            "heap; simulated workers go through repro.sim"
        )


class TestOneBSPLoop:
    """`tlav.engine` holds the only superstep loop: placement overrides
    its seams, and checkpointing goes through `state()`/`restore()`."""

    def test_distributed_overrides_only_the_seams(self):
        from repro.tlav.distributed import DistributedPregel
        from repro.tlav.engine import PregelEngine

        assert issubclass(DistributedPregel, PregelEngine)
        own = {name for name in vars(DistributedPregel) if not name.startswith("__")}
        assert own == {"_box", "_deliver"}

    def test_checkpointer_touches_no_engine_private(self):
        path = os.path.join(ROOT, "src", "repro", "tlav", "fault_tolerance.py")
        with open(path) as handle:
            assert not re.search(r"engine\._\w", handle.read())
