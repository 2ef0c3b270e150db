"""Timing loops, bench-side spans, correctness gates and the run record.

Everything a workload needs to measure the program *from outside*:

* :meth:`Run.measure` / :meth:`Run.timed` — the closed measuring loop.  An
  untraced run (``--trace 0``) is time-boxed: the phases' passes are
  interleaved over the whole ``--seconds`` window, each phase getting
  its share of the wall time.  A traced run (``--trace 1``) runs a fixed
  number of passes per phase in a count-driven order, so the counters it
  reports as exact are bit-stable at a fixed seed.  Passes are grouped
  into repetitions of at least ``REP_SECONDS`` with a ``gc.collect()``
  before each; every pass is timed on its own and the reported timing is
  the lower decile over passes (see :func:`lower_decile`).
* :class:`Tracer` — spans (name, layer, start, end, parent, pass id) held
  in memory and written at exit as Chrome-trace JSON; a layer's self
  time is its spans' duration minus their children's.
* :meth:`Run.check` — a correctness gate; every gate and every pass is
  one attempted operation, every miss one failed operation.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

REP_SECONDS = 1.0  # a repetition (gc.collect + passes) lasts at least this
UNTRACED = "~untraced"  # sample-key suffix of tracer-off passes in a traced run
_TAIL_PERCENTILES = (0.99, 0.95, 0.9, 0.75)


def lower_decile(values: List[float]) -> float:
    """The 10th-percentile order statistic (the minimum below 11 samples).

    The reference box alternates every few seconds between two CPU speed
    states about 1.28x apart, so the median of a 20 s window lands on
    either mode (spread 8-16 % on a fixed pure-Python kernel) while the
    lower decile — the time of a pass that ran in the fast state — stays
    within 2-3 %.  Timing noise only ever adds, so this is the steady
    estimate of what the code costs; medians are kept in the run record.
    """
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 10]


def summarize(values: List[float]) -> Dict[str, Any]:
    """Lower decile, median, quartiles, count and the highest percentile
    that still has at least ten samples beyond it (``None`` below twenty)."""
    ordered = sorted(values)
    n = len(ordered)
    out: Dict[str, Any] = {"n": n, "p10": lower_decile(ordered),
                           "median": statistics.median(ordered)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    out["tail"] = None
    for p in _TAIL_PERCENTILES:
        if n * (1.0 - p) >= 10:
            out["tail"] = {"p": p, "value": ordered[int(p * n)]}
            break
    return out


@dataclass
class Phase:
    """One repeated, timed unit of a workload.

    ``body(i)`` runs pass ``i``: untimed preparation, the calls into the
    program inside ``run.timed(name)``, then untimed verification.
    """

    body: Callable[[int], None]
    share: float  # of --seconds in an untraced run; 0 = traced runs only
    fixed: int  # passes in a traced run
    min_passes: int = 3
    alternate: bool = False  # traced run: odd passes traced, even passes not
    max_passes: Optional[int] = None  # untraced cap; spare time goes to the others


class Tracer:
    """In-memory span recorder; a no-op while ``enabled`` is false."""

    def __init__(self) -> None:
        self.enabled = False
        self.rep = -1
        # name, layer, start, end, parent index
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer or name.rsplit(".", 1)[0], 0.0, 0.0, parent, self.rep]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time per layer: span duration minus its children's."""
        self_time = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                self_time[s[4]] -= s[3] - s[2]
        out: Dict[str, float] = {}
        for s, own in zip(self.spans, self_time):
            out[s[1]] = out.get(s[1], 0.0) + own
        return out

    def root_seconds(self) -> float:
        """Summed duration of the root spans: the traced, timed wall."""
        return sum(s[3] - s[2] for s in self.spans if s[4] < 0)

    def chrome_trace(self) -> Dict[str, Any]:
        """``chrome://tracing`` / Perfetto "X" events, µs since first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": i, "parent": parent, "pass": rep},
            }
            for i, (name, layer, start, end, parent, rep) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def environment(seed: int, seconds: float, sizes: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "sizes": sizes,
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
    }


class Run:
    """One workload run: samples, metrics, gates, spans."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        sizes: Dict[str, Any],
        workdir: str,
        catalogue: Dict[str, str],
        flip_gate: Optional[str] = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.trace = trace
        self.sizes = sizes
        self.workdir = workdir
        self.catalogue = catalogue  # metric name -> unit, from BENCHMARK.json
        self.flip_gate = flip_gate
        self.tracer = Tracer()
        self.samples: Dict[str, List[float]] = {}
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, Any] = {}  # run-record extras (aliases, notes)
        self.exact: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._shm_before = _shm_segments()
        self._threads_before = threading.active_count()

    # -- measuring ---------------------------------------------------------

    def measure(self, phases: List["Phase"]) -> None:
        """Run the phases' passes interleaved until the time box is spent.

        Untraced: the next pass goes to the phase furthest behind its
        share of the wall time spent so far (phases at their ``max_passes``
        sit out), until ``--seconds`` is used up and every phase has its
        ``min_passes``.  Traced: every phase
        runs exactly ``fixed`` passes (twice that when it alternates the
        tracer), the next pass going to the phase with the smallest done
        fraction — a schedule that depends on counts only, never on time.
        """
        if self.trace:
            goal = [p.fixed * (2 if p.alternate else 1) for p in phases]
        else:
            phases = [p for p in phases if p.share > 0]
            goal = [p.min_passes for p in phases]
        done = [0] * len(phases)
        spent = [0.0] * len(phases)
        deadline = time.perf_counter() + self.seconds
        rep_start = None
        while True:
            if self.trace:
                todo = [k for k in range(len(phases)) if done[k] < goal[k]]
                if not todo:
                    break
                k = min(todo, key=lambda j: done[j] / goal[j])
            else:
                live = [j for j, p in enumerate(phases)
                        if p.max_passes is None or done[j] < p.max_passes]
                if not live:
                    break
                short = [j for j in live if done[j] < goal[j]]
                if short:
                    k = short[0]
                else:
                    k = min(live, key=lambda j: spent[j] / phases[j].share)
                    if time.perf_counter() + spent[k] / done[k] > deadline:
                        break
            phase = phases[k]
            now = time.perf_counter()
            if rep_start is None or now - rep_start >= REP_SECONDS:
                gc.collect()
                rep_start = now = time.perf_counter()
            self.tracer.enabled = self.trace and not (phase.alternate and done[k] % 2 == 0)
            self.tracer.rep = done[k]
            self.attempted += 1
            phase.body(done[k])
            spent[k] += time.perf_counter() - now
            done[k] += 1
        self.tracer.enabled = False

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Time one pass of phase ``name`` (and root-span it when tracing)."""
        key = name if self.tracer.enabled or not self.trace else name + UNTRACED
        with self.tracer.span("bench." + name, layer="bench"):
            t0 = time.perf_counter()
            yield
            elapsed = time.perf_counter() - t0
        self.samples.setdefault(key, []).append(elapsed)

    def span(self, name: str, layer: Optional[str] = None):
        return self.tracer.span(name, layer)

    def fast(self, name: str) -> float:
        """The reported timing of phase ``name``: its passes' lower decile."""
        return lower_decile(self.samples[name])

    def span_fast(self, name: str) -> float:
        values = self.tracer.durations(name)
        return lower_decile(values) if values else 0.0

    # -- gates and metrics -------------------------------------------------

    def check(self, name: str, ok: bool) -> None:
        """One correctness gate = one attempted operation."""
        self.attempted += 1
        if name == self.flip_gate:
            ok = not ok
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def metric(
        self, name: str, value: float, of: Optional[str] = None, exact: bool = False
    ) -> None:
        """Report one metric.  ``of`` names the timing samples it was derived
        from; ``exact`` marks a count that repeats bit-for-bit at a fixed
        seed (``compare.py`` requires equality)."""
        if name not in self.catalogue:
            raise KeyError(f"metric {name!r} is not declared in BENCHMARK.json")
        self.metrics[name] = float(value)
        if of is not None:
            self.info.setdefault("metric_samples", {})[name] = of
        if exact:
            self.exact.append(name)

    def timing(self, name: str, of: str) -> None:
        """Report the lower decile of timing samples ``of`` as metric ``name``."""
        self.metric(name, self.fast(of), of=of)

    def trace_overhead(self, name: str) -> float:
        """Traced over untraced pass time of phase ``name``, minus 1."""
        off = self.samples.get(name + UNTRACED)
        on = self.samples.get(name)
        if not on or not off:
            return 0.0
        return lower_decile(on) / lower_decile(off) - 1.0

    def hygiene(self) -> None:
        """Leak gates: shared memory, threads and temp stores before == after."""
        gc.collect()
        leaked = _shm_segments() - self._shm_before
        self.info["shm_leaked"] = sorted(leaked)
        self.check("hygiene.shm", not leaked)
        self.check(
            "hygiene.threads", threading.active_count() <= self._threads_before
        )
        leftovers = [f for f in os.listdir(self.workdir) if not f.startswith(".")]
        self.check("hygiene.workdir", not leftovers)

    # -- results -----------------------------------------------------------

    def record(self, env: Dict[str, Any]) -> Dict[str, Any]:
        out = {
            "workload": self.workload,
            "trace": self.trace,
            "env": env,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / max(1, self.attempted),
            "failures": self.failures,
            "metrics": {
                name: {"value": value, "unit": self.catalogue[name]}
                for name, value in sorted(self.metrics.items())
            },
            "exact": sorted(self.exact),
            "samples": {k: summarize(v) for k, v in sorted(self.samples.items())},
            "info": self.info,
        }
        if self.trace:
            layers = self.tracer.layer_self_seconds()
            out["layer_self_seconds"] = dict(sorted(layers.items()))
            out["timed_wall_seconds"] = self.tracer.root_seconds()
        return out


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _child_pids() -> List[int]:
    """Live or unreaped direct children of this process, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # pid (comm) state ppid ...; comm may itself contain ")"
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def stop_children(grace: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Registered with ``atexit`` before the program is imported, so it runs
    after the program's own exit hooks (``shutdown_pools``, the shm sweep)
    on every way out.  What is left by then is multiprocessing's
    resource-tracker helper, spawned with the first shared-memory segment:
    it only ends when its pipe closes and nobody waits for it, so it would
    outlive this process by a moment.  Anything else still alive (a pool a
    crash left behind) is terminated, then killed, and reaped.
    """
    if "multiprocessing.resource_tracker" in sys.modules:
        tracker = sys.modules["multiprocessing.resource_tracker"]._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            try:
                tracker._stop()  # closes the pipe and waits for the helper
            except Exception:
                pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _child_pids()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace
        for pid in pids:
            while True:
                try:
                    if os.waitpid(pid, os.WNOHANG)[0] or time.monotonic() > deadline:
                        break
                except OSError:  # already reaped
                    break
                time.sleep(0.01)
    if _child_pids():
        sys.stderr.write(f"bench: children still running: {_child_pids()}\n")
        sys.stdout.flush()
        os._exit(3)


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
