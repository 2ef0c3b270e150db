"""The simulated-worker core: plain cases, model-based property tests
against a deliberately naive reference, and the golden schedules of all
its clients (captured before they were rebuilt on it)."""

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.fsm.prefixfpm import PrefixMiner, SequencePatterns
from repro.fsm.single_graph import mni_support_parallel
from repro.gnn.serverless import simulate_fleet
from repro.graph.generators import barabasi_albert
from repro.matching.pattern import PatternGraph, triangle_pattern
from repro.serve.endpoints import Endpoint, EndpointRegistry, GraphRegistry
from repro.serve.scheduler import Request, Server
from repro.sim import WorkerClocks, WorkStealing, balance, check_workers
from repro.tlag.engine import TaskEngine
from repro.tlag.programs import TriangleProgram
from repro.tlag.query import QueryServer

from .sim_schedules import compute


class TestWorkerClocks:
    def test_least_clock_first_ties_by_id(self):
        clocks = WorkerClocks(3)
        assert [clocks.pop() for _ in range(3)] == [(0, 0), (0, 1), (0, 2)]
        assert clocks.pop() is None  # nobody pushed back: all retired
        clocks.push(2, 5)
        clocks.push(0, 5)
        clocks.push(1, 4)
        assert [clocks.pop() for _ in range(3)] == [(4, 1), (5, 0), (5, 2)]
        assert clocks.makespan == 5

    def test_a_jump_moves_the_clock_like_work_does(self):
        clocks = WorkerClocks(2)
        now, w = clocks.pop()
        clocks.push(w, 40)  # idle until an arrival at 40
        assert clocks.times == [40, 0] and clocks.busy(0) == 1
        assert clocks.pop() == (0, 1)

    def test_float_times(self):
        clocks = WorkerClocks(2)
        t, w = clocks.pop()
        clocks.push(w, t + 0.25)
        assert clocks.pop() == (0, 1) and clocks.makespan == 0.25

    def test_state_is_plain_data_and_restores_the_retired(self):
        clocks = WorkerClocks(3)
        clocks.pop()  # worker 0 retires
        _, w = clocks.pop()
        clocks.push(w, 7)
        state = json.loads(json.dumps(clocks.state()))
        assert state == {"times": [0, 7, 0], "retired": [0]}
        twin = WorkerClocks(3)
        twin.restore(state)
        assert [twin.pop(), twin.pop(), twin.pop()] == [(0, 2), (7, 1), None]

    def test_balance_is_makespan_over_ideal(self):
        assert balance(10, 20, 4) == 2.0
        assert balance(0, 0, 4) == 1.0  # no work is perfectly balanced


class ClocksMachine(RuleBasedStateMachine):
    """WorkerClocks against a list scanned with ``min``."""

    @initialize(n=st.integers(1, 8))
    def setup(self, n):
        self.clocks = WorkerClocks(n)
        self.times = [0] * n
        self.retired = set()
        self.held = None  # the popped worker, until pushed or retired

    @precondition(lambda self: self.held is None)
    @rule()
    def pop(self):
        waiting = [w for w in range(len(self.times)) if w not in self.retired]
        got = self.clocks.pop()
        if not waiting:
            assert got is None
            return
        w = min(waiting, key=lambda w: (self.times[w], w))
        assert got == (self.times[w], w)
        self.held = w

    @precondition(lambda self: self.held is not None)
    @rule(delta=st.integers(0, 9))
    def push(self, delta):
        self.times[self.held] += delta
        self.clocks.push(self.held, self.times[self.held])
        self.held = None

    @precondition(lambda self: self.held is not None)
    @rule()
    def retire(self):
        self.retired.add(self.held)
        self.held = None

    @precondition(lambda self: self.held is None)
    @rule()
    def roundtrip(self):
        state = self.clocks.state()
        assert state == {"times": self.times, "retired": sorted(self.retired)}
        self.clocks = WorkerClocks(len(self.times))
        self.clocks.restore(state)

    @invariant()
    def books_agree(self):
        assert self.clocks.times == self.times
        assert self.clocks.makespan == max(self.times)
        assert self.clocks.busy(3) == sum(t > 3 for t in self.times)


TestClocksMachine = ClocksMachine.TestCase
TestClocksMachine.settings = settings(max_examples=60, deadline=None)


@settings(max_examples=200, deadline=None)
@given(
    times=st.lists(st.integers(0, 20), min_size=1, max_size=8),
    retired=st.sets(st.integers(0, 7)),
    target=st.integers(-2, 25),
)
def test_jump_is_the_pop_push_loop(times, retired, target):
    """``jump(t)`` leaves the clocks exactly as popping every waiting
    worker below ``t``, least clock first, and pushing it back at ``t``."""
    state = {
        "times": times,
        "retired": sorted(w for w in retired if w < len(times)),
    }
    jumped, looped = WorkerClocks(len(times)), WorkerClocks(len(times))
    jumped.restore(state)
    looped.restore(state)
    jumped.jump(target)
    while True:
        slot = looped.pop()
        if slot is None or slot[0] >= target:
            if slot is not None:
                looped.push(slot[1], slot[0])
            break
        looped.push(slot[1], target)
    assert jumped.state() == looped.state()
    # Same pop order to the end, ties by worker id.
    assert [jumped.pop() for _ in times] == [looped.pop() for _ in times]


# -- work stealing against the protocol spelled naively --------------------


def _task_tree(seed, depth):
    """``task -> (cost, children)``, a pure function of the task path so
    both schedulers see the same tree whatever order they visit it in."""

    def spec(task):
        rng = random.Random(f"{seed}:{task}")
        cost = rng.randrange(0, 6)  # zero-cost tasks included
        fanout = rng.randrange(0, 4) if len(task) <= depth else 0
        return cost, [task + (k,) for k in range(fanout)]

    return spec


def _reference(num_workers, steal, chunks, spec):
    """The protocol with linear scans: ``min`` over a clock list, a
    most-loaded-victim scan, a set of retired workers — and the
    wake-the-retired step a literal reading asks for, which the core
    omits because it cannot fire (tasks are atomic, so with stealing on
    a worker retires only once every deque is empty for good)."""
    clocks = [0] * num_workers
    ready = [0] * num_workers
    retired = set()
    queues = [[] for _ in range(num_workers)]
    for i, chunk in enumerate(chunks):
        queues[i % num_workers].extend(chunk)
    log, stolen = [], []
    while len(retired) < num_workers:
        w = min(
            (w for w in range(num_workers) if w not in retired),
            key=lambda w: (ready[w], w),
        )
        now = ready[w]
        if queues[w]:
            task = queues[w].pop()
        elif steal and any(queues):
            victim = 0
            for k in range(num_workers):
                if len(queues[k]) > len(queues[victim]):
                    victim = k
            task = queues[victim].pop(0)
            stolen.append((victim, w, task))
        else:
            retired.add(w)
            continue
        cost, children = spec(task)
        clocks[w] = ready[w] = now + max(cost, 1)
        queues[w].extend(children)
        log.append((task, w, now, clocks[w]))
        if steal and any(queues):
            for other in retired:
                ready[other] = max(clocks[other], now)
            retired.clear()
    return log, stolen


@settings(max_examples=150, deadline=None)
@given(
    num_workers=st.integers(1, 8),
    steal=st.booleans(),
    roots=st.integers(0, 12),
    chunk=st.integers(1, 4),
    depth=st.integers(0, 3),
    seed=st.integers(0, 1 << 16),
)
def test_work_stealing_matches_the_naive_loop(
    num_workers, steal, roots, chunk, depth, seed
):
    spec = _task_tree(seed, depth)
    tasks = [(i,) for i in range(roots)]
    chunks = [tasks[i:i + chunk] for i in range(0, roots, chunk)]
    steals = []
    sched = WorkStealing(
        num_workers, steal, on_steal=lambda *theft: steals.append(theft)
    )
    sched.deal(chunks)
    log = []

    def execute(task, w, now):
        cost, children = spec(task)
        log.append((task, w, now, now + max(cost, 1)))
        return now + max(cost, 1), children

    sched.run(execute)
    expected, stolen = _reference(num_workers, steal, chunks, spec)
    assert log == expected  # (task, worker, start, finish), in order
    assert steals == stolen and (steal or not steals)
    assert sched.pending == 0
    assert sched.clocks.makespan == max([f for *_, f in expected], default=0)


def test_take_done_pause_and_restore_replays_the_same_schedule():
    spec = _task_tree(11, 3)

    def drive(sched, log, stop_after=None):
        while stop_after is None or len(log) < stop_after:
            slot = sched.take()
            if slot is None:
                return
            w, now, task = slot
            cost, children = spec(task)
            log.append((task, w, now))
            sched.done(w, now + max(cost, 1), children)

    straight = WorkStealing(3)
    straight.deal([[(i,)] for i in range(5)])
    full = []
    drive(straight, full)

    paused = WorkStealing(3)
    paused.deal([[(i,)] for i in range(5)])
    head = []
    drive(paused, head, stop_after=4)
    state = json.loads(json.dumps(paused.state()))  # plain data
    state["queues"] = [[tuple(t) for t in q] for q in state["queues"]]
    resumed = WorkStealing(3)
    resumed.restore(state)
    drive(resumed, head)
    assert head == full and len(full) > 8


# -- every client of the core ----------------------------------------------


def test_golden_schedules_match_the_parent_commit():
    """Exact tasks / forked / steals / total_ops / worker_busy / makespan
    / completion times of every rebuilt site, as the hand-written heaps
    produced them (see sim_schedules.py)."""
    path = os.path.join(os.path.dirname(__file__), "sim_schedules.json")
    with open(path) as handle:
        golden = json.load(handle)
    computed = compute()
    assert sorted(computed) == sorted(golden)
    for site, schedules in golden.items():
        for name, expected in schedules.items():
            assert computed[site][name] == expected, f"{site}/{name} moved"


_GRAPH = barabasi_albert(12, 2, seed=1)


def _served(workers):
    endpoints = EndpointRegistry()
    endpoints.register(Endpoint("t.w", "t", lambda rec, p, ex: (0, 1)))
    graphs = GraphRegistry()
    graphs.register("default", _GRAPH)
    return Server(graphs, endpoints=endpoints, num_workers=workers)


WORKER_COUNT_ENTRY_POINTS = {
    "TaskEngine": lambda n: TaskEngine(_GRAPH, TriangleProgram(), num_workers=n),
    "QueryServer": lambda n: QueryServer(_GRAPH, num_workers=n),
    "PrefixMiner": lambda n: PrefixMiner(SequencePatterns(["ab"]), 1, num_workers=n),
    "mni_support_parallel": lambda n: mni_support_parallel(
        _GRAPH, PatternGraph(triangle_pattern().graph), num_workers=n
    ),
    "Server": _served,
    "simulate_fleet": lambda n: simulate_fleet(4, 1.0, n),
}


@pytest.mark.parametrize("entry", sorted(WORKER_COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("workers", [0, -2])
def test_worker_count_below_one_is_one_value_error(entry, workers):
    with pytest.raises(ValueError, match="at least one worker"):
        WORKER_COUNT_ENTRY_POINTS[entry](workers)
    WORKER_COUNT_ENTRY_POINTS[entry](1)  # the floor itself is fine
    with pytest.raises(ValueError, match="at least one worker"):
        check_workers(workers)


def test_server_keeps_all_workers_after_a_run_that_raised():
    server = _served(2)

    def explode(response):
        raise RuntimeError("client hung up")

    server.submit(Request(endpoint="t.w"))
    with pytest.raises(RuntimeError):
        server.run(feedback=explode)
    for _ in range(4):
        server.submit(Request(endpoint="t.w", params={"x": _}, arrival=10))
    done = server.run()
    # Two workers again: four unit-cost requests arriving together
    # finish in two rounds, not four.
    assert sorted(r.completed for r in done if r.request.arrival == 10) == [
        11, 11, 12, 12
    ]
