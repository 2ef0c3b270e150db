"""The one simulated-worker event loop: worker clocks and work stealing.

Every modelled (not measured) schedule in the repo — the TLAG task
engines, PrefixFPM, the query server, task-parallel MNI, the serving
scheduler and the lambda fleet — is these two classes plus what each
client adds; DESIGN.md (*Simulated workers*) states the contract.  In
short: :class:`WorkerClocks` hands out the worker with the least clock
(ties by id), the caller pushes it back at the time it is next free
(``jump`` pushes every waiting worker below a time up to it at once), a
worker not pushed back has retired; :class:`WorkStealing` puts
per-worker deques on top — own deque LIFO, else steal FIFO from the
most loaded deque, children fork to the executing worker.  Tasks are
atomic, so with stealing on a worker retires only when every deque is
empty for good: nothing ever needs waking.  Times are whatever the
caller adds (ints of simulated ops, float seconds).
Imports nothing from ``repro``, so every layer may use it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["WorkStealing", "WorkerClocks", "balance", "check_workers"]


def check_workers(num_workers: int) -> int:
    """``num_workers`` if a simulation can run on it, else ``ValueError``."""
    if num_workers < 1:
        raise ValueError(f"need at least one worker, got {num_workers}")
    return num_workers


def balance(makespan: float, total_ops: float, num_workers: int) -> float:
    """Makespan over the ideal ``total_ops / num_workers``; 1.0 is perfect."""
    return makespan / (total_ops / num_workers) if total_ops else 1.0


class WorkerClocks:
    """Simulated worker clocks (contract: module doc)."""

    def __init__(self, num_workers: int) -> None:
        self.times: List[Any] = [0] * check_workers(num_workers)
        self._heap = [(0, w) for w in range(num_workers)]  # sorted: a heap

    def pop(self) -> Optional[Tuple[Any, int]]:
        """``(now, worker)`` of the least clock, or ``None`` if all retired."""
        return heapq.heappop(self._heap) if self._heap else None

    def push(self, w: int, time: Any) -> None:
        """Worker ``w`` is next free at ``time`` (after work, or a jump)."""
        self.times[w] = time
        heapq.heappush(self._heap, (time, w))

    def jump(self, time: Any) -> None:
        """Every waiting worker whose clock is below ``time`` is next free
        at ``time`` -- exactly popping each of them, least clock first,
        and pushing it back at ``time``."""
        heap = self._heap
        while heap and heap[0][0] < time:
            w = heap[0][1]
            self.times[w] = time
            heapq.heapreplace(heap, (time, w))

    def busy(self, now: Any) -> int:
        """Workers whose clock is past ``now``."""
        return sum(1 for t in self.times if t > now)

    @property
    def makespan(self) -> Any:
        return max(self.times)

    def state(self) -> Dict[str, List[Any]]:
        """Plain data from which :meth:`restore` rebuilds these clocks."""
        waiting = {w for _, w in self._heap}
        retired = [w for w in range(len(self.times)) if w not in waiting]
        return {"times": list(self.times), "retired": retired}

    def restore(self, state: Dict[str, List[Any]]) -> None:
        self.times = list(state["times"])
        retired = set(state["retired"])
        self._heap = sorted(
            (t, w) for w, t in enumerate(self.times) if w not in retired
        )


class WorkStealing:
    """Per-worker task deques over :class:`WorkerClocks` (module doc).

    ``on_steal(victim, w, task)`` is told of every steal — clients count
    it, and the distributed engine bills the network there.
    """

    def __init__(
        self,
        num_workers: int,
        steal: bool = True,
        on_steal: Optional[Callable[[int, int, Any], None]] = None,
    ) -> None:
        self.clocks = WorkerClocks(num_workers)
        self.queues: List[deque] = [deque() for _ in range(num_workers)]
        self.steal = steal
        self.on_steal = on_steal
        self.pending = 0  # queued tasks over all deques

    def put(self, w: int, tasks: Iterable[Any]) -> None:
        """Append ``tasks`` to worker ``w``'s deque."""
        queue = self.queues[w]
        before = len(queue)
        queue.extend(tasks)  # may be a generator: count by the deque
        self.pending += len(queue) - before

    def deal(self, chunks: Iterable[Iterable[Any]]) -> None:
        """Round-robin initial deal: chunk ``i`` goes to worker ``i % W``."""
        for i, chunk in enumerate(chunks):
            self.put(i % len(self.queues), chunk)

    def take(self) -> Optional[Tuple[int, Any, Any]]:
        """The next ``(worker, now, task)``; ``None`` once all retired.

        A worker that finds neither local work nor a victim retires.
        """
        while True:
            slot = self.clocks.pop()
            if slot is None:
                return None
            now, w = slot
            if self.queues[w]:
                self.pending -= 1
                return w, now, self.queues[w].pop()
            if self.steal and self.pending:
                victim = max(
                    range(len(self.queues)), key=lambda k: len(self.queues[k])
                )
                self.pending -= 1
                task = self.queues[victim].popleft()
                if self.on_steal is not None:
                    self.on_steal(victim, w, task)
                return w, now, task

    def done(self, w: int, finish: Any, children: Iterable[Any] = ()) -> None:
        """``w`` (from :meth:`take`) is busy until ``finish`` and forked
        ``children`` onto its own deque."""
        self.put(w, children)
        self.clocks.push(w, finish)

    def run(
        self, execute: Callable[[Any, int, Any], Tuple[Any, Iterable[Any]]]
    ) -> None:
        """Drain the deques: ``execute(task, w, now) -> (finish, children)``."""
        while True:
            slot = self.take()
            if slot is None:
                return
            w, now, task = slot
            self.done(w, *execute(task, w, now))

    def state(self) -> Dict[str, Any]:
        """Plain data from which :meth:`restore` rebuilds this schedule."""
        return {
            "queues": [list(queue) for queue in self.queues],
            "clocks": self.clocks.state(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        self.queues = [deque(queue) for queue in state["queues"]]
        self.pending = sum(len(queue) for queue in self.queues)
        self.clocks.restore(state["clocks"])
