"""Message transport with traffic accounting.

Every distributed engine in this library (the Pregel-like TLAV engine,
the TLAG task engine's work stealing, the distributed GNN trainers)
exchanges data through a :class:`Network`.  The network does not move
real packets — workers are simulated in-process — but it faithfully
accounts *what a real deployment would have sent*: message counts, bytes,
and the per-link matrix that DGCL-style communication planning optimizes.

Accounting lives in a :class:`~repro.obs.MetricsRegistry`:
:class:`CommStats` is a *view* over the registry's ``cluster.*``
counters, so its legacy attributes (``bytes_remote``, ``by_tag``, …)
keep working while the same numbers appear in any shared registry
snapshot.  Pass ``registry=`` to :class:`Network` to aggregate several
networks (or a network plus an engine) into one observability surface.

The network can also run **lossy**: give it a
:class:`~repro.resilience.FaultInjector` and each transmission may be
dropped, duplicated or delayed under the injector's deterministic
schedule.  A :class:`~repro.resilience.RetryPolicy` turns drops into an
ack/retransmit protocol (retransmissions counted, with bytes); the
receiver deduplicates by send sequence number and :meth:`Network.deliver`
stable-sorts each flush by that sequence number, so a lossy run's
delivery *contents and order* match the lossless run exactly — only the
traffic bill changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..obs import MetricsRegistry, StatsViewMixin

__all__ = ["Message", "CommStats", "Network"]


@dataclass
class Message:
    """A unit of communication between two workers.

    ``seq`` is the global send sequence number the :class:`Network`
    stamps: the retransmit/dedup key and the deterministic delivery
    order.
    """

    src: int
    dst: int
    payload: Any
    nbytes: int = 0
    tag: str = ""
    seq: int = -1


class CommStats(StatsViewMixin):
    """Traffic counters, as a view over a metrics registry.

    ``local`` counts messages whose source and destination worker are the
    same (these are free in a real deployment); ``remote`` counts
    cross-worker traffic — the quantity the surveyed systems fight to
    reduce.  The per-link byte matrix stays a dense ndarray (planners
    consume it wholesale); everything scalar lives in the registry under
    ``cluster.messages`` / ``cluster.bytes`` / ``cluster.bytes_by_tag``.
    """

    def __init__(
        self, num_workers: int, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.num_workers = num_workers
        self.registry = registry if registry is not None else MetricsRegistry()
        self._messages = self.registry.counter(
            "cluster.messages", "messages sent, by locality"
        )
        self._bytes = self.registry.counter(
            "cluster.bytes", "payload bytes sent, by locality"
        )
        self._tag_bytes = self.registry.counter(
            "cluster.bytes_by_tag", "payload bytes sent, by message tag"
        )
        self._faults = self.registry.counter(
            "cluster.link_faults", "lossy-link events, by kind"
        )
        self._retransmits = self.registry.counter(
            "cluster.retransmits", "retransmission attempts after drops"
        )
        self._retransmitted_bytes = self.registry.counter(
            "cluster.retransmitted_bytes", "payload bytes sent again on retry"
        )
        self.link_bytes = np.zeros((num_workers, num_workers), dtype=np.int64)

    def record(self, msg: Message) -> None:
        if msg.src == msg.dst:
            self._messages.inc(1, locality="local")
            self._bytes.inc(msg.nbytes, locality="local")
        else:
            self._messages.inc(1, locality="remote")
            self._bytes.inc(msg.nbytes, locality="remote")
            self.link_bytes[msg.src, msg.dst] += msg.nbytes
        if msg.tag:
            self._tag_bytes.inc(msg.nbytes, tag=msg.tag)

    # -- lossy-link write path ---------------------------------------------

    def record_fault(self, kind: str) -> None:
        """Count one lossy-link event (``drop``/``duplicate``/``delay``/
        ``lost``/``exhausted``)."""
        self._faults.inc(kind=kind)

    def record_retransmit(self, msg: Message) -> None:
        self._retransmits.inc()
        self._retransmitted_bytes.inc(msg.nbytes)

    # -- legacy attribute surface (now registry reads) ---------------------

    @property
    def messages_local(self) -> int:
        return int(self._messages.value(locality="local"))

    @property
    def messages_remote(self) -> int:
        return int(self._messages.value(locality="remote"))

    @property
    def bytes_local(self) -> int:
        return int(self._bytes.value(locality="local"))

    @property
    def bytes_remote(self) -> int:
        return int(self._bytes.value(locality="remote"))

    @property
    def by_tag(self) -> Dict[str, int]:
        return {
            key.split("tag=", 1)[1]: int(v)
            for key, v in self._tag_bytes.series().items()
        }

    @property
    def total_messages(self) -> int:
        return self.messages_local + self.messages_remote

    @property
    def total_bytes(self) -> int:
        return self.bytes_local + self.bytes_remote

    @property
    def retransmits(self) -> int:
        return int(self._retransmits.total)

    @property
    def retransmitted_bytes(self) -> int:
        return int(self._retransmitted_bytes.total)

    @property
    def dropped(self) -> int:
        return int(self._faults.value(kind="drop"))

    @property
    def duplicates(self) -> int:
        return int(self._faults.value(kind="duplicate"))

    @property
    def delayed(self) -> int:
        return int(self._faults.value(kind="delay"))

    @property
    def lost(self) -> int:
        """Messages that exhausted their retries on an unreliable link."""
        return int(self._faults.value(kind="lost"))

    @property
    def retry_exhausted(self) -> int:
        """Messages force-delivered after the retry budget (reliable mode)."""
        return int(self._faults.value(kind="exhausted"))

    # -- export ------------------------------------------------------------

    def extra_dict(self) -> Dict[str, Any]:
        return {
            "num_workers": self.num_workers,
            "messages_local": self.messages_local,
            "messages_remote": self.messages_remote,
            "bytes_local": self.bytes_local,
            "bytes_remote": self.bytes_remote,
            "by_tag": self.by_tag,
            "link_bytes": self.link_bytes,
            "dropped": self.dropped,
            "duplicates": self.duplicates,
            "delayed": self.delayed,
            "lost": self.lost,
            "retransmits": self.retransmits,
            "retransmitted_bytes": self.retransmitted_bytes,
            "retry_exhausted": self.retry_exhausted,
        }



def payload_nbytes(payload: Any) -> int:
    """Estimate the wire size of a payload.

    numpy arrays report their true buffer size; python scalars count as
    8 bytes; containers sum their elements.  The estimate is deliberately
    simple — benches compare *relative* traffic between techniques.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, bool) or payload is None:
        return 1
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(x) for x in payload)
    if hasattr(payload, "nbytes"):
        return int(payload.nbytes)
    return 16  # opaque object header


class Network:
    """In-process mailbox network between ``num_workers`` workers.

    ``send`` enqueues into the destination's mailbox for the *next*
    delivery round; ``deliver`` swaps the buffers, which gives the BSP
    semantics the TLAV engine needs.  Engines that want immediate
    delivery (the task engine's work stealing) use ``send_now``.

    ``registry`` lets a caller aggregate this network's traffic
    counters into a shared :class:`~repro.obs.MetricsRegistry`.

    Lossy mode
    ----------
    ``injector`` (a :class:`~repro.resilience.FaultInjector`) makes the
    link drop, duplicate or delay individual transmissions under its
    deterministic schedule.  ``retry`` (a
    :class:`~repro.resilience.RetryPolicy`) adds sender-side
    ack/retransmit: a dropped transmission is re-sent (each attempt
    counted, with its bytes) until delivered or the attempt budget runs
    out.  ``reliable=True`` (default) models a transport that escalates
    past the budget and ultimately delivers (counted under
    ``retry_exhausted``); ``reliable=False`` loses the message.  The
    receiver drops duplicate sequence numbers, so engines above see
    exactly-once delivery; delayed messages surface in a *later*
    delivery round (safe for async engines; BSP engines should stick to
    drop/duplicate, which recover within the round).
    """

    def __init__(
        self,
        num_workers: int,
        registry: Optional[MetricsRegistry] = None,
        injector: Optional[Any] = None,
        retry: Optional[Any] = None,
        reliable: bool = True,
    ) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.stats = CommStats(num_workers, registry=registry)
        self.injector = injector
        self.retry = retry
        self.reliable = reliable
        self._seq = 0
        self._inboxes: List[List[Message]] = [[] for _ in range(num_workers)]
        self._pending: List[List[Message]] = [[] for _ in range(num_workers)]
        # Lossy-mode state: (rounds_left, msg) per destination, and the
        # receiver-side dedup ledger of seen sequence numbers.
        self._delayed: List[List[Tuple[int, Message]]] = [
            [] for _ in range(num_workers)
        ]
        self._seen: List[Set[int]] = [set() for _ in range(num_workers)]

    @property
    def registry(self) -> MetricsRegistry:
        return self.stats.registry

    def _make(
        self, src: int, dst: int, payload: Any, tag: str, nbytes: Optional[int]
    ) -> Message:
        msg = Message(
            src,
            dst,
            payload,
            nbytes if nbytes is not None else payload_nbytes(payload),
            tag,
            seq=self._seq,
        )
        self._seq += 1
        self.stats.record(msg)
        return msg

    def _transmit(self, msg: Message) -> Tuple[int, int]:
        """Push ``msg`` through the lossy link.

        Returns ``(copies, delay_rounds)``: how many copies reach the
        destination (0 = lost) and how many delivery rounds the first
        copy is held back.
        """
        fate = self.injector.message_fate(msg.seq, attempt=0)
        attempt = 0
        while fate.action == "drop":
            self.stats.record_fault("drop")
            if self.retry is None or attempt + 1 >= self.retry.max_attempts:
                if self.reliable and self.retry is not None:
                    # The transport keeps nacking past our budget and the
                    # message ultimately lands — one more (re)transmission.
                    self.stats.record_fault("exhausted")
                    self.stats.record_retransmit(msg)
                    return 1, 0
                self.stats.record_fault("lost")
                return 0, 0
            attempt += 1
            self.stats.record_retransmit(msg)
            fate = self.injector.message_fate(msg.seq, attempt=attempt)
        if fate.action == "duplicate":
            self.stats.record_fault("duplicate")
            return 2, 0
        if fate.action == "delay":
            self.stats.record_fault("delay")
            return 1, max(1, fate.delay_rounds)
        return 1, 0

    def _enqueue(self, msg: Message, immediate: bool) -> None:
        if self.injector is None:
            (self._inboxes if immediate else self._pending)[msg.dst].append(msg)
            return
        copies, delay_rounds = self._transmit(msg)
        for _ in range(copies):
            if delay_rounds > 0 and not immediate:
                self._delayed[msg.dst].append((delay_rounds, msg))
                delay_rounds = 0  # only the first copy is held back
            elif immediate:
                self._receive_copy(msg)
            else:
                self._pending[msg.dst].append(msg)

    def _receive_copy(self, msg: Message) -> bool:
        """Receiver-side dedup: admit a copy unless its seq was seen."""
        seen = self._seen[msg.dst]
        if msg.seq in seen:
            self.stats.record_fault("deduplicated")
            return False
        seen.add(msg.seq)
        self._inboxes[msg.dst].append(msg)
        return True

    def send(self, src: int, dst: int, payload: Any, tag: str = "", nbytes: Optional[int] = None) -> None:
        """Enqueue a message for delivery at the next :meth:`deliver`."""
        self._enqueue(self._make(src, dst, payload, tag, nbytes), immediate=False)

    def send_now(self, src: int, dst: int, payload: Any, tag: str = "", nbytes: Optional[int] = None) -> None:
        """Deliver immediately (asynchronous-engine semantics)."""
        self._enqueue(self._make(src, dst, payload, tag, nbytes), immediate=True)

    def deliver(self) -> int:
        """Flush pending messages into inboxes; returns how many moved.

        The flush is deterministic under duplication and retransmission:
        matured delayed messages rejoin the round, the batch is
        stable-sorted by send sequence number, and duplicate sequence
        numbers are dropped at the receiver.
        """
        moved = 0
        for dst in range(self.num_workers):
            batch = self._pending[dst]
            self._pending[dst] = []
            if self._delayed[dst]:
                # A message delayed r rounds matures r deliver() calls
                # after the one it would normally have arrived in.
                still_held: List[Tuple[int, Message]] = []
                for rounds_left, msg in self._delayed[dst]:
                    if rounds_left <= 0:
                        batch.append(msg)
                    else:
                        still_held.append((rounds_left - 1, msg))
                self._delayed[dst] = still_held
            if not batch:
                continue
            batch.sort(key=lambda m: m.seq)
            if self.injector is None:
                self._inboxes[dst].extend(batch)
                moved += len(batch)
            else:
                for msg in batch:
                    if self._receive_copy(msg):
                        moved += 1
        return moved

    def receive(self, worker: int) -> List[Message]:
        """Drain and return worker's inbox."""
        msgs, self._inboxes[worker] = self._inboxes[worker], []
        return msgs

    def has_pending(self) -> bool:
        return (
            any(self._pending)
            or any(self._inboxes)
            or any(self._delayed)
        )
