"""Write-ahead journal making chunked ingest crash-consistent.

:func:`~repro.graph.store.writer.ingest_edge_stream` is a two-pass
pipeline: pass 1 routes edge chunks into per-partition spill files,
pass 2 builds one partition shard at a time.  A crash anywhere in the
middle used to leave an unreadable half-store.  The journal fixes that
with classic WAL discipline, all under ``<root>/_ingest/``:

* **pass 1** — after every chunk flush the spill handles are flushed
  and the journal atomically records ``(chunks committed, input items
  consumed, per-spill byte sizes)``; an item is one edge, whether it
  arrived as a pair or as a row of a ``(k, 2)`` block.  On resume,
  spill files are truncated back to the last journaled sizes
  (discarding any torn tail; a spill *shorter* than its commit is a
  ``StoreError``, not zero padding), the already-consumed prefix of the
  restartable edge iterable is skipped, and pass 1 continues from the
  exact chunk boundary.
* **pass 2** — each partition's shard writes are journaled *after*
  they land and *before* its spill file is removed, so a resumed run
  redoes at most one partition (shard writes are deterministic
  overwrites) and skips completed ones.
* **publish** — the manifest save is already atomic (temp + rename);
  the journal and spill directory are swept only after it lands.
* **load** — every field is type-checked; a damaged journal raises
  ``StoreError`` instead of resuming from nonsense.

The ``store.journal.resume_vs_oneshot`` oracle pins the contract: a
build crashed at *any* chunk boundary and resumed is **byte-identical**
to the uninterrupted build.

Journal temp files are tracked in a module-level registry with an
``atexit`` sweep, so an interrupted (or ENOSPC-failed) atomic write
never strands ``journal.json.tmp`` litter.
"""

from __future__ import annotations

import atexit
import json
import os
from typing import Any, Dict, List, Optional, Union

from .format import PartitionMeta, StoreError

__all__ = ["INGEST_DIRNAME", "JOURNAL_FILENAME", "IngestJournal"]

INGEST_DIRNAME = "_ingest"
JOURNAL_FILENAME = "journal.json"

PathLike = Union[str, os.PathLike]

# Temp paths from in-flight atomic journal writes; swept at exit so a
# crash (or an ENOSPC mid-dump) cannot strand them.
_LIVE_TMP: set = set()


@atexit.register
def _sweep_tmp() -> None:
    for path in list(_LIVE_TMP):
        try:
            os.remove(path)
        except OSError:
            pass
        _LIVE_TMP.discard(path)


def _count(value: Any, what: str) -> int:
    """``value`` if it is a non-negative ``int``, else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, not {value!r}")
    return value


class IngestJournal:
    """Crash-consistent progress record of one chunked ingest.

    The ``fingerprint`` pins every parameter that shapes the output
    bytes; a resume against a journal with a different fingerprint is
    refused (the spills would not line up).
    """

    def __init__(self, root: PathLike, fingerprint: Dict[str, Any]) -> None:
        self.root = os.fspath(root)
        self.fingerprint = dict(fingerprint)
        self.phase = "pass1"  # pass1 | pass2
        self.chunks_committed = 0
        self.items_consumed = 0  # input iterable items consumed at last commit
        self.slots_spilled = 0
        self.spill_bytes: List[int] = []
        self.partitions_done: List[Dict[str, Any]] = []
        self.degrees_done: List[int] = []  # part ids whose degrees are on disk

    # -- paths --------------------------------------------------------------

    @property
    def dir(self) -> str:
        return os.path.join(self.root, INGEST_DIRNAME)

    @property
    def path(self) -> str:
        return os.path.join(self.dir, JOURNAL_FILENAME)

    # -- persistence --------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "phase": self.phase,
            "chunks_committed": self.chunks_committed,
            "items_consumed": self.items_consumed,
            "slots_spilled": self.slots_spilled,
            "spill_bytes": list(self.spill_bytes),
            "partitions_done": list(self.partitions_done),
        }

    def commit(self) -> None:
        """Atomically publish the current progress (temp + rename).

        The ENOSPC path is covered: a failed dump removes the temp file
        before re-raising, and the atexit sweep catches anything a hard
        crash leaves behind.
        """
        os.makedirs(self.dir, exist_ok=True)
        tmp = self.path + ".tmp"
        _LIVE_TMP.add(tmp)
        try:
            with open(tmp, "w") as handle:
                json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            _LIVE_TMP.discard(tmp)
            raise
        os.replace(tmp, self.path)
        _LIVE_TMP.discard(tmp)

    @staticmethod
    def load(root: PathLike) -> Optional["IngestJournal"]:
        """The journal under ``root``, or ``None`` if no ingest is open."""
        path = os.path.join(os.fspath(root), INGEST_DIRNAME, JOURNAL_FILENAME)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable ingest journal {path!r}: {exc}") from exc
        try:
            journal = IngestJournal(root, data.get("fingerprint", {}))
            journal.phase = data.get("phase", "pass1")
            for key in ("chunks_committed", "items_consumed", "slots_spilled"):
                setattr(journal, key, _count(data.get(key, 0), key))
            journal.spill_bytes = [
                _count(b, "spill_bytes") for b in data.get("spill_bytes", [])
            ]
            journal.partitions_done = list(data.get("partitions_done", []))
            journal.completed_partitions()  # every entry must parse
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed ingest journal {path!r}: {exc!r}") from exc
        if journal.phase not in ("pass1", "pass2"):
            raise StoreError(
                f"malformed ingest journal {path!r}: phase {journal.phase!r}"
            )
        return journal

    def remove(self) -> None:
        """Drop the journal file (the enclosing dir is swept by the caller)."""
        try:
            os.remove(self.path)
        except OSError:
            pass

    # -- pass-1 bookkeeping -------------------------------------------------

    def commit_chunk(
        self, items_consumed: int, slots_spilled: int, spill_sizes: List[int]
    ) -> None:
        """Record one flushed chunk: the resume point moves forward."""
        self.chunks_committed += 1
        self.items_consumed = int(items_consumed)
        self.slots_spilled = int(slots_spilled)
        self.spill_bytes = [int(b) for b in spill_sizes]
        self.commit()

    def begin_pass2(self) -> None:
        self.phase = "pass2"
        self.commit()

    # -- pass-2 bookkeeping -------------------------------------------------

    def commit_partition(self, meta: PartitionMeta, total_slots: int) -> None:
        """Record one finished partition shard (before its spill is removed)."""
        self.partitions_done.append(
            {"meta": meta.as_dict(), "total_slots": int(total_slots)}
        )
        self.commit()

    def completed_partitions(self) -> Dict[int, PartitionMeta]:
        out: Dict[int, PartitionMeta] = {}
        for entry in self.partitions_done:
            meta = PartitionMeta.from_dict(entry["meta"])
            out[meta.part_id] = meta
        return out

    def matches(self, fingerprint: Dict[str, Any]) -> bool:
        return self.fingerprint == dict(fingerprint)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IngestJournal(phase={self.phase!r}, "
            f"chunks={self.chunks_committed}, "
            f"parts_done={len(self.partitions_done)})"
        )
