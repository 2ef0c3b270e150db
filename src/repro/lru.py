"""The one recency-eviction loop: a budgeted least-recently-used map.

Shard paging, served results, GNN feature rows, TLAG remote adjacency
and shm-published graphs are all this map plus what each client adds;
DESIGN.md (*Caches*) states the contract.  In short: ``budget`` caps
the resident ``weight`` (``None`` = unbounded, each put weighs 1 unless
told otherwise); the entry just put is never the one evicted;
``on_evict(key, value)`` fires once per entry leaving by eviction, pop
or clear; ``hits`` / ``misses`` / ``evictions`` / ``weight`` are plain
ints.  Imports nothing from ``repro``, so every layer may use it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator, Optional, Tuple

__all__ = ["LRU"]


class LRU:
    """Budgeted LRU map with plain-int books (contract: module doc)."""

    def __init__(
        self,
        budget: Optional[int] = None,
        on_evict: Optional[Callable[[Hashable, Any], None]] = None,
    ) -> None:
        self.budget = budget
        self.hits = self.misses = self.evictions = self.weight = 0
        self._on_evict = on_evict
        # key -> (value, weight), least recently used first.
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value for ``key`` (now most recent), booking a hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def peek(self, key: Hashable, default: Any = None, refresh: bool = False) -> Any:
        """The value for ``key`` with the books untouched; ``refresh``
        still makes it the most recent."""
        entry = self._entries.get(key)
        if entry is None:
            return default
        if refresh:
            self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: Hashable, value: Any, weight: int = 1) -> int:
        """Insert or replace ``key`` as the most recent entry; returns how
        many older entries the budget evicted.  ``key`` itself stays even if
        it alone outweighs the budget, so a budget <= 0 keeps the newest."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.weight -= old[1]
        self._entries[key] = (value, weight)
        self.weight += weight
        evicted, budget = 0, self.budget
        while budget is not None and self.weight > budget and len(self._entries) > 1:
            self._left(*self._entries.popitem(last=False))
            evicted += 1
        self.evictions += evicted
        return evicted

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove ``key`` and return its value (``default`` if absent)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return default
        self._left(key, entry)
        return entry[0]

    def clear(self) -> None:
        """Drop every entry, least recent first; not booked as eviction."""
        while self._entries:
            self._left(*self._entries.popitem(last=False))

    def _left(self, key: Hashable, entry: Tuple[Any, int]) -> None:
        self.weight -= entry[1]
        if self._on_evict is not None:
            self._on_evict(key, entry[0])

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
