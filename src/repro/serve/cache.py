"""Versioned LRU result cache with partition-scoped invalidation.

Keys are ``(endpoint, graph, epoch, canonical_params)``.  Because the
graph epoch is *inside* the key, a registry epoch bump invalidates every
cached result for that graph by construction — a fresh :meth:`lookup`
can never return a stale entry.  The cache additionally subscribes to
the :class:`~repro.serve.endpoints.GraphRegistry` so bumped entries are
reclaimed instead of waiting for LRU pressure.

**Partition scoping** keeps a trickle of edge mutations from zeroing
the hit rate.  An entry may record the set of partitions its result
read (:meth:`put`'s ``partitions``; ``None`` means the whole graph).
When a mutation batch reports its dirty partitions through
:meth:`invalidate_graph`, entries **at the immediately preceding
epoch** whose footprint is disjoint from the dirty set are
**promoted**: re-keyed to the new epoch, so the next fresh lookup
still hits.  Each entry is thus judged against every batch exactly
once — an entry that aged into the stale tail was dirtied by some
earlier batch, and a later batch with a disjoint (or empty) dirty set
must not resurrect it as fresh.  Whole-graph entries (and
intersecting ones) age into the stale tail as before.  An *empty*
dirty set is the registry's proof the batch was a structural no-op,
and promotes everything at the preceding epoch.

With ``max_stale_epochs > 0`` the reclaim keeps a bounded tail of old
epochs behind for the degradation ladder: when a breaker is open or
admission is shedding, the scheduler calls :meth:`lookup_stale` to
answer in stale-while-revalidate mode (the response then carries
``degraded=True`` plus its staleness in epochs).  The staleness bound
is enforced *inside* :meth:`lookup_stale` — an unattached cache (no
registry eagerly reclaiming) honors it too, instead of serving
arbitrarily old answers.

A per-graph secondary index (``graph name -> set of keys``) backs
:meth:`lookup_stale` and :meth:`invalidate_graph`, so a mutation batch
walks only the bumped graph's entries, not the whole cache.

Hits and misses are counted per endpoint under ``serve.cache.*`` so
the scenario reports can quote a hit rate next to the latency
distribution it produced; invalidation accounts reclaimed vs retained
vs promoted per bump.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set, Tuple

from ..lru import LRU
from ..obs import MetricsRegistry
from ..obs.metrics import BoundCounter

__all__ = ["ResultCache"]

CacheKey = Tuple[str, str, int, Tuple]


class ResultCache:
    """Bounded :class:`~repro.lru.LRU` over ``(endpoint, graph, epoch,
    canonical_params)`` holding ``(value, footprint)``; its on-evict
    callback unindexes every entry that leaves."""

    def __init__(
        self,
        capacity: int = 256,
        obs: Optional[MetricsRegistry] = None,
        max_stale_epochs: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if max_stale_epochs < 0:
            raise ValueError("max_stale_epochs must be >= 0")
        self.capacity = capacity
        self.max_stale_epochs = int(max_stale_epochs)
        self.registry = obs if obs is not None else MetricsRegistry()
        self._lru = LRU(capacity, on_evict=self._unindex)
        self._by_graph: Dict[str, Set[CacheKey]] = {}
        self._c_hits = self.registry.counter(
            "serve.cache.hits", "served from the versioned result cache"
        )
        self._c_misses = self.registry.counter(
            "serve.cache.misses", "cache lookups that fell through to an engine"
        )
        self._c_evictions = self.registry.counter(
            "serve.cache.evictions", "entries dropped by LRU pressure"
        )
        self._c_invalidated = self.registry.counter(
            "serve.cache.invalidated", "entries reclaimed by graph epoch bumps"
        )
        self._c_retained = self.registry.counter(
            "serve.cache.retained",
            "stale entries kept behind for stale-while-revalidate",
        )
        self._c_promoted = self.registry.counter(
            "serve.cache.promoted",
            "entries re-keyed to the new epoch (clean partitions)",
        )
        self._c_stale_hits = self.registry.counter(
            "serve.cache.stale_hits", "degraded answers served from stale epochs"
        )
        self._c_stale_misses = self.registry.counter(
            "serve.cache.stale_misses", "stale lookups with nothing to fall back on"
        )
        # endpoint -> (hits, misses) handles, bound on its first lookup.
        self._lookups: Dict[str, Tuple[BoundCounter, BoundCounter]] = {}

    @staticmethod
    def key(endpoint: str, graph: str, epoch: int, canon: Tuple) -> CacheKey:
        return (endpoint, graph, int(epoch), canon)

    # -- index plumbing ----------------------------------------------------

    def _unindex(self, key: CacheKey, _entry: Any) -> None:
        keys = self._by_graph[key[1]]
        keys.discard(key)
        if not keys:
            del self._by_graph[key[1]]

    def lookup(self, key: CacheKey) -> Tuple[bool, Any]:
        """``(hit, value)``; counts the outcome under the endpoint label."""
        counted = self._lookups.get(key[0])
        if counted is None:
            counted = self._lookups[key[0]] = (
                self._c_hits.labels(endpoint=key[0]),
                self._c_misses.labels(endpoint=key[0]),
            )
        entry = self._lru.get(key)
        if entry is not None:
            counted[0].inc()
            return True, entry[0]
        counted[1].inc()
        return False, None

    def put(
        self,
        key: CacheKey,
        value: Any,
        partitions: Optional[Iterable[int]] = None,
    ) -> None:
        """Store one result; ``partitions`` is the set of partition ids
        the computation read (``None`` = the whole graph, the
        conservative default every full-graph analytic uses)."""
        footprint = (
            frozenset(int(p) for p in partitions)
            if partitions is not None else None
        )
        self._by_graph.setdefault(key[1], set()).add(key)
        evicted = self._lru.put(key, (value, footprint))
        if evicted:
            self._c_evictions.inc(evicted)

    def lookup_stale(
        self, endpoint: str, graph: str, current_epoch: int, canon: Tuple
    ) -> Tuple[bool, Any, int]:
        """Newest retained entry at an epoch *before* ``current_epoch``.

        Returns ``(found, value, staleness)`` where ``staleness`` is the
        distance in epochs behind ``current_epoch``, enforced to be at
        most ``max_stale_epochs`` here — not just by the attached
        registry's eager reclaim.  Counts under ``serve.cache.stale_*``.
        """
        floor = int(current_epoch) - self.max_stale_epochs
        best_key = None
        for k in self._by_graph.get(graph, ()):
            if k[0] == endpoint and floor <= k[2] < current_epoch:
                if k[3] == canon and (best_key is None or k[2] > best_key[2]):
                    best_key = k
        if best_key is None:
            self._c_stale_misses.inc(endpoint=endpoint)
            return False, None, 0
        # Refresh recency without booking a fresh hit.
        value, _ = self._lru.peek(best_key, refresh=True)
        self._c_stale_hits.inc(endpoint=endpoint)
        return True, value, int(current_epoch) - best_key[2]

    def invalidate_graph(
        self,
        name: str,
        current_epoch: Optional[int] = None,
        dirty_partitions: Optional[Iterable[int]] = None,
    ) -> int:
        """Process one epoch bump for ``name``; returns entries reclaimed.

        Entries at ``current_epoch - 1`` whose recorded partition
        footprint is disjoint from ``dirty_partitions`` are promoted to
        the current epoch (still a fresh answer — no dirty partition
        contributed to them).  Only that epoch is promotable: each
        entry is judged against every batch exactly once, so a
        stale-tail survivor — already dirtied by an earlier batch —
        can never be re-keyed fresh by a later batch whose dirty set
        happens to miss it.  The rest age into the stale tail: the
        ``max_stale_epochs`` newest prior epochs are retained for
        stale-while-revalidate, older ones are reclaimed.  Without
        ``current_epoch`` the floor resolves from the newest cached
        epoch for the graph, so direct callers keep the stale tail
        instead of deleting it wholesale.
        """
        keys = self._by_graph.get(name)
        if not keys:
            return 0
        if current_epoch is None:
            current_epoch = max(k[2] for k in keys)
        cur = int(current_epoch)
        floor = cur - self.max_stale_epochs
        dirty = (
            None if dirty_partitions is None
            else frozenset(int(p) for p in dirty_partitions)
        )
        reclaimed = retained = promoted = 0
        for k in sorted(keys, key=lambda k: k[2]):
            if k[2] >= cur:
                continue
            value, footprint = self._lru.peek(k)
            clean = (
                k[2] == cur - 1
                and dirty is not None
                and (
                    not dirty
                    or (footprint is not None and footprint.isdisjoint(dirty))
                )
            )
            if clean:
                target = (k[0], k[1], cur, k[3])
                self._lru.pop(k)
                if target not in self._lru:
                    self.put(target, value, footprint)
                    promoted += 1
                else:
                    # A genuinely fresh entry already owns the target
                    # key; the displaced candidate is reclaimed.
                    reclaimed += 1
                continue
            if k[2] < floor:
                self._lru.pop(k)
                reclaimed += 1
            else:
                retained += 1
        if reclaimed:
            self._c_invalidated.inc(reclaimed)
        if retained:
            self._c_retained.inc(retained)
        if promoted:
            self._c_promoted.inc(promoted)
        return reclaimed

    def attach(self, graphs) -> "ResultCache":
        """Subscribe to a GraphRegistry's epoch bumps; returns self."""
        graphs.subscribe(self.invalidate_graph)
        return self

    # -- readings ----------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    @property
    def stale_hits(self) -> int:
        return int(self._c_stale_hits.total)

    @property
    def stale_misses(self) -> int:
        return int(self._c_stale_misses.total)

    @property
    def hit_rate(self) -> float:
        """Fresh-path hit rate: ``hits / (hits + misses)``.

        Stale (degraded) hits are a different service class and are
        accounted separately — see :attr:`stale_hit_rate`; neither pool
        double-counts the other's lookups.
        """
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    @property
    def stale_hit_rate(self) -> float:
        looked = self.stale_hits + self.stale_misses
        return self.stale_hits / looked if looked else 0.0

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._lru

    def index_consistent(self) -> bool:
        """Secondary index ≡ entries (the accounting tests' oracle)."""
        indexed = set()
        for name, keys in self._by_graph.items():
            if not keys or any(k[1] != name for k in keys):
                return False
            indexed |= keys
        return indexed == set(self._lru)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "entries": len(self._lru),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self._lru.evictions,
            "invalidated": int(self._c_invalidated.total),
            "retained": int(self._c_retained.total),
            "promoted": int(self._c_promoted.total),
            "max_stale_epochs": self.max_stale_epochs,
            "stale_hits": self.stale_hits,
            "stale_misses": self.stale_misses,
            "stale_hit_rate": self.stale_hit_rate,
        }
