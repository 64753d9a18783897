"""LRU cache of slice-graph payloads for the scoring service.

Graph construction dominates the cost of scoring an address (paper
Table V), and completed transaction slices never change on an
append-only chain — so the serving layer caches per-slice payloads
keyed by ``(address, slice_index, pipeline-config fingerprint)``.  The
fingerprint component guarantees that services built over different
construction parameters never share entries.

The cache is payload-agnostic: entries may be compact columnar
:class:`~repro.graphs.arrays.ArrayGraph` slices, fully encoded
:class:`~repro.gnn.data.EncodedGraph` tensors (what each shard of
:class:`~repro.serve.cluster.ClusterScoringService` stores, built
zero-copy from the arrays), per-slice embedding rows (the
encoder-version-keyed embedding cache of the serving layer), or
anything else keyed the same way.  Payloads exposing an ``nbytes``
attribute (both graph flavours and ndarrays do) are byte-accounted for
*observability*: ``cache.nbytes`` tracks the tensor bytes of live
entries so operators can see what a given ``capacity`` costs in
memory.  Eviction itself remains entry-count LRU, and the figure counts
array buffers only (an object-dtype ``refs`` column contributes its
pointers, not the string contents).

The byte total is maintained *incrementally*: each entry's size is
recorded at insertion and refreshed whenever the entry is next looked
up, so reading ``nbytes`` is O(1) no matter how many entries a large
shard cache holds.  Payloads that grow after insertion (models memoise
propagated features into cached entries) are therefore re-counted on
their next :meth:`~SliceGraphCache.get` — which every serving path
performs before using an entry.

Every public method is internally serialised on one re-entrant lock, so
the cache is safe to share between threads (the streaming serving path
reads embedding caches during inference while other queries plan and
commit).  The lock is a *leaf* in the serving layer's lock order —
cache methods never call out while holding it — so holding a service or
shard lock around a cache call can never deadlock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Dict,
    Generic,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.errors import ValidationError

__all__ = [
    "CacheKey",
    "CacheStats",
    "CacheMetrics",
    "SliceGraphCache",
    "slice_cache_metrics",
    "embedding_cache_metrics",
]

#: ``(address, slice_index, pipeline fingerprint)``.
CacheKey = Tuple[str, int, str]

#: The cached payload type (ArrayGraph, EncodedGraph, ...).
P = TypeVar("P")


@dataclass
class CacheStats:
    """Running counters of cache behaviour.

    ``hits``/``misses`` count slice-graph lookups; ``evictions`` counts
    LRU capacity evictions; ``invalidations`` counts entries dropped
    because new blocks touched their address.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of the counters (safe to diff across calls)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    @staticmethod
    def combined(stats: "Iterable[CacheStats]") -> "CacheStats":
        """Element-wise sum of several counters (shard-aware totals).

        The cluster serving layer keeps one cache per shard; this is
        how its aggregate ``stats`` view is produced without giving up
        the per-shard breakdown.
        """
        total = CacheStats()
        for item in stats:
            total.hits += item.hits
            total.misses += item.misses
            total.evictions += item.evictions
            total.invalidations += item.invalidations
        return total


class CacheMetrics(NamedTuple):
    """Registry counters a cache increments alongside its ``stats``.

    The per-cache :class:`CacheStats` object stays the source of
    per-instance truth (shard breakdowns, hit rates), which the
    unlabelled registry cannot give; the
    bound registry counters aggregate the same events across every
    cache of the same tier into the process-global
    :mod:`repro.obs` registry, which is what gets exported.
    """

    hits: obs.Counter
    misses: obs.Counter
    evictions: obs.Counter
    invalidations: obs.Counter


def slice_cache_metrics() -> CacheMetrics:
    """Registry counters for the encoded-slice-graph cache tier."""
    return CacheMetrics(
        hits=obs.counter("cache_slice_hits_total"),
        misses=obs.counter("cache_slice_misses_total"),
        evictions=obs.counter("cache_slice_evictions_total"),
        invalidations=obs.counter("cache_slice_invalidations_total"),
    )


def embedding_cache_metrics() -> CacheMetrics:
    """Registry counters for the per-slice embedding cache tier."""
    return CacheMetrics(
        hits=obs.counter("cache_embedding_hits_total"),
        misses=obs.counter("cache_embedding_misses_total"),
        evictions=obs.counter("cache_embedding_evictions_total"),
        invalidations=obs.counter("cache_embedding_invalidations_total"),
    )


def _payload_nbytes(payload) -> int:
    """Best-effort byte size of a payload (0 when it does not report one)."""
    return int(getattr(payload, "nbytes", 0) or 0)


class SliceGraphCache(Generic[P]):
    """Bounded LRU cache of per-slice graph payloads.

    Lookups refresh recency; inserts beyond ``capacity`` evict the least
    recently used entry.  A per-address key index makes invalidation
    O(cached slices of that address), which is what keeps block-append
    invalidation incremental.  ``nbytes`` reports the tensor bytes held
    by the live payloads in O(1): per-entry sizes are recorded at
    insertion, kept as a running total, and refreshed per entry on
    lookup (so post-insertion payload growth — models memoising
    propagated features — is picked up the next time the entry is
    served).  The figure informs sizing but does not drive eviction,
    which is entry-count LRU.
    """

    def __init__(self, capacity: int = 4096,
                 metrics: Optional[CacheMetrics] = None):
        if capacity <= 0:
            raise ValidationError(f"capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._metrics = metrics
        #: Hit/miss deltas not yet pushed into the registry counters.
        #: The lookup fast path bumps these plain ints under the mutex
        #: it already holds; :meth:`flush_metrics` ships them in one
        #: locked increment per counter instead of one per slice.
        self._pending_hits = 0
        self._pending_misses = 0
        #: Leaf lock: serialises every public method, never held across
        #: a call out of the cache.  RLock so ``import_entries`` can
        #: route through ``put``.
        self._mutex = threading.RLock()
        self._entries: "OrderedDict[CacheKey, P]" = OrderedDict()
        self._by_address: Dict[str, Set[CacheKey]] = {}
        self._entry_nbytes: Dict[CacheKey, int] = {}
        self._nbytes = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._mutex:
            return key in self._entries

    @property
    def nbytes(self) -> int:
        """Bytes held by live payloads (0 for payloads without ``nbytes``).

        O(1): the running total of the recorded per-entry sizes, not a
        sweep over the entries.
        """
        with self._mutex:
            return self._nbytes

    def get(self, key: CacheKey) -> Optional[P]:
        """The cached payload at ``key`` (refreshing recency), or None."""
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                self._pending_misses += 1
                return None
            self._entries.move_to_end(key)
            self._record_nbytes(key, entry)
            self.stats.hits += 1
            self._pending_hits += 1
            return entry

    def note_miss(self, count: int = 1) -> None:
        """Count ``count`` lookups the caller skipped as known-stale."""
        with self._mutex:
            self.stats.misses += count
            self._pending_misses += count

    def flush_metrics(self) -> None:
        """Push batched hit/miss deltas into the registry counters.

        The serving layer calls this once per scoring request: lookups
        are per-slice (hundreds per warm request), so incrementing the
        lock-striped registry counters inline would tax the hot path —
        the ``obs_overhead_pct`` budget of the serving benchmark.
        Deltas accumulated while the registry is disabled are dropped
        here (``inc`` no-ops), matching the drop-when-disabled
        semantics of every other metric update.
        """
        if self._metrics is None:
            return
        with self._mutex:
            hits, self._pending_hits = self._pending_hits, 0
            misses, self._pending_misses = self._pending_misses, 0
        if hits:
            self._metrics.hits.inc(hits)
        if misses:
            self._metrics.misses.inc(misses)

    def put(self, key: CacheKey, payload: P) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries over capacity."""
        with self._mutex:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = payload
            self._record_nbytes(key, payload)
            self._by_address.setdefault(key[0], set()).add(key)
            while len(self._entries) > self.capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                self._drop_accounting(evicted_key)
                self._discard_address_key(evicted_key)
                self.stats.evictions += 1
                if self._metrics is not None:
                    self._metrics.evictions.inc()

    def invalidate_address(self, address: str, from_slice: int = 0) -> int:
        """Drop cached slices of ``address`` with index >= ``from_slice``.

        Returns the number of entries dropped.  ``from_slice=0`` drops
        everything cached for the address.
        """
        with self._mutex:
            keys = self._by_address.get(address)
            if not keys:
                return 0
            stale = [key for key in keys if key[1] >= from_slice]
            for key in stale:
                del self._entries[key]
                self._drop_accounting(key)
                keys.discard(key)
            if not keys:
                del self._by_address[address]
            self.stats.invalidations += len(stale)
            if self._metrics is not None:
                self._metrics.invalidations.inc(len(stale))
            return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._mutex:
            self._entries.clear()
            self._by_address.clear()
            self._entry_nbytes.clear()
            self._nbytes = 0

    def export_entries(self) -> List[Tuple[CacheKey, P]]:
        """Snapshot every live entry as ``(key, payload)`` pairs.

        Ordered least- to most-recently used, so importing the list
        elsewhere (:meth:`import_entries`) reproduces the recency
        ranking — the persistence path of the warm-cache store.
        """
        with self._mutex:
            return list(self._entries.items())

    def import_entries(self, entries: Iterable[Tuple[CacheKey, P]]) -> int:
        """Insert ``(key, payload)`` pairs (a prior :meth:`export_entries`).

        Regular inserts: capacity eviction applies, recency follows
        iteration order, and statistics count neither hits nor misses.
        Returns the number of imported entries still *live* afterwards
        — an import larger than ``capacity`` evicts its own oldest
        entries, and reporting those as restored would overstate how
        warm the cache actually is.
        """
        with self._mutex:
            keys = []
            for key, payload in entries:
                self.put(key, payload)
                keys.append(key)
            return sum(1 for key in keys if key in self._entries)

    def _record_nbytes(self, key: CacheKey, payload: P) -> None:
        size = _payload_nbytes(payload)
        self._nbytes += size - self._entry_nbytes.get(key, 0)
        self._entry_nbytes[key] = size

    def _drop_accounting(self, key: CacheKey) -> None:
        self._nbytes -= self._entry_nbytes.pop(key, 0)

    def _discard_address_key(self, key: CacheKey) -> None:
        keys = self._by_address.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_address[key[0]]
