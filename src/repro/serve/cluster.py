"""``repro.serve.cluster`` — cached, sharded address scoring.

:class:`ClusterScoringService` is the one serving implementation;
:class:`AddressScoringService` is the same class pinned to one shard
with inline construction (:class:`ScoringServiceConfig`).  The offline
pipeline rebuilds every address graph on each query and runs one GNN
forward per graph; the service instead:

- **Shards.**  A :class:`~repro.serve.router.ShardRouter`
  deterministically partitions the address space by address-prefix hash
  into N shards.  Each shard owns its own
  :class:`~repro.chain.explorer.ChainIndex` slice
  (:meth:`~repro.chain.explorer.ChainIndex.sharded` — cut from the
  parent index's tables with one predicate call per address, never by
  replaying the chain, so start-up costs a table copy per shard), its own
  :class:`~repro.serve.cache.SliceGraphCache` of encoded slice graphs
  + embedding cache, its own
  :class:`~repro.graphs.pipeline.GraphConstructionPipeline`, and its
  own lock and version counter: the unit of replica scale-out, of
  warm-store bundling, and of query concurrency.
- **Caches slice graphs.**  Entries are keyed by ``(address,
  slice_index, pipeline fingerprint)``; completed slices of an
  append-only history never change, so warm queries skip construction
  and, through the embedding cache, even the GNN forward.
- **Builds misses in batches.**  Every miss path routes through
  :func:`~repro.gnn.data.build_encoded`, one call per shard with
  misses: Stages 1–4 run once over every slice graph of the call as
  one pack, and the pack is encoded in the same pass over the
  block-diagonal adjacency Stage 4 built (Eq. 12, plus the GFN
  feature propagation of Eq. 13).  The calling thread builds one
  shard's call itself: every call with ``num_workers == 0``, otherwise
  the call with the most requested slices, while the other calls fan
  out over a pool of *long-lived* ``multiprocessing`` workers
  (:class:`_WorkerPool`) that ship the
  :class:`~repro.gnn.data.EncodedGraph` ndarray columns back.
  Block appends are *streamed* to the workers as tail-replay messages
  over the same per-worker queues
  (:meth:`~repro.chain.explorer.ChainIndex.ingest_transactions`), so a
  warm pool survives chain growth instead of being re-forked per block;
  each worker holds and replays only the shard indexes it builds
  from.
  **Inference stays in the parent**: the trained model is loaded
  exactly once, and all shards' slice sequences share one
  block-diagonal GNN batch + one padded sequence-head pass
  (:mod:`repro.serve.service`), so scores are identical for every shard
  and worker count.
- **Locks per shard.**  The service lock only guards lifecycle state
  (chain subscription, pool/executor/batcher handles, the sync
  watermark).  Queries plan, build, and commit under the owning
  *shard's* lock with an optimistic version check — concurrent queries
  touching disjoint shards never contend, and a block append racing an
  in-flight query simply forces that query to re-plan against the
  post-append state (see :meth:`_Shard.commit_members`).
- **Invalidates incrementally.**  Block appends route each touched
  address to its owning shard and drop exactly the dirtied trailing
  slices there — computed from where the new transactions sort into the
  ``(timestamp, txid)``-ordered history — bumping the shard version so
  racing queries re-plan.  Growth observed *without* block events
  re-slices the shard indexes from the parent index tail before
  planning, so an unconnected service degrades to full rebuilds of
  grown addresses instead of serving stale history.
- **Persists warm state.**  :meth:`ClusterScoringService.save_warm`
  writes one :class:`~repro.serve.store.CacheStore` bundle per shard,
  keyed by ``(pipeline fingerprint, model version)``;
  :meth:`~ClusterScoringService.load_warm` re-routes every stored
  entry through the *current* router, so a store written with N shards
  can warm a service resharded to M.
- **Micro-batches async requests.**
  :meth:`~ClusterScoringService.async_score` runs queries on the
  service's own bounded executor (never the event loop's default one),
  and — by default — coalesces concurrent in-flight requests through a
  :class:`_MicroBatcher` window into one merged scoring pass: the
  cross-*request* analogue of the cross-address batching below it, with
  per-request results split back out bit-equal to serial scoring.

``score`` is thread-safe; the single-writer chain model still applies
to *appends* (one block producer at a time), but appends may race
in-flight queries — the per-shard version protocol linearizes them.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
from collections import deque
from collections.abc import Mapping
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from queue import Empty
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import obs
from repro.chain.block import Block
from repro.chain.chain import Blockchain
from repro.chain.explorer import ChainIndex
from repro.chain.store import ChainStore, StoreBackedChainIndex
from repro.errors import NotFittedError, ValidationError
from repro.gnn.data import EncodedGraph, build_encoded
from repro.graphs.pipeline import (
    GraphConstructionPipeline,
    GraphPipelineConfig,
)
from repro.serve.cache import (
    CacheStats,
    SliceGraphCache,
    embedding_cache_metrics,
    slice_cache_metrics,
)
from repro.serve.router import DEFAULT_PREFIX_LENGTH, ShardRouter
from repro.serve.service import (
    AddressScore,
    _class_name_mapping,
    _score_sequences,
    _unknown_addresses_error,
)
from repro.serve.store import CacheStore, WarmState, encoder_version

__all__ = [
    "AddressScoringService",
    "ClusterConfig",
    "ClusterScoringService",
    "ScoringServiceConfig",
]

#: Request-level registry metrics: one scoring pass == one request (the
#: micro-batcher may merge several callers into one).
_SERVE_REQUESTS = obs.counter("serve_requests_total")
_SERVE_ADDRESSES = obs.counter("serve_addresses_total")
_SERVE_SECONDS = obs.histogram("serve_request_seconds")
#: Requests refused for naming an address with no transactions on chain
#: (by :meth:`ClusterScoringService.score` or the micro-batcher).
_SERVE_UNKNOWN = obs.counter("serve_unknown_rejections_total")
#: Warm-store bundles :meth:`ClusterScoringService.load_warm` skipped as
#: unusable (corrupt or truncated): those shards start cold.
_SERVE_WARM_REJECTED = obs.counter("serve_warm_bundles_rejected_total")
#: Cluster-layer registry metrics (process-global; see ``repro.obs``):
#: the only record of pool, micro-batch and stage events.
_SHARD_LOCK_WAIT = obs.histogram("shard_lock_wait_seconds")
_SHARD_RETRIES = obs.counter("shard_version_retries_total")
_POOL_STARTS = obs.counter("pool_starts_total")
#: Live worker processes, process-wide: up on pool start, down on each
#: death the health check finds and on shutdown.
_POOL_WORKERS = obs.gauge("pool_workers")
_POOL_INGESTS = obs.counter("pool_ingest_batches_total")
_POOL_REMAPS = obs.counter("pool_remaps_total")
#: Shard builds submitted to the worker pool (the calling thread builds
#: one task of each pass itself; see ``ClusterScoringService._build``).
_POOL_BUILDS = obs.counter("pool_builds_total")
#: Worker processes found dead by the pool's health check (once each).
_POOL_DEATHS = obs.counter("pool_worker_deaths_total")
#: Worker builds that came back as an error instead of graphs.
_POOL_BUILD_FAILURES = obs.counter("pool_build_failures_total")
_MB_REQUESTS = obs.counter("micro_batch_requests_total")
_MB_BATCHES = obs.counter("micro_batches_total")
_MB_BATCHED = obs.counter("micro_batched_requests_total")


def _observe_lock_wait(wait_start: float) -> None:
    """Record time spent waiting on a shard lock.

    Called as the first statement inside ``with shard.lock`` blocks on
    the query path, with ``wait_start`` read just before the ``with``
    — the delta is the acquisition wait (plus nanoseconds of entry
    overhead), the operational signal for shard contention.
    """
    _SHARD_LOCK_WAIT.observe(time.perf_counter() - wait_start)


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster serving knobs.

    ``num_shards`` fixes the address-space partition (and the warm
    store's bundle layout); ``num_workers`` sizes the construction
    worker pool (0 builds misses in the parent process, still
    sharded).  With workers, the scoring thread still builds one
    shard's misses of each pass itself, the shard with the most
    requested slices, and the pool builds the other shards'; the pool
    starts on the first miss, even one that needs no worker.
    ``prefix_length`` feeds the router (see
    :class:`~repro.serve.router.ShardRouter`).  ``cache_capacity`` and
    ``embedding_cache_capacity`` are *per shard*.  ``start_method``
    overrides the ``multiprocessing`` start method (default: ``fork``
    when the platform offers it — workers then inherit the shard
    indexes copy-on-write instead of pickling them).

    The async front end: ``async_workers`` bounds the cluster's own
    query executor (:meth:`~ClusterScoringService.async_score` never
    touches the event loop's default executor); ``micro_batch`` turns
    the request-coalescing window on (default) or off;
    ``micro_batch_window`` is how long, in seconds, the first request
    of a batch waits for concurrent companions (0 coalesces only
    what is already queued); ``micro_batch_max_addresses`` caps the
    merged query size so one giant batch cannot stall latency for
    everyone behind it.

    ``store_dir`` switches the cluster onto the memory-mapped chain
    store (:mod:`repro.chain.store`): the directory is created/synced
    from the parent index at startup, shard slices become
    :class:`~repro.chain.store.StoreBackedChainIndex` views over the
    shared maps instead of deep-copied indexes, and block appends
    stream to workers as tail segments they remap from disk instead of
    pickled transaction payloads.  ``None`` (default) keeps the
    in-memory slices.
    """

    num_shards: int = 2
    num_workers: int = 0
    prefix_length: Optional[int] = DEFAULT_PREFIX_LENGTH
    cache_capacity: int = 4096
    graph_batch_size: int = 256
    sequence_batch_size: int = 64
    embedding_cache: bool = True
    embedding_cache_capacity: int = 65536
    start_method: Optional[str] = None
    async_workers: int = 4
    micro_batch: bool = True
    micro_batch_window: float = 0.002
    micro_batch_max_addresses: int = 1024
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValidationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.num_workers < 0:
            raise ValidationError(
                f"num_workers must be >= 0, got {self.num_workers}"
            )
        for field_name in (
            "cache_capacity",
            "graph_batch_size",
            "sequence_batch_size",
            "embedding_cache_capacity",
            "async_workers",
            "micro_batch_max_addresses",
        ):
            value = getattr(self, field_name)
            if value <= 0:
                raise ValidationError(
                    f"{field_name} must be > 0, got {value}"
                )
        if self.micro_batch_window < 0:
            raise ValidationError(
                f"micro_batch_window must be >= 0, got "
                f"{self.micro_batch_window}"
            )
        if self.start_method is not None and (
            self.start_method
            not in multiprocessing.get_all_start_methods()
        ):
            raise ValidationError(
                f"unknown multiprocessing start method "
                f"{self.start_method!r}"
            )


@dataclass(frozen=True)
class ScoringServiceConfig:
    """Knobs of the single-process :class:`AddressScoringService`.

    The fields mean what the :class:`ClusterConfig` fields of the same
    names mean and are validated by it: the service runs as a one-shard
    cluster that builds cache misses inline, so every other cluster
    knob keeps its default.
    """

    cache_capacity: int = 4096
    graph_batch_size: int = 256
    sequence_batch_size: int = 64
    embedding_cache: bool = True
    embedding_cache_capacity: int = 65536

    def __post_init__(self) -> None:
        self._cluster_config()  # raises ValidationError on a bad field

    def _cluster_config(self) -> ClusterConfig:
        return ClusterConfig(num_shards=1, num_workers=0, **asdict(self))


class _ShardMembership:
    """Picklable shard-membership predicate (a shard index's filter)."""

    def __init__(self, router: ShardRouter, shard_id: int):
        self.router = router
        self.shard_id = shard_id

    def __call__(self, address: str) -> bool:
        return self.router.shard_of(address) == self.shard_id


class _Shard:
    """One shard's private serving state plus its concurrency contract.

    All mutable serving state (index slice, caches, coverage, version)
    is guarded by ``lock``; ``version`` increments on every event that
    can change what a plan would conclude (block append, tail replay,
    trust reset), which is what lets queries plan and build *outside*
    the lock and detect interference at commit time.  Construction
    only reads the shard's index, so concurrent builds of one shard
    need no lock of their own.
    """

    __slots__ = (
        "shard_id",
        "index",
        "cache",
        "embeddings",
        "covered",
        "lock",
        "version",
    )

    #: Per-shard discipline, enforced by the ``lock-discipline`` rule:
    #: mutations of these attributes — through ``self`` here or through
    #: a ``shard``-named reference elsewhere in this file — must sit
    #: inside ``with <receiver>.lock``.
    _LOCK_GUARDED = {
        "lock": (
            "index",
            "cache",
            "embeddings",
            "covered",
            "version",
        ),
    }

    def __init__(
        self,
        shard_id: int,
        index: ChainIndex,
        config: ClusterConfig,
    ):
        self.shard_id = shard_id
        self.index = index
        self.cache: SliceGraphCache[EncodedGraph] = SliceGraphCache(
            config.cache_capacity, metrics=slice_cache_metrics()
        )
        self.embeddings: Optional[SliceGraphCache[np.ndarray]] = (
            SliceGraphCache(
                config.embedding_cache_capacity,
                metrics=embedding_cache_metrics(),
            )
            if config.embedding_cache
            else None
        )
        self.covered: Dict[str, int] = {}
        self.lock = threading.RLock()
        self.version = 0

    # -------------------------------------------------------------- #
    # Query protocol: plan -> (build outside the lock) -> commit
    # -------------------------------------------------------------- #

    def plan_members(
        self,
        members: Sequence[str],
        fingerprint: str,
        slice_size: int,
        connected: bool,
    ) -> Tuple[
        int,
        Dict[str, int],
        Dict[str, Tuple[Dict[int, EncodedGraph], List[int], int]],
    ]:
        """Plan every member address under one lock hold.

        Returns ``(version, counts, plans)`` where ``plans`` maps each
        address to its :meth:`_plan_address_locked` result and
        ``version`` is the shard version the whole plan is consistent
        with — :meth:`commit_members` refuses the results if
        the shard has moved on since.
        """
        wait_start = time.perf_counter()
        with self.lock:
            _observe_lock_wait(wait_start)
            version = self.version
            counts: Dict[str, int] = {}
            plans: Dict[
                str, Tuple[Dict[int, EncodedGraph], List[int], int]
            ] = {}
            for address in members:
                count = self.index.transaction_count(address)
                counts[address] = count
                plans[address] = self._plan_address_locked(
                    address, count, fingerprint, slice_size, connected
                )
            return version, counts, plans

    def _plan_address_locked(
        self,
        address: str,
        count: int,
        fingerprint: str,
        slice_size: int,
        connected: bool,
    ) -> Tuple[Dict[int, EncodedGraph], List[int], int]:
        """Split one address's slices into cache-served and to-build.

        The freshness protocol: coverage equal to the current
        transaction count trusts every cached slice; growth under a
        connected service trusts the slices invalidation left intact;
        growth without block events trusts nothing (there is no way to
        know where the new transactions sorted into the history).
        Known-stale slices are counted as misses without a lookup.

        Returns ``(reusable, missing, fresh_until)``.  ``fresh_until``
        marks the trusted region: a *missing* slice below it was merely
        evicted — its rebuild is content-identical, so derived state
        (embedding rows) keyed to it stays valid.
        """
        num_slices = -(-count // slice_size)
        covered = self.covered.get(address, 0)
        if covered > count:
            covered = 0  # not append-only growth: distrust everything
        if covered == count:
            fresh_until = num_slices
        elif connected:
            # on_block already dropped every dirtied slice (computed from
            # where the new transactions sort in), so whatever coverage
            # remains is exact.
            fresh_until = covered // slice_size
        else:
            fresh_until = 0
        reusable: Dict[int, EncodedGraph] = {}
        missing: List[int] = []
        for i in range(num_slices):
            if i < fresh_until:
                entry = self.cache.get((address, i, fingerprint))
                if entry is not None:
                    reusable[i] = entry
                    continue
            else:
                self.cache.note_miss()
            missing.append(i)
        return reusable, missing, fresh_until

    def commit_members(
        self,
        version: int,
        members: Sequence[str],
        plans: Dict[str, Tuple[Dict[int, EncodedGraph], List[int], int]],
        built: Dict[str, List[EncodedGraph]],
        counts: Dict[str, int],
        fingerprint: str,
    ) -> Optional[
        Tuple[Dict[str, List[EncodedGraph]], Set[Tuple[str, int]]]
    ]:
        """Commit one plan's build results, unless the shard moved on.

        Returns ``(sequences, untrusted)`` on success, or ``None`` when
        the shard version changed since :meth:`plan_members` — a block
        append or tail replay interleaved with the build, so both the
        plan and the built graphs may reflect a state that no longer
        exists; the caller re-plans.  This check is what linearizes
        appends against in-flight queries without holding any lock
        across construction.
        """
        wait_start = time.perf_counter()
        with self.lock:
            _observe_lock_wait(wait_start)
            if self.version != version:
                return None
            sequences: Dict[str, List[EncodedGraph]] = {}
            untrusted: Set[Tuple[str, int]] = set()
            for address in members:
                reusable, _missing, fresh_until = plans[address]
                by_slice = dict(reusable)
                for graph in built.get(address, ()):
                    self.cache.put(
                        (address, graph.slice_index, fingerprint), graph
                    )
                    by_slice[graph.slice_index] = graph
                    if graph.slice_index >= fresh_until:
                        untrusted.add((address, graph.slice_index))
                sequences[address] = [
                    by_slice[i] for i in sorted(by_slice)
                ]
                self.covered[address] = counts[address]
            return sequences, untrusted

    # -------------------------------------------------------------- #
    # Mutation events (each bumps the version racing plans check)
    # -------------------------------------------------------------- #

    def apply_block_locked(
        self,
        block: Block,
        touched: Dict[str, Tuple[float, str]],
        slice_size: int,
    ) -> None:
        """Ingest an appended block; the caller holds ``self.lock``.

        ``touched`` maps this shard's dirtied member addresses to the
        earliest new ``(timestamp, txid)`` key — each gets the
        insertion-point invalidation of :meth:`_invalidate_locked`, and
        any dirtied membership bumps
        the version so racing queries re-plan (including first-ever
        queries with no coverage yet, whose plans are equally stale).

        A store-backed slice (one exposing ``remap``) is read-only: the
        caller has already committed the block to the shared chain
        store, so the slice catches up by remapping the tail segments
        instead of ingesting transaction objects.
        """
        remap = getattr(self.index, "remap", None)
        if remap is not None:
            remap()
        else:
            self.index.on_block(block)
        if touched:
            self.version += 1
        for address, earliest_new in touched.items():
            self._invalidate_locked(address, earliest_new, slice_size)

    def _invalidate_locked(
        self,
        address: str,
        earliest_new: Tuple[float, str],
        slice_size: int,
    ) -> None:
        """Drop the cached slices a block append dirties for one address.

        The invalidation half of the freshness protocol: slices before
        the insertion point of the earliest new transaction keep their
        membership, so ``stale_from`` is computed from where the new
        transactions *sort into* the ``(timestamp, txid)``-ordered
        history.  Idempotent across repeated appends: already
        slice-aligned coverage is never eroded.  Graph entries and
        embedding rows drop together.
        """
        current = self.covered.get(address)
        if not current:
            return
        position = sum(
            1
            for record in self.index.records_for(address)
            if (record.timestamp, record.txid) < earliest_new
        )
        stale_from = min(current, position) // slice_size
        self.cache.invalidate_address(address, from_slice=stale_from)
        if self.embeddings is not None:
            self.embeddings.invalidate_address(
                address, from_slice=stale_from
            )
        self.covered[address] = min(current, stale_from * slice_size)

    def ingest_tail_locked(
        self, tail: Sequence[Tuple[object, int]]
    ) -> None:
        """Replay a parent-index tail; the caller holds ``self.lock``.

        Store-backed slices remap instead (the caller has already
        appended the tail to the shared chain store)."""
        remap = getattr(self.index, "remap", None)
        if remap is not None:
            if remap():
                self.version += 1
            return
        if self.index.ingest_transactions(tail):
            self.version += 1

    def reset_trust(self) -> None:
        """Drop caches and coverage (:meth:`ClusterScoringService.connect`
        re-establishing the trust baseline)."""
        with self.lock:
            self.version += 1
            self.cache.clear()
            if self.embeddings is not None:
                self.embeddings.clear()
            self.covered.clear()

    # -------------------------------------------------------------- #
    # Persistence
    # -------------------------------------------------------------- #

    def export_warm_state(self) -> WarmState:
        """Atomic warm snapshot of the caches plus coverage."""
        with self.lock:
            return WarmState(
                entries=[
                    (key[0], key[1], payload)
                    for key, payload in self.cache.export_entries()
                ],
                embeddings=(
                    [
                        (key[0], key[1], row)
                        for key, row in self.embeddings.export_entries()
                    ]
                    if self.embeddings is not None
                    else []
                ),
                covered=dict(self.covered),
            )

    def import_warm_state(
        self,
        state: WarmState,
        trusted: Set[str],
        fingerprint: str,
        embedding_fingerprint: str,
    ) -> int:
        """Import the ``trusted`` member addresses of one warm bundle.

        ``trusted`` holds this shard's addresses whose current
        transaction count still equals the bundle's recorded coverage
        (see :meth:`ClusterScoringService.load_warm`).  Returns the
        number of slice entries still *live* after the import: a bundle
        larger than the cache's capacity evicts its own oldest entries,
        which must not be reported as restored.
        """
        with self.lock:
            imported = []
            for address, slice_index, payload in state.entries:
                if address in trusted:
                    key = (address, slice_index, fingerprint)
                    self.cache.put(key, payload)
                    imported.append(key)
            if self.embeddings is not None:
                for address, slice_index, row in state.embeddings:
                    if address in trusted:
                        self.embeddings.put(
                            (address, slice_index, embedding_fingerprint),
                            row,
                        )
            for address in trusted:
                self.covered[address] = state.covered[address]
            return sum(1 for key in imported if key in self.cache)


# ---------------------------------------------------------------------- #
# Worker-process side
# ---------------------------------------------------------------------- #

#: How often the parent-side collector wakes to health-check workers.
_COLLECT_POLL_SECONDS = 0.5
#: How long shutdown waits for a worker/collector before terminating it.
_JOIN_TIMEOUT_SECONDS = 10.0


def _owned_indexes(
    indexes: Sequence[ChainIndex], worker_id: int, num_workers: int
) -> Dict[int, ChainIndex]:
    """The shard indexes worker ``worker_id`` builds from, by shard id:
    ``shard_id % num_workers == worker_id``, the routing of
    :meth:`_WorkerPool.submit`."""
    return {
        shard_id: index
        for shard_id, index in enumerate(indexes)
        if shard_id % num_workers == worker_id
    }


def _worker_main(
    indexes: Dict[int, ChainIndex],
    pipeline_config: GraphPipelineConfig,
    gfn_k: Optional[int],
    tasks,
    results,
) -> None:
    """Long-lived shard worker loop: build tasks and ingest messages.

    ``indexes`` holds only the shard indexes this worker owns (see
    :func:`_owned_indexes`), keyed by shard id.  One FIFO task queue
    per worker is the ordering contract the parent relies on: an
    ``ingest`` enqueued before a ``build`` is applied before it, so a
    build planned against post-append shard state is always constructed
    against post-append worker state.  ``ingest`` replays a
    ``(transaction, height)`` tail into every owned shard index
    (:meth:`~repro.chain.explorer.ChainIndex.ingest_transactions` —
    idempotent, so overlapping tails are safe); ``remap`` is the
    store-backed analogue — each owned
    :class:`~repro.chain.store.StoreBackedChainIndex` pulls the new
    tail segments straight from the mapped store directory, so nothing
    but the one-word message crosses the process boundary; ``build``
    runs the shard's miss construction and encoding as one packed pass
    (:func:`~repro.gnn.data.build_encoded`, which also fills the GFN
    ``gfn_k{k}`` caches when ``gfn_k`` is set) and ships the encoded
    graphs back on the shared result queue; ``stop`` exits the loop.

    Observability rides the same messages: each ``build`` carries the
    parent's trace context, the worker runs the construction under a
    ``worker.build`` span parented to it (encoding under a nested
    ``worker.encode`` span), and every result ships the
    worker's drained metric/span deltas back — no extra IPC.  The
    reset below matters under fork: the child inherits the parent's
    registry *values*, which must not be re-shipped as deltas.
    """
    obs.reset()
    while True:
        message = tasks.get()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "ingest":
            tail = message[1]
            for index in indexes.values():
                index.ingest_transactions(tail)
            continue
        if kind == "remap":
            for index in indexes.values():
                index.remap()
            continue
        _, seq, shard_id, requests, trace_context = message
        try:
            with obs.span_from_context("worker.build", trace_context):
                encoded = build_encoded(
                    GraphConstructionPipeline(pipeline_config),
                    indexes[shard_id],
                    dict(requests),
                    span="worker.encode",
                    gfn_k=gfn_k,
                )
            results.put((seq, encoded, None, obs.drain_for_shipping()))
        except Exception as error:  # repro: lint-ignore[broad-except]
            # Process boundary: the failure must travel back as data or
            # the parent's future never resolves.
            results.put(
                (
                    seq,
                    None,
                    f"{type(error).__name__}: {error}",
                    obs.drain_for_shipping(),
                )
            )


# ---------------------------------------------------------------------- #
# Parent-process side
# ---------------------------------------------------------------------- #


class _WorkerPool:
    """Long-lived construction workers fed over per-worker queues.

    Unlike a ``ProcessPoolExecutor`` snapshot-and-refork cycle, these
    workers live across block appends: the parent streams each append
    as an ``ingest`` message and the workers replay the tail into their
    local shard indexes in place.  Build tasks for a given shard are
    pinned to one worker (``shard_id % num_workers``), so the
    per-worker FIFO gives the parent a simple linearization guarantee —
    every build sees exactly the ingests enqueued before it.  A worker
    is handed only the shard indexes pinned to it, so an append costs
    each shard one replay in one worker.  The pool builds all but one
    task of a scoring pass: the calling thread builds the task with
    the most requested slices from the parent's own shard index (see
    :meth:`ClusterScoringService._build`), so a pass whose misses fall
    in one shard submits nothing.

    A single collector thread drains the shared result queue, resolves
    the matching futures, and fails the futures of any worker that died
    mid-build (worker death is otherwise an indefinite hang).
    """

    #: Collector/submitter shared state and its lock (lock-discipline).
    _LOCK_GUARDED = {
        "_lock": (
            "_pending",
            "_assigned",
            "_seq",
            "_closed",
            "_dead",
        ),
    }

    def __init__(
        self,
        num_workers: int,
        indexes: List[ChainIndex],
        pipeline_config: GraphPipelineConfig,
        gfn_k: Optional[int],
        context,
    ):
        self._tasks = [context.Queue() for _ in range(num_workers)]
        self._results = context.Queue()
        self._processes = [
            context.Process(
                target=_worker_main,
                args=(
                    _owned_indexes(indexes, worker_id, num_workers),
                    pipeline_config,
                    gfn_k,
                    self._tasks[worker_id],
                    self._results,
                ),
                daemon=True,
            )
            for worker_id in range(num_workers)
        ]
        for process in self._processes:
            process.start()
        _POOL_WORKERS.add(num_workers)
        self._lock = threading.Lock()
        self._pending: Dict[int, Future] = {}
        self._assigned: Dict[int, int] = {}
        self._seq = 0
        self._closed = False
        self._dead: Set[int] = set()
        self._collector = threading.Thread(
            target=self._collect,
            name="repro-cluster-pool-collector",
            daemon=True,
        )
        self._collector.start()

    def submit(
        self,
        shard_id: int,
        requests: Dict[str, List[int]],
        trace_context: Optional[Tuple[str, str]] = None,
    ) -> Future:
        """Queue one shard's miss-build; resolves to its encoded graphs.

        ``trace_context`` (the submitter's ``obs.current_context()``)
        rides inside the build message so the worker's construction
        span lands in the same request trace.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            seq = self._seq
            self._seq += 1
            worker_id = shard_id % len(self._processes)
            future: Future = Future()
            self._pending[seq] = future
            self._assigned[seq] = worker_id
        _POOL_BUILDS.inc()
        self._tasks[worker_id].put(
            ("build", seq, shard_id, requests, trace_context)
        )
        return future

    def send_ingest(
        self, tail: Sequence[Tuple[object, int]]
    ) -> None:
        """Stream a tail of appended transactions to every worker.

        Enqueued on each worker's task queue, so FIFO ordering relative
        to build tasks is preserved per worker.  Idempotent on the
        worker side (known txids are skipped), so the parent never has
        to reconcile which worker saw which tail.
        """
        if not tail:
            return
        with self._lock:
            if self._closed:
                return
        _POOL_INGESTS.inc()
        for tasks in self._tasks:
            tasks.put(("ingest", list(tail)))

    def send_remap(self) -> None:
        """Tell every worker to remap its store-backed shard indexes.

        The store-mode replacement for :meth:`send_ingest`: the
        appended transactions are already on disk as committed tail
        segments, so the message carries no payload at all — workers
        map the new segments and extend their member adjacency.  Same
        per-worker FIFO ordering contract: a build enqueued after this
        message sees the post-append store.
        """
        with self._lock:
            if self._closed:
                return
        _POOL_REMAPS.inc()
        for tasks in self._tasks:
            tasks.put(("remap",))

    def _collect(self) -> None:
        # Liveness is checked on a clock, not only when the queue goes
        # quiet: results streaming in from healthy workers must not
        # starve the check that fails a dead worker's in-flight builds.
        next_health_check = time.monotonic()
        while True:
            if time.monotonic() >= next_health_check:
                next_health_check = (
                    time.monotonic() + _COLLECT_POLL_SECONDS
                )
                self._fail_dead_workers()
            try:
                message = self._results.get(
                    timeout=_COLLECT_POLL_SECONDS
                )
            except Empty:
                with self._lock:
                    if self._closed:
                        return
                continue
            seq, encoded, error, obs_payload = message
            # Fold the worker's metric/span deltas in *before* the
            # future resolves, so a caller inspecting traces right
            # after ``score()`` returns sees the worker spans.
            obs.absorb(obs_payload)
            if error is not None:
                _POOL_BUILD_FAILURES.inc()
            with self._lock:
                future = self._pending.pop(seq, None)
                self._assigned.pop(seq, None)
            if future is None:
                continue
            if error is not None:
                future.set_exception(
                    RuntimeError(f"shard worker build failed: {error}")
                )
            else:
                future.set_result(encoded)

    def _fail_dead_workers(self) -> None:
        dead = {
            worker_id
            for worker_id, process in enumerate(self._processes)
            if not process.is_alive()
        }
        if not dead:
            return
        with self._lock:
            if self._closed:
                return  # workers exit on ``stop``: not a death
            newly_dead = dead - self._dead
            self._dead |= newly_dead
            lost = [
                (seq, self._pending.pop(seq))
                for seq, worker_id in list(self._assigned.items())
                if worker_id in dead and seq in self._pending
            ]
            for seq, _ in lost:
                self._assigned.pop(seq, None)
        if newly_dead:
            _POOL_DEATHS.inc(len(newly_dead))
            _POOL_WORKERS.add(-len(newly_dead))
        for seq, future in lost:
            future.set_exception(
                RuntimeError(
                    f"shard worker died with build #{seq} in flight"
                )
            )

    def shutdown(self) -> None:
        """Stop workers and the collector; fail any in-flight builds."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
            self._assigned.clear()
            alive = len(self._processes) - len(self._dead)
        _POOL_WORKERS.add(-alive)
        for future in pending:
            future.set_exception(
                RuntimeError("worker pool shut down with builds in flight")
            )
        for tasks in self._tasks:
            tasks.put(("stop",))
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT_SECONDS)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        self._collector.join(timeout=_JOIN_TIMEOUT_SECONDS)


class _BatchRequest:
    """One queued ``async_score`` call awaiting its coalesced batch."""

    __slots__ = ("addresses", "future")

    def __init__(self, addresses: List[str]):
        self.addresses = addresses
        self.future: Future = Future()


class _MicroBatcher:
    """Dynamic request coalescing for :meth:`ClusterScoringService.async_score`.

    Concurrent requests land in a queue; a single batcher thread wakes
    on the first arrival, sleeps the configured coalescing window so
    companions can join, then drains whatever is pending (up to the
    address cap) into one merged, deduplicated scoring pass — every
    request of the window shares one block-diagonal GNN batch and one
    padded sequence-head pass, the cross-request analogue of the
    cluster's cross-address batching.  The merged pass runs on the
    cluster's bounded query executor, so consecutive windows pipeline
    instead of serialising behind each other.

    Results split back out per request from the merged score dict —
    scoring is per-address and input-order-independent below the head,
    so micro-batched scores are identical to serial ones.  A request
    naming unknown addresses fails alone with the shared
    :func:`~repro.serve.service._unknown_addresses_error`; it never
    poisons the batch it happened to share a window with.
    """

    #: Queue state and the condition lock that guards it.
    _LOCK_GUARDED = {"_condition": ("_queue", "_closed")}

    def __init__(self, cluster: "ClusterScoringService"):
        self._cluster = cluster
        self._condition = threading.Condition()
        self._queue: "deque[_BatchRequest]" = deque()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run,
            name="repro-cluster-batcher",
            daemon=True,
        )
        self._thread.start()

    def enqueue(self, addresses: List[str]) -> Future:
        """Queue one request; resolves to its ``{address: AddressScore}``."""
        request = _BatchRequest(addresses)
        with self._condition:
            if self._closed:
                request.future.set_exception(
                    RuntimeError("cluster is closed")
                )
                return request.future
            self._queue.append(request)
            _MB_REQUESTS.inc()
            self._condition.notify()
        return request.future

    def shutdown(self) -> None:
        """Stop the batcher thread; queued requests fail rather than hang."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()
        self._thread.join(timeout=_JOIN_TIMEOUT_SECONDS)

    def _run(self) -> None:
        window = self._cluster.config.micro_batch_window
        limit = self._cluster.config.micro_batch_max_addresses
        while True:
            with self._condition:
                while not self._queue and not self._closed:
                    self._condition.wait()
                if self._closed:
                    drained = list(self._queue)
                    self._queue.clear()
                    for request in drained:
                        _fail_future(
                            request.future,
                            RuntimeError("cluster is closed"),
                        )
                    return
            if window > 0:
                # The coalescing window: give concurrent callers a
                # chance to join this batch before it is sealed.
                time.sleep(window)
            batch: List[_BatchRequest] = []
            total = 0
            with self._condition:
                while self._queue:
                    request = self._queue[0]
                    if batch and total + len(request.addresses) > limit:
                        break
                    self._queue.popleft()
                    batch.append(request)
                    total += len(request.addresses)
                _MB_BATCHES.inc()
                _MB_BATCHED.inc(len(batch))
            executor = self._cluster._ensure_async_executor()
            executor.submit(self._execute, batch)

    def _execute(self, batch: List[_BatchRequest]) -> None:
        """Run one sealed batch: validate, merge, score, split."""
        cluster = self._cluster
        valid: List[_BatchRequest] = []
        merged: List[str] = []
        seen: Set[str] = set()
        for request in batch:
            unique = list(dict.fromkeys(request.addresses))
            unknown = [
                a
                for a in unique
                if cluster.index.transaction_count(a) == 0
            ]
            if unknown:
                _SERVE_UNKNOWN.inc()
                _fail_future(
                    request.future, _unknown_addresses_error(unknown)
                )
                continue
            valid.append(request)
            for address in unique:
                if address not in seen:
                    seen.add(address)
                    merged.append(address)
        if not valid:
            return
        try:
            scores = cluster._score_addresses(merged)
        except Exception as error:  # repro: lint-ignore[broad-except]
            # Fan the failure out: every request of the merged pass gets
            # the real exception instead of an executor-swallowed hang.
            for request in valid:
                _fail_future(request.future, error)
            return
        for request in valid:
            result = {
                address: scores[address]
                for address in dict.fromkeys(request.addresses)
            }
            try:
                request.future.set_result(result)
            except InvalidStateError:
                pass  # caller cancelled while we were scoring


def _fail_future(future: Future, error: BaseException) -> None:
    """Fail ``future`` unless the caller already cancelled it."""
    try:
        future.set_exception(error)
    except InvalidStateError:
        pass


class ClusterScoringService:
    """Sharded, multi-process ``score(addresses)`` over a fitted model.

    Construction is spread over the calling thread and
    ``config.num_workers`` live worker processes (all inline with 0),
    state over ``config.num_shards``
    independently-locked shards, and an async front end micro-batches
    concurrent requests.  See the module docstring for the design.

    Parameters
    ----------
    classifier:
        A fitted :class:`~repro.core.BAClassifier` (trained or loaded).
    index:
        The chain index to read transaction histories from.
    chain:
        Optional chain to subscribe to for incremental invalidation;
        equivalent to calling :meth:`connect` afterwards.
    config:
        The :class:`ClusterConfig` (defaults to ``ClusterConfig()``).
    class_names:
        Optional ``{label: name}`` mapping (or label-indexed sequence)
        for human-readable results.

    Lock order (outermost first): service ``_lock`` → shard locks in
    ascending ``shard_id`` order → cache-internal leaf locks.  Queries
    hold at most one shard lock at a time and no lock at all during
    construction or inference.
    """

    #: Lifecycle state and the lock that guards it, enforced by the
    #: ``lock-discipline`` rule of :mod:`repro.analysis`: writes (and
    #: mutating calls) on these attributes must sit inside ``with
    #: self.<lock>``, except in ``__init__`` and in ``*_locked`` methods
    #: whose callers already hold the lock.  Query-path state lives in
    #: the shards, each under its own declared lock.
    _LOCK_GUARDED = {
        "_lock": (
            "_chain",
            "_pool",
            "_synced_transactions",
            "_async_executor",
            "_batcher",
            "_store",
        ),
    }

    def __init__(
        self,
        classifier,
        index: ChainIndex,
        chain: Optional[Blockchain] = None,
        config: Optional[ClusterConfig] = None,
        class_names: "Union[Mapping[int, str], Sequence[str], None]" = None,
    ):
        if not getattr(classifier, "is_fitted", False):
            raise NotFittedError(
                f"{type(self).__name__} needs a fitted (or loaded) "
                f"classifier"
            )
        self.classifier = classifier
        self.index = index
        self.config = config or ClusterConfig()
        self.router = ShardRouter(
            self.config.num_shards, self.config.prefix_length
        )
        self.pipeline_config = classifier.config.pipeline_config()
        self.fingerprint = self.pipeline_config.fingerprint()
        #: See :func:`~repro.serve.store.encoder_version`.
        self.model_version = encoder_version(classifier.encoder)
        self.embedding_fingerprint = (
            f"{self.fingerprint}:{self.model_version}"
        )
        self.class_names = _class_name_mapping(class_names)
        # Store mode: mirror the parent index into the mapped chain
        # store once, then give every shard a StoreBackedChainIndex
        # view over the *shared* maps — no deep-copied slices, and
        # workers (forked or respawned) read the same files.
        self._store: Optional[ChainStore] = None
        if self.config.store_dir is not None:
            self._store = ChainStore(self.config.store_dir, writable=True)
            self._store.sync_from_index(index)
        self.shards: List[_Shard] = [
            _Shard(
                shard_id,
                (
                    StoreBackedChainIndex(
                        self._store,
                        _ShardMembership(self.router, shard_id),
                    )
                    if self._store is not None
                    else index.sharded(
                        _ShardMembership(self.router, shard_id)
                    )
                ),
                self.config,
            )
            for shard_id in range(self.config.num_shards)
        ]
        self._synced_transactions = index.total_transactions()
        self._lock = threading.RLock()
        self._chain: Optional[Blockchain] = None
        self._pool: Optional[_WorkerPool] = None
        self._async_executor: Optional[ThreadPoolExecutor] = None
        self._batcher: Optional[_MicroBatcher] = None
        if chain is not None:
            self.connect(chain)

    # ------------------------------------------------------------------ #
    # Chain integration
    # ------------------------------------------------------------------ #

    def connect(self, chain: Blockchain) -> None:
        """Subscribe to ``chain`` so appends invalidate shard caches.

        Coverage built while not listening cannot be vouched for
        (appends may have gone unobserved), so connecting drops
        existing shard cache contents (a same-chain re-connect is a
        no-op and keeps everything warm).  Shard index slices are
        re-synced from the parent index first, in case it grew while
        unconnected.
        """
        with self._lock:
            if self._chain is chain:
                return
            if self._chain is not None:
                self.disconnect()
            if any(shard.covered for shard in self.shards):
                for shard in self.shards:
                    shard.reset_trust()
            self._refresh_stale_shards_locked()
            chain.add_listener(self.on_block)
            self._chain = chain

    def disconnect(self) -> None:
        """Unsubscribe from the connected chain (no-op when unconnected)."""
        with self._lock:
            if self._chain is not None:
                self._chain.remove_listener(self.on_block)
            self._chain = None

    def close(self) -> None:
        """Release resources: chain, batcher, query executor, worker pool.

        Teardown runs *outside* the service lock — joining worker
        processes can take a while, and the old design's
        shutdown-under-the-lock stalled the first post-append query
        behind a full pool teardown.  Order matters: the batcher stops
        producing first, then the query executor drains, then the pool
        (which running queries may still be submitting to), and in
        store mode the mapped segments are released last — every shard
        slice drops its adjacency and the shared store drops its
        memmaps, so no file handles outlive the service.
        """
        self.disconnect()
        with self._lock:
            batcher = self._batcher
            self._batcher = None
        if batcher is not None:
            batcher.shutdown()
        with self._lock:
            executor = self._async_executor
            self._async_executor = None
            pool = self._pool
            self._pool = None
        if executor is not None:
            executor.shutdown(wait=True)
        if pool is not None:
            pool.shutdown()
        with self._lock:
            store = self._store
            self._store = None
        if store is not None:
            for shard in self.shards:
                with shard.lock:
                    shard.index.close()
            store.close()

    def on_block(self, block: Block) -> None:
        """Feed the append to every shard index, then invalidate.

        Each touched address routes to its owning shard, where exactly
        the slices at or after the block's insertion point into that
        address's history are dropped (see
        :meth:`_Shard._invalidate_locked`) and the shard version is
        bumped so racing queries re-plan.  The same
        transactions are streamed to the live worker pool as an ingest
        message *inside* the shard-lock critical section: any query
        that observes the bumped version is therefore guaranteed its
        subsequent build tasks queue behind the ingest, which is what
        keeps worker-built graphs consistent with parent-side plans
        without re-forking anything.

        In store mode the block is first committed to the shared chain
        store as a tail segment (still inside the critical section),
        the shard slices remap from the maps, and the workers get a
        payload-free ``remap`` message instead of pickled transactions.
        """
        with self._lock:
            slice_size = self.pipeline_config.slice_size
            new_by_address: Dict[str, List[Tuple[float, str]]] = {}
            for tx in block.transactions:
                for address in tx.addresses():
                    new_by_address.setdefault(address, []).append(
                        (tx.timestamp, tx.txid)
                    )
            touched_by_shard: Dict[int, Dict[str, Tuple[float, str]]] = {}
            for address, keys in new_by_address.items():
                touched_by_shard.setdefault(
                    self.router.shard_of(address), {}
                )[address] = min(keys)
            for shard in self.shards:
                shard.lock.acquire()
            try:
                if self._store is not None:
                    self._store.append_block(block)
                for shard in self.shards:
                    shard.apply_block_locked(
                        block,
                        touched_by_shard.get(shard.shard_id, {}),
                        slice_size,
                    )
                self._synced_transactions = self.shards[
                    0
                ].index.total_transactions()
                if self._pool is not None:
                    if self._store is not None:
                        self._pool.send_remap()
                    else:
                        self._pool.send_ingest(
                            [
                                (tx, block.height)
                                for tx in block.transactions
                            ]
                        )
            finally:
                for shard in reversed(self.shards):
                    shard.lock.release()

    def _refresh_stale_shards_locked(self) -> None:
        """Catch shard indexes up when the parent index grew unobserved.

        While connected, :meth:`on_block` keeps every shard index in
        lock-step and this is a no-op.  Unobserved growth (appends
        before :meth:`connect`, or an unconnected cluster) replays only
        the parent index's *tail* into each shard
        (:meth:`~repro.chain.explorer.ChainIndex.transactions_since` /
        :meth:`~repro.chain.explorer.ChainIndex.ingest_transactions` —
        O(new transactions), not a from-scratch re-slice) and streams
        the same tail to the live workers; coverage trust is handled
        separately by the planning protocol
        (:meth:`_Shard._plan_address_locked`).  Caller holds the
        service lock.
        """
        if self.index.total_transactions() <= self._synced_transactions:
            return
        tail = self.index.transactions_since(self._synced_transactions)
        for shard in self.shards:
            shard.lock.acquire()
        try:
            if self._store is not None:
                self._store.append_transactions(tail)
            for shard in self.shards:
                shard.ingest_tail_locked(tail)
            self._synced_transactions = self.index.total_transactions()
            if self._pool is not None:
                if self._store is not None:
                    self._pool.send_remap()
                else:
                    self._pool.send_ingest(tail)
        finally:
            for shard in reversed(self.shards):
                shard.lock.release()

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def score(self, addresses: Sequence[str]) -> Dict[str, AddressScore]:
        """Score addresses: ``{address: AddressScore}`` in input order.

        Misses are planned per shard and built one task per shard
        with misses: the calling thread builds the largest task (every
        task with ``num_workers == 0``), the live worker pool the rest,
        and inference
        runs once in the parent over every shard's sequences — scores
        match across shard and worker counts to 1e-9.  Raises
        :class:`~repro.errors.ValidationError` for addresses with no
        transactions on chain.  Thread-safe: queries only serialise
        where they actually overlap — each plan/commit takes the owning
        shard's lock, so concurrent queries on disjoint shards proceed
        fully in parallel.
        """
        addresses = list(dict.fromkeys(addresses))
        if not addresses:
            return {}
        unknown = [
            a for a in addresses if self.index.transaction_count(a) == 0
        ]
        if unknown:
            _SERVE_UNKNOWN.inc()
            raise _unknown_addresses_error(unknown)
        return self._score_addresses(addresses)

    def score_one(self, address: str) -> AddressScore:
        """Score a single address."""
        return self.score([address])[address]

    async def async_score(
        self, addresses: Sequence[str]
    ) -> Dict[str, AddressScore]:
        """Asyncio front end: await a :meth:`score` without blocking
        the event loop.

        With ``config.micro_batch`` (the default) the request joins the
        cluster's coalescing window: concurrent in-flight requests are
        merged into one scoring pass (see :class:`_MicroBatcher`) whose
        per-request results are identical to serial scoring.  With
        micro-batching off, the query runs directly on the cluster's
        own bounded executor — never the event loop's default executor,
        which ``async_score`` must not compete over with unrelated
        loop work.
        """
        addresses = list(addresses)
        if self.config.micro_batch:
            return await asyncio.wrap_future(
                self._ensure_batcher().enqueue(addresses)
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._ensure_async_executor(), self.score, addresses
        )

    def _score_addresses(
        self, addresses: List[str]
    ) -> Dict[str, AddressScore]:
        """The shared query body: plan/build/commit per shard, then infer.

        Holds no lock during construction or inference.  Each shard's
        plan records the shard version; if an append interleaves before
        commit, that shard's results are discarded and re-planned — the
        optimistic-retry protocol that linearizes appends against
        in-flight queries (appends are rare relative to queries, so
        retries are too).
        """
        if not addresses:
            return {}
        request_start = time.perf_counter()
        with obs.span("serve.score"):
            _SERVE_REQUESTS.inc()
            _SERVE_ADDRESSES.inc(len(addresses))
            scores = self._score_addresses_traced(addresses)
        _SERVE_SECONDS.observe(time.perf_counter() - request_start)
        # Ship the request's batched cache hit/miss deltas into the
        # registry.  Only the shards this request touched: taking every
        # shard's lock here would reintroduce exactly the cross-shard
        # contention the per-shard locking design removed.
        for shard_id in sorted(self.router.partition(addresses)):
            shard = self.shards[shard_id]
            with shard.lock:
                shard.cache.flush_metrics()
                if shard.embeddings is not None:
                    shard.embeddings.flush_metrics()
        return scores

    def _score_addresses_traced(
        self, addresses: List[str]
    ) -> Dict[str, AddressScore]:
        """The :meth:`_score_addresses` body, run under ``serve.score``."""
        with self._lock:
            self._refresh_stale_shards_locked()
            connected = self._chain is not None
        slice_size = self.pipeline_config.slice_size
        sequences: Dict[str, List[EncodedGraph]] = {}
        untrusted: Set[Tuple[str, int]] = set()
        pending = {
            shard_id: list(members)
            for shard_id, members in self.router.partition(
                addresses
            ).items()
        }
        while pending:
            plans = {}
            to_build: Dict[int, Dict[str, List[int]]] = {}
            with obs.span("serve.plan"):
                for shard_id, members in sorted(pending.items()):
                    shard = self.shards[shard_id]
                    version, counts, shard_plans = shard.plan_members(
                        members, self.fingerprint, slice_size, connected
                    )
                    plans[shard_id] = (version, counts, shard_plans)
                    missing = {
                        address: plan[1]
                        for address, plan in shard_plans.items()
                        if plan[1]
                    }
                    if missing:
                        to_build[shard_id] = missing
            built = self._build(to_build)
            retry = {}
            with obs.span("serve.commit"):
                for shard_id, members in sorted(pending.items()):
                    shard = self.shards[shard_id]
                    version, counts, shard_plans = plans[shard_id]
                    committed = shard.commit_members(
                        version,
                        members,
                        shard_plans,
                        built,
                        counts,
                        self.fingerprint,
                    )
                    if committed is None:
                        _SHARD_RETRIES.inc()
                        retry[shard_id] = members
                        continue
                    shard_sequences, shard_untrusted = committed
                    sequences.update(shard_sequences)
                    untrusted |= shard_untrusted
            pending = retry

        # Inference — parent process only, model loaded once: one
        # block-diagonal GNN pass + one padded sequence-head pass over
        # every shard's sequences, in input address order.
        return _score_sequences(
            self.classifier,
            addresses,
            sequences,
            untrusted,
            lambda address: self.shards[
                self.router.shard_of(address)
            ].embeddings,
            self.embedding_fingerprint,
            self.config.graph_batch_size,
            self.config.sequence_batch_size,
            self.class_names,
        )

    def _build(
        self, to_build: Dict[int, Dict[str, List[int]]]
    ) -> Dict[str, List[EncodedGraph]]:
        """Construct all missing slices, one task per shard with misses.

        The calling thread builds one task itself: with
        ``num_workers == 0`` every task, otherwise the task with the
        most requested slices (ties to the lowest shard id), after
        submitting every other task to the worker pool; their results
        are collected once the inline build is done.  A one-shard pass
        therefore never crosses a process boundary, and a k-shard pass
        ships k-1 payloads while the caller builds the largest.  Inline
        builds read the parent's shard index without a lock (a racing
        append is caught at commit), so concurrent callers build
        concurrently, even on one shard.
        """
        built: Dict[str, List[EncodedGraph]] = {}
        if not to_build:
            return built
        local = sorted(to_build.items())
        futures: List[Future] = []
        pool = self._ensure_pool() if self.config.num_workers > 0 else None
        with obs.span("serve.build"):
            if pool is not None:
                # ``max`` keeps the first of equals: the lowest shard id.
                largest = max(
                    local,
                    key=lambda task: sum(map(len, task[1].values())),
                )
                trace_context = obs.current_context()
                futures = [
                    pool.submit(shard_id, requests, trace_context)
                    for shard_id, requests in local
                    if shard_id != largest[0]
                ]
                local = [largest]
            for shard_id, requests in local:
                built.update(
                    build_encoded(
                        GraphConstructionPipeline(self.pipeline_config),
                        self.shards[shard_id].index,
                        requests,
                        span="serve.encode",
                        gfn_k=getattr(self.classifier.encoder, "k", None),
                    )
                )
            for future in futures:
                built.update(future.result())
        return built

    def _ensure_pool(self) -> _WorkerPool:
        """The live worker pool, started lazily on the first miss.

        Started under the service lock, so the fork (or spawn)
        snapshots the shard indexes at a consistent sync point — every
        append after this instant reaches the workers as an ingest
        message instead of a re-fork.  ``pool_starts_total`` counts
        these starts; steady-state serving should see exactly 1.
        """
        pool = self._pool
        if pool is not None:
            return pool
        with self._lock:
            if self._pool is None:
                method = self.config.start_method
                if method is None and (
                    "fork" in multiprocessing.get_all_start_methods()
                ):
                    method = "fork"
                context = multiprocessing.get_context(method)
                self._pool = _WorkerPool(
                    self.config.num_workers,
                    [shard.index for shard in self.shards],
                    self.pipeline_config,
                    getattr(self.classifier.encoder, "k", None),
                    context,
                )
                _POOL_STARTS.inc()
            return self._pool

    def _ensure_async_executor(self) -> ThreadPoolExecutor:
        """The cluster's own bounded query executor (lazy, closed in
        :meth:`close`) — ``async_score`` never borrows the event
        loop's default executor."""
        executor = self._async_executor
        if executor is not None:
            return executor
        with self._lock:
            if self._async_executor is None:
                self._async_executor = ThreadPoolExecutor(
                    max_workers=self.config.async_workers,
                    thread_name_prefix="repro-cluster-query",
                )
            return self._async_executor

    def _ensure_batcher(self) -> _MicroBatcher:
        batcher = self._batcher
        if batcher is not None:
            return batcher
        with self._lock:
            if self._batcher is None:
                self._batcher = _MicroBatcher(self)
            return self._batcher

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> CacheStats:
        """Aggregate slice-cache counters across every shard."""
        return CacheStats.combined(
            shard.cache.stats for shard in self.shards
        )

    @property
    def embedding_stats(self) -> Optional[CacheStats]:
        """Aggregate embedding-cache counters (None when disabled)."""
        if not self.config.embedding_cache:
            return None
        return CacheStats.combined(
            shard.embeddings.stats
            for shard in self.shards
            if shard.embeddings is not None
        )

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-shard breakdown: counters plus entry/byte occupancy."""
        rows = []
        for shard in self.shards:
            row = dict(shard.cache.stats.snapshot())
            row["shard"] = shard.shard_id
            row["entries"] = len(shard.cache)
            row["nbytes"] = shard.cache.nbytes
            rows.append(row)
        return rows

    # ------------------------------------------------------------------ #
    # Warm persistence
    # ------------------------------------------------------------------ #

    def save_warm(self, directory: "str | Path") -> Path:
        """Persist every shard's warm caches; returns the store directory.

        One :class:`~repro.serve.store.CacheStore` bundle per shard
        (``shard_0000`` …) under the ``(pipeline fingerprint, model
        version)`` key — see :mod:`repro.serve.store` for the layout
        and trust protocol.
        """
        with self._lock:
            store = CacheStore(
                directory, self.fingerprint, self.model_version
            )
            for shard in self.shards:
                store.save_warm(
                    f"shard_{shard.shard_id:04d}",
                    shard.export_warm_state(),
                )
            return store.directory

    def load_warm(self, directory: "str | Path") -> int:
        """Restore warm shard caches saved under ``directory``.

        Every bundle under this cluster's store key is loaded and each
        entry re-routed through the *current* router, so restores
        survive resharding.  A bundle that fails to load — corrupt,
        truncated by a crashed save — is skipped, so an unusable store
        degrades to a cold start instead of a crashed one.  Only
        addresses whose current transaction count
        matches the recorded coverage are trusted; the rest rebuild
        cold.  Call after :meth:`connect` (connecting drops coverage by
        design).  Returns the number of slice entries restored.
        """
        with self._lock:
            store = CacheStore(
                directory, self.fingerprint, self.model_version
            )
            restored = 0
            for name in store.bundle_names():
                try:
                    state = store.load_warm(name)
                except ValidationError:
                    _SERVE_WARM_REJECTED.inc()
                    continue  # unusable bundle: rebuild cold
                if state is None:
                    continue
                trusted = [
                    address
                    for address, count in state.covered.items()
                    if count == self.index.transaction_count(address)
                ]
                for shard_id, members in self.router.partition(
                    trusted
                ).items():
                    restored += self.shards[shard_id].import_warm_state(
                        state,
                        set(members),
                        self.fingerprint,
                        self.embedding_fingerprint,
                    )
            return restored


class AddressScoringService(ClusterScoringService):
    """Serve ``score(addresses)`` queries from one process.

    A one-shard :class:`ClusterScoringService` that builds cache misses
    inline: the same planning, caching, invalidation, warm persistence,
    async front end and stats, configured by a
    :class:`ScoringServiceConfig` instead of a :class:`ClusterConfig`
    (``self.config`` holds the cluster config it maps to).
    """

    def __init__(
        self,
        classifier,
        index: ChainIndex,
        chain: Optional[Blockchain] = None,
        config: Optional[ScoringServiceConfig] = None,
        class_names: "Union[Mapping[int, str], Sequence[str], None]" = None,
    ):
        super().__init__(
            classifier,
            index,
            chain=chain,
            config=(config or ScoringServiceConfig())._cluster_config(),
            class_names=class_names,
        )

    @property
    def cache(self) -> SliceGraphCache[EncodedGraph]:
        """The slice-graph cache of the service's only shard."""
        return self.shards[0].cache
