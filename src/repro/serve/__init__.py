"""The serving layer: cached, batched, sharded address scoring.

One implementation, :class:`~repro.serve.cluster.ClusterScoringService`,
wraps a chain index, the graph-construction pipeline, and a trained
classifier behind one ``score(addresses)`` API: slice-graph and
embedding caching, incremental invalidation on block append,
deterministic address-prefix sharding
(:class:`~repro.serve.router.ShardRouter`) with per-shard locking,
inline or live multi-process miss construction with streamed
block-append ingestion, block-diagonal batched inference, an asyncio
front end that micro-batches concurrent requests, and warm-cache
persistence keyed by pipeline fingerprint and encoder version
(:class:`~repro.serve.store.CacheStore`).
:class:`~repro.serve.cluster.AddressScoringService` is the same service
pinned to one shard with inline construction.
"""

from repro.serve.cache import CacheKey, CacheStats, SliceGraphCache
from repro.serve.cluster import (
    AddressScoringService,
    ClusterConfig,
    ClusterScoringService,
    ScoringServiceConfig,
)
from repro.serve.router import ShardRouter
from repro.serve.service import AddressScore
from repro.serve.store import CacheStore, WarmState, encoder_version

__all__ = [
    "AddressScore",
    "AddressScoringService",
    "CacheKey",
    "CacheStats",
    "CacheStore",
    "ClusterConfig",
    "ClusterScoringService",
    "ScoringServiceConfig",
    "ShardRouter",
    "SliceGraphCache",
    "WarmState",
    "encoder_version",
]
