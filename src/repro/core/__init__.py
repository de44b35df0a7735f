"""The paper's contribution: chunk-based caching of multidimensional queries.

Chunk geometry (:mod:`~repro.chunks.ranges`, :mod:`~repro.chunks.grid`,
:mod:`~repro.chunks.closure`), the chunk cache with benefit-weighted
replacement (:mod:`~repro.core.cache`, :mod:`~repro.core.replacement`),
the middle-tier cache manager (:mod:`~repro.core.manager`), the
query-level caching baseline (:mod:`~repro.core.query_cache`) and the
evaluation metrics (:mod:`~repro.core.metrics`).
"""

from repro.core.cache import ChunkCache, ChunkCacheStats
from repro.core.chunk import CachedChunk, CachedQuery, ChunkKey
from repro.chunks.closure import (
    source_chunk_count,
    source_chunk_numbers,
    source_spans,
)
from repro.chunks.grid import ChunkGrid, ChunkSpace
from repro.core.manager import Answer, ChunkCacheManager
from repro.core.metrics import QueryRecord, StreamMetrics
from repro.core.query_cache import QueryCacheManager
from repro.chunks.ranges import (
    ChunkRange,
    DimensionChunking,
    create_chunk_ranges,
    desired_sizes_for_ratio,
    uniform_division,
)
from repro.core.replacement import (
    BenefitClockPolicy,
    ClockPolicy,
    LRUPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.core.snapshot import (
    ChunkCacheSnapshot,
    FaultStats,
    GroupByUsage,
    QueryCacheSnapshot,
    ShapeUsage,
    Snapshot,
)

__all__ = [
    "ChunkRange",
    "uniform_division",
    "create_chunk_ranges",
    "desired_sizes_for_ratio",
    "DimensionChunking",
    "ChunkGrid",
    "ChunkSpace",
    "source_spans",
    "source_chunk_numbers",
    "source_chunk_count",
    "ChunkKey",
    "CachedChunk",
    "CachedQuery",
    "ChunkCache",
    "ChunkCacheStats",
    "ReplacementPolicy",
    "LRUPolicy",
    "ClockPolicy",
    "BenefitClockPolicy",
    "make_policy",
    "Answer",
    "ChunkCacheManager",
    "QueryCacheManager",
    "QueryRecord",
    "StreamMetrics",
    "ChunkCacheSnapshot",
    "FaultStats",
    "GroupByUsage",
    "QueryCacheSnapshot",
    "ShapeUsage",
    "Snapshot",
]
