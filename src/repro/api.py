"""The stable public facade: build a caching stack from one config.

Composing a working middle tier takes four layers in the right order —
schema → chunk geometry → loaded backend → cache → manager — and every
composition root used to wire them by hand (and drift apart in how).
This module is the one supported way in:

- :func:`build_stack` returns a fully wired :class:`Stack` (schema,
  chunk space, backend, cache, manager) for either caching scheme,
  driven by a frozen :class:`StackConfig`;
- :func:`build_backend` and :func:`build_cache` expose the two layers
  experiments sometimes need individually (multiple engines over one
  fact table, a shared sharded cache).

Everything here is **stable** API (see ``docs/API.md`` for the tier
definitions); the constructors it wraps remain importable but are
internal — reprolint rule R007 keeps in-tree composition roots on this
facade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.cost import CostModel
from repro.backend.engine import BackendEngine
from repro.chunks.grid import ChunkSpace
from repro.core.cache import ChunkCache, ChunkStore
from repro.core.chunk import CachedChunk, ChunkKey
from repro.core.manager import ChunkCacheManager
from repro.core.tiered import TieredChunkCache
from repro.core.query_cache import QueryCacheManager
from repro.exceptions import ChunkLogError, StackError
from repro.schema.star import StarSchema
from repro.serve.sharded import ShardedChunkCache
from repro.storage.chunklog import ChunkLog

__all__ = [
    "CHUNK",
    "QUERY",
    "Stack",
    "StackConfig",
    "build_backend",
    "build_cache",
    "build_stack",
]

#: The paper's chunk-based caching scheme.
CHUNK = "chunk"
#: The query-level (containment) caching baseline.
QUERY = "query"


@dataclass(frozen=True)
class StackConfig:
    """Everything :func:`build_stack` needs beyond schema and data.

    Attributes:
        scheme: ``"chunk"`` (the paper's scheme) or ``"query"`` (the
            containment baseline).
        chunk_ratio: Chunk-size ratio for the chunk geometry (only used
            when no pre-built :class:`~repro.chunks.grid.ChunkSpace` is
            supplied).
        organization: Backend file organization (``"chunked"`` or
            ``"random"``); the chunk scheme requires ``"chunked"``.
        page_size: Backend page size in bytes.
        buffer_pool_pages: Backend buffer-pool capacity in pages.
        cache_bytes: Cache byte budget.
        policy: Replacement policy name (``"lru"``, ``"clock"``,
            ``"benefit"``).
        num_shards: ``0`` builds a plain
            :class:`~repro.core.cache.ChunkCache`; ``>= 1`` builds a
            :class:`~repro.serve.ShardedChunkCache` with that many
            shards.  Chunk scheme only.
        aggregate_in_cache: Enable in-cache derivation (Section 7).
        prefetch_drilldown: Enable drill-down prefetching (implies
            derivation).  Chunk scheme only.
        cache_tiers: ``1`` (the default — the historical in-memory-only
            cache, byte-for-byte unchanged) or ``2`` — the L1 store is
            wrapped in a :class:`~repro.core.tiered.TieredChunkCache`
            whose persistent L2 tier absorbs high-benefit evictions and
            promotes them back on demand (see ``docs/TIERING.md``).
            Chunk scheme only.
        persist_path: Backing file for the 2-tier chunk log.  ``None``
            keeps the log in memory (same semantics, no restart
            survival); only meaningful with ``cache_tiers=2``.  A
            pre-existing log is replayed and its manifest warms L1.
        demote_min_benefit: Minimum benefit an L1 eviction victim needs
            to be spilled to L2 (2-tier only); lower-value victims are
            dropped exactly as the 1-tier cache drops them.
        l2_budget_bytes: Cap on live payload bytes in the L2 backend;
            over-budget spills evict the lowest-benefit live records
            first (see ``docs/TIERING.md``).  ``None`` = unbounded.
            2-tier only.
        compact_threshold: Dead-space page ratio in (0, 1] at which
            the tiered cache triggers a compaction of the log.  ``None``
            = never compact.  2-tier only.
    """

    scheme: str = CHUNK
    chunk_ratio: float = 0.1
    organization: str = "chunked"
    page_size: int = 4096
    buffer_pool_pages: int = 256
    cache_bytes: int = 1 << 20
    policy: str = "benefit"
    num_shards: int = 0
    aggregate_in_cache: bool = False
    prefetch_drilldown: bool = False
    cache_tiers: int = 1
    persist_path: str | None = None
    demote_min_benefit: float = 0.0
    l2_budget_bytes: int | None = None
    compact_threshold: float | None = None


@dataclass(frozen=True)
class Stack:
    """One fully wired caching middle tier.

    Attributes:
        config: The configuration it was built from.
        schema: The star schema.
        space: The shared chunk geometry.
        backend: The loaded ground-truth engine.
        cache: The chunk store (``None`` for the query scheme, whose
            result cache lives inside its manager).
        manager: The scheme's cache manager — a
            :class:`~repro.pipeline.protocol.QueryAnswerer`.
    """

    config: StackConfig
    schema: StarSchema
    space: ChunkSpace
    backend: BackendEngine
    cache: ChunkStore | None
    manager: ChunkCacheManager | QueryCacheManager

    @property
    def chunk_manager(self) -> ChunkCacheManager:
        """The manager, asserted to be the chunk scheme's."""
        if not isinstance(self.manager, ChunkCacheManager):
            raise StackError(
                f"stack was built with scheme={self.config.scheme!r}, "
                "not the chunk scheme"
            )
        return self.manager

    @property
    def query_manager(self) -> QueryCacheManager:
        """The manager, asserted to be the query-caching baseline's."""
        if not isinstance(self.manager, QueryCacheManager):
            raise StackError(
                f"stack was built with scheme={self.config.scheme!r}, "
                "not the query scheme"
            )
        return self.manager

    def close(self) -> None:
        """Close the cache's persistent tier, if it has one (idempotent)."""
        close = getattr(self.cache, "close", None)
        if close is not None:
            close()


def build_backend(
    schema: StarSchema,
    space: ChunkSpace,
    records: np.ndarray,
    organization: str = "chunked",
    page_size: int = 4096,
    buffer_pool_pages: int = 256,
) -> BackendEngine:
    """Build and bulk-load a backend engine from raw fact records.

    The facade over :meth:`repro.backend.engine.BackendEngine.build`;
    load-time I/O is excluded from the engine's counters.  Exposed
    separately from :func:`build_stack` for experiments that compare
    several organizations over one fact table (Figure 14).
    """
    return BackendEngine.build(
        schema,
        space,
        records,
        organization=organization,
        page_size=page_size,
        buffer_pool_pages=buffer_pool_pages,
    )


def build_cache(config: StackConfig) -> ChunkStore:
    """Build the configured chunk store (plain, sharded, or tiered).

    ``cache_tiers=2`` wraps the L1 store in a
    :class:`~repro.core.tiered.TieredChunkCache` over a persistent
    :class:`~repro.storage.chunklog.ChunkLog`; when the backing file
    already holds live records, L1 is warmed from the L2 manifest
    (benefit-ranked) before the store is returned.

    A negative budget or threshold, or a ``compact_threshold`` outside
    (0, 1], is a :class:`~repro.exceptions.StackError` raised before
    anything is constructed, so a bad configuration never creates (or
    leaves open) the file at ``persist_path``.  So is a file at
    ``persist_path`` the log refuses to open (another format version or
    page size); the refusal leaves the file byte-identical.
    """
    if config.cache_tiers not in (1, 2):
        raise StackError(
            f"cache_tiers must be 1 or 2, got {config.cache_tiers!r}"
        )
    if config.persist_path is not None and config.cache_tiers != 2:
        raise StackError(
            "persist_path is only meaningful with cache_tiers=2"
        )
    if config.cache_tiers != 2:
        for name, value in (
            ("l2_budget_bytes", config.l2_budget_bytes),
            ("compact_threshold", config.compact_threshold),
        ):
            if value is not None:
                raise StackError(
                    f"{name} is only meaningful with cache_tiers=2"
                )
    if config.cache_bytes < 0:
        raise StackError(
            f"cache_bytes must be >= 0, got {config.cache_bytes}"
        )
    if config.demote_min_benefit < 0.0:
        raise StackError(
            "demote_min_benefit must be >= 0, "
            f"got {config.demote_min_benefit}"
        )
    if config.l2_budget_bytes is not None and config.l2_budget_bytes < 0:
        raise StackError(
            f"l2_budget_bytes must be >= 0, got {config.l2_budget_bytes}"
        )
    if config.compact_threshold is not None and not (
        0.0 < config.compact_threshold <= 1.0
    ):
        raise StackError(
            "compact_threshold must be in (0, 1], "
            f"got {config.compact_threshold}"
        )
    l1: ChunkStore
    if config.num_shards > 0:
        l1 = ShardedChunkCache(
            config.cache_bytes,
            policy=config.policy,
            num_shards=config.num_shards,
        )
    else:
        chunks: ChunkCache[ChunkKey, CachedChunk] = ChunkCache(
            config.cache_bytes, config.policy
        )
        l1 = chunks
    if config.cache_tiers == 1:
        return l1
    try:
        log = ChunkLog(config.persist_path, page_size=config.page_size)
    except ChunkLogError as error:
        raise StackError(
            f"persist_path {config.persist_path!r} cannot be opened: {error}"
        ) from error
    try:
        tiered = TieredChunkCache(
            l1,
            log,
            demote_min_benefit=config.demote_min_benefit,
            l2_budget_bytes=config.l2_budget_bytes,
            compact_threshold=config.compact_threshold,
        )
        if log.recovery.live_entries > 0:
            tiered.reopen()
    except BaseException:
        log.close()
        raise
    return tiered


def build_stack(
    schema: StarSchema,
    records: np.ndarray | None = None,
    config: StackConfig = StackConfig(),
    *,
    space: ChunkSpace | None = None,
    backend: BackendEngine | None = None,
    cache: ChunkStore | None = None,
    cost_model: CostModel | None = None,
) -> Stack:
    """Wire a complete caching stack per ``config``.

    Args:
        schema: The star schema.
        records: Raw fact records, required unless a loaded ``backend``
            is supplied.
        config: All composition knobs (scheme, geometry, budgets).
        space: Pre-built chunk geometry to share (defaults to a fresh
            ``ChunkSpace(schema, config.chunk_ratio)``).
        backend: Pre-built engine to reuse (several stacks over one
            loaded backend is the normal experiment shape).
        cache: Pre-built chunk store to use instead of
            :func:`build_cache` (chunk scheme only).
        cost_model: Override cost model (defaults to the paper's).

    Returns:
        The wired :class:`Stack`.
    """
    if config.scheme not in (CHUNK, QUERY):
        raise StackError(
            f"unknown caching scheme {config.scheme!r}; "
            f"expected {CHUNK!r} or {QUERY!r}"
        )
    if config.cache_tiers != 1 and config.scheme != CHUNK:
        raise StackError(
            "cache_tiers=2 supports the chunk scheme only"
        )
    if space is None:
        space = ChunkSpace(schema, config.chunk_ratio)
    if backend is None:
        if records is None:
            raise StackError(
                "build_stack needs fact records unless a loaded "
                "backend is supplied"
            )
        backend = build_backend(
            schema,
            space,
            records,
            organization=config.organization,
            page_size=config.page_size,
            buffer_pool_pages=config.buffer_pool_pages,
        )
    manager: ChunkCacheManager | QueryCacheManager
    if config.scheme == CHUNK:
        if cache is None:
            cache = build_cache(config)
        manager = ChunkCacheManager(
            schema,
            space,
            backend,
            cache,
            cost_model=cost_model,
            aggregate_in_cache=config.aggregate_in_cache,
            prefetch_drilldown=config.prefetch_drilldown,
        )
    else:
        if cache is not None:
            raise StackError(
                "the query scheme keeps its result cache inside the "
                "manager; a pre-built chunk store cannot be attached"
            )
        manager = QueryCacheManager(
            schema,
            backend,
            config.cache_bytes,
            cost_model=cost_model,
            policy=config.policy,
        )
    return Stack(
        config=config,
        schema=schema,
        space=space,
        backend=backend,
        cache=cache,
        manager=manager,
    )
