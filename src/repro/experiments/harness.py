"""The experiment harness: build a system, run streams, collect metrics.

Every experiment module composes the same few steps:

1. :func:`build_system` — Table 1 schema, synthetic fact table, shared
   chunk geometry and a loaded chunked backend;
2. :func:`make_chunk_manager` / :func:`make_query_manager` — a caching
   middle tier over that backend;
3. :func:`run_stream` — push a query stream through a manager, verifying
   (optionally) every answer against a direct backend evaluation;
4. read the paper's metrics off the manager's
   :class:`~repro.core.metrics.StreamMetrics`.

Backends are reset (buffer pool flushed, I/O counters zeroed) before each
run so scheme comparisons start from identical cold state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.cost import CostModel
from repro.api import (
    CHUNK,
    QUERY,
    Stack,
    StackConfig,
    build_backend,
    build_stack,
)
from repro.backend.engine import BackendEngine
from repro.core.cache import ChunkStore
from repro.chunks.grid import ChunkSpace
from repro.core.manager import ChunkCacheManager
from repro.core.metrics import StreamMetrics
from repro.core.query_cache import QueryCacheManager
from repro.exceptions import ExperimentError
from repro.pipeline.protocol import QueryAnswerer
from repro.experiments.configs import (
    Scale,
    build_paper_schema,
    cube_size_bytes,
)
from repro.schema.star import StarSchema
from repro.workload.data import generate_fact_table
from repro.workload.generator import LocalityMix
from repro.workload.stream import QueryStream, make_stream

__all__ = ["System", "build_system", "get_system", "make_chunk_stack",
           "make_chunk_manager", "make_query_manager", "run_stream",
           "reset_backend", "make_mix_stream"]


@dataclass
class System:
    """Everything an experiment run needs, built once per configuration.

    Attributes:
        scale: The scale it was built at.
        schema: The Table 1 star schema.
        space: Shared chunk geometry.
        records: The generated base fact table.
        backend: A loaded chunked-organization engine with bitmaps.
        cost_model: The simulated cost model.
        cache_bytes: Cache budget derived from the cube size.
        cube_bytes: Fully materialized cube size.
    """

    scale: Scale
    schema: StarSchema
    space: ChunkSpace
    records: np.ndarray
    backend: BackendEngine
    cost_model: CostModel
    cache_bytes: int
    cube_bytes: int


def build_system(
    scale: Scale,
    chunk_ratio: float | None = None,
    schema: StarSchema | None = None,
    cost_model: CostModel | None = None,
) -> System:
    """Build the paper's evaluation system at a given scale.

    Args:
        scale: Dataset/stream/budget sizes.
        chunk_ratio: Override of ``scale.chunk_ratio`` (used by the
            Figure 12 sweep).
        schema: Override schema (defaults to Table 1).
        cost_model: Override cost model.
    """
    schema = schema or build_paper_schema()
    ratio = chunk_ratio if chunk_ratio is not None else scale.chunk_ratio
    space = ChunkSpace(schema, ratio)
    records = generate_fact_table(schema, scale.num_tuples, seed=scale.seed)
    fact_pages = max(
        1, (scale.num_tuples * 24) // scale.page_size  # ~24 B per record
    )
    pool_pages = max(8, int(fact_pages * scale.buffer_fraction_of_fact))
    backend = build_backend(
        schema,
        space,
        records,
        organization="chunked",
        page_size=scale.page_size,
        buffer_pool_pages=pool_pages,
    )
    cube_bytes = cube_size_bytes(schema, scale.num_tuples)
    cache_bytes = int(cube_bytes * scale.cache_fraction_of_cube)
    return System(
        scale=scale,
        schema=schema,
        space=space,
        records=records,
        backend=backend,
        cost_model=cost_model or CostModel(),
        cache_bytes=cache_bytes,
        cube_bytes=cube_bytes,
    )


_SYSTEM_CACHE: dict[tuple[Scale, float], System] = {}


def get_system(scale: Scale, chunk_ratio: float | None = None) -> System:
    """A memoized :func:`build_system` — experiments at the same scale and
    chunk ratio share one loaded backend (reset between runs)."""
    ratio = chunk_ratio if chunk_ratio is not None else scale.chunk_ratio
    key = (scale, ratio)
    system = _SYSTEM_CACHE.get(key)
    if system is None:
        system = build_system(scale, chunk_ratio=ratio)
        _SYSTEM_CACHE[key] = system
    return system


def reset_backend(system: System) -> None:
    """Flush the backend's buffer pool and zero its counters.

    Run before each scheme so comparisons start from identical cold
    state.
    """
    system.backend.buffer_pool.flush()
    system.backend.buffer_pool.reset_stats()
    system.backend.disk.reset_stats()


def make_chunk_stack(
    system: System,
    cache_bytes: int | None = None,
    policy: str = "benefit",
    aggregate_in_cache: bool = False,
    cache: ChunkStore | None = None,
    prefetch_drilldown: bool = False,
) -> Stack:
    """A chunk-caching stack over the system's backend.

    The job runners hold on to the stack so that ``stack.close()``
    closes a persistent cache tier when the run ends.

    Args:
        cache: Pre-built chunk store to use instead of a fresh
            :class:`~repro.core.cache.ChunkCache` (e.g. a
            :class:`repro.serve.ShardedChunkCache` for the serving
            layer); ``cache_bytes`` and ``policy`` are ignored then.
    """
    reset_backend(system)
    return build_stack(
        system.schema,
        config=StackConfig(
            scheme=CHUNK,
            cache_bytes=(
                cache_bytes if cache_bytes is not None
                else system.cache_bytes
            ),
            policy=policy,
            aggregate_in_cache=aggregate_in_cache,
            prefetch_drilldown=prefetch_drilldown,
        ),
        space=system.space,
        backend=system.backend,
        cache=cache,
        cost_model=system.cost_model,
    )


def make_chunk_manager(
    system: System,
    cache_bytes: int | None = None,
    policy: str = "benefit",
    aggregate_in_cache: bool = False,
    cache: ChunkStore | None = None,
    prefetch_drilldown: bool = False,
) -> ChunkCacheManager:
    """The manager of :func:`make_chunk_stack` (same arguments)."""
    return make_chunk_stack(
        system, cache_bytes, policy, aggregate_in_cache, cache,
        prefetch_drilldown,
    ).chunk_manager


def make_query_manager(
    system: System,
    cache_bytes: int | None = None,
    policy: str = "benefit",
) -> QueryCacheManager:
    """A query-caching (containment) middle tier over the same backend."""
    reset_backend(system)
    stack = build_stack(
        system.schema,
        config=StackConfig(
            scheme=QUERY,
            cache_bytes=(
                cache_bytes if cache_bytes is not None
                else system.cache_bytes
            ),
            policy=policy,
        ),
        space=system.space,
        backend=system.backend,
        cost_model=system.cost_model,
    )
    return stack.query_manager


def run_stream(
    manager: QueryAnswerer,
    stream: QueryStream,
    verify_every: int = 0,
) -> StreamMetrics:
    """Push a stream through an answerer; optionally verify answers.

    The harness is typed against the
    :class:`~repro.pipeline.protocol.QueryAnswerer` protocol, so any
    caching scheme built on the staged pipeline runs here unchanged.
    The returned metrics carry, alongside the paper's numbers, the
    stream's aggregated per-stage wall/modelled times
    (:meth:`~repro.core.metrics.StreamMetrics.stage_summary`) and
    resolver attribution
    (:meth:`~repro.core.metrics.StreamMetrics.resolver_summary`).

    Args:
        manager: A cache manager built by this harness (any
            :class:`~repro.pipeline.protocol.QueryAnswerer` whose
            ``backend`` attribute exposes the ground-truth engine).
        stream: The query stream.
        verify_every: When positive, every ``verify_every``-th answer is
            checked row-for-row against a direct backend scan (slow;
            meant for tests).

    Returns:
        The manager's metrics after the run.
    """
    backend = manager.backend
    for index, query in enumerate(stream):
        answer = manager.answer(query)
        if verify_every and index % verify_every == 0:
            expected, _ = backend.answer(query, "scan")  # reprolint: ignore[R001] ground-truth oracle
            _assert_same_rows(expected, answer.rows, query)
    return manager.metrics


def make_mix_stream(
    system: System, mix: LocalityMix, num_queries: int | None = None,
    seed_offset: int = 0,
) -> QueryStream:
    """A stream for the system's schema under a locality mix."""
    scale = system.scale
    return make_stream(
        system.schema,
        mix,
        num_queries or scale.num_queries,
        seed=scale.seed + seed_offset,
    )


def _assert_same_rows(
    expected: np.ndarray, actual: np.ndarray, query: object
) -> None:
    def canon(rows: np.ndarray) -> list[tuple[object, ...]]:
        return sorted(
            tuple(
                round(v, 6) if isinstance(v, float) else v for v in row
            )
            for row in map(tuple, rows.tolist())
        )

    if canon(expected) != canon(actual):
        raise ExperimentError(f"cache answer diverged for {query}")
