"""The middle-tier chunk cache manager — the paper's core contribution.

:class:`ChunkCacheManager` answers star queries through the staged
pipeline of Section 5.2 (:mod:`repro.pipeline`):

1. **Query analysis** (:class:`ChunkAnalyzer`) — a cached chunk is
   reusable only when group-by, aggregate list and non-group-by
   predicates match (conditions 1–3); these three components are baked
   into every :class:`~repro.core.chunk.ChunkKey`.  Analysis also runs
   **ComputeChunkNums**: the query's group-by selections become the list
   of chunk numbers forming its bounding envelope
   (:meth:`~repro.chunks.grid.ChunkGrid.chunk_numbers_for_selection`),
   and the recomputation work of all those chunks is memoized in one
   batched backend probe.
2. **Resolver chain** — *query splitting* and *missing-chunk
   computation* are links of a chain
   (:mod:`repro.pipeline.resolvers`): direct cache lookup, optional
   in-cache derivation and drill-down prefetch (the Section 7
   future-work extensions), and the terminal backend computation via the
   chunk interface (closure property + chunked file).
3. **Assembly** (:class:`ChunkAssembler`) — chunk rows are concatenated
   and boundary rows outside the exact selection are filtered out
   (chunks are a bounding envelope, Section 5.2.3).
4. **Accounting** (:class:`ChunkAccountant`) — the answer is priced
   through the shared :func:`repro.core.metrics.account_answer`.

Every answer carries a :class:`~repro.core.metrics.QueryRecord` plus a
per-stage :class:`~repro.pipeline.trace.ExecutionTrace`, so streams
accumulate the paper's CSR and mean-time metrics *and* per-stage /
per-resolver attribution as they run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import invariants
from repro.analysis.cost import CostModel
from repro.backend.engine import BackendEngine
from repro.chunks.grid import ChunkSpace
from repro.chunks.closure import source_spans
from repro.core.cache import ChunkStore
from repro.core.metrics import QueryRecord, StreamMetrics, account_answer
from repro.exceptions import CacheError
from repro.pipeline.executor import StagedPipeline
from repro.pipeline.resolvers import (
    BackendChunkResolver,
    CacheHitResolver,
    ChunkAdmitter,
    DerivationResolver,
    PartitionResolver,
    PrefetchResolver,
)
from repro.pipeline.stages import (
    AnalyzedQuery,
    ChunkPlan,
    Resolution,
    select_exact,
)
from repro.pipeline.trace import ExecutionTrace
from repro.pipeline.work import ChunkWorkEstimator
from repro.query.model import StarQuery
from repro.schema.star import GroupBy, StarSchema
from repro.storage.record import concatenate_records

__all__ = [
    "Answer",
    "ChunkAnalyzer",
    "ChunkAssembler",
    "ChunkAccountant",
    "ChunkCacheManager",
]


@dataclass
class Answer:
    """Result of answering one query through a cache manager.

    Attributes:
        rows: The query's result rows (exact — boundary tuples filtered).
        record: The accounting record also appended to the manager's
            :class:`~repro.core.metrics.StreamMetrics`.
        trace: Per-stage instrumentation of how the answer was produced
            (None only for answerers outside the staged pipeline).
    """

    rows: np.ndarray
    record: QueryRecord
    trace: ExecutionTrace | None = None


class ChunkAnalyzer:
    """Analysis stage: conditions 1–3 plus ComputeChunkNums.

    Also warms the work estimator for every chunk the query touches in
    one batched backend probe, so admission and accounting downstream
    are pure memo lookups.
    """

    def __init__(
        self, space: ChunkSpace, estimator: ChunkWorkEstimator
    ) -> None:
        self.space = space
        self.estimator = estimator

    def analyze(self, query: StarQuery) -> AnalyzedQuery:
        groupby = query.groupby
        selections = query.selections
        grid = self.space.grid(groupby)
        spans = grid.selection_spans(selections)
        numbers = grid.numbers_in_spans(spans)
        self.estimator.ensure(groupby, numbers)
        analyzed = AnalyzedQuery.from_query(
            query, numbers, grid.cut_dimensions(selections, spans)
        )
        if invariants.deep():
            invariants.check_partition(analyzed, grid)
        return analyzed


class ChunkAssembler:
    """Assembly stage: concatenate chunk rows, trim boundary rows."""

    def __init__(self, schema: StarSchema) -> None:
        self.schema = schema

    def assemble(
        self, analyzed: AnalyzedQuery, resolution: Resolution
    ) -> np.ndarray:
        parts = resolution.parts
        non_empty = [
            rows
            for number in analyzed.partitions
            if len(rows := parts[number].rows)
        ]
        if not non_empty:
            return analyzed.query.result_format(self.schema).empty()
        if len(non_empty) == 1:
            # The trim copies what it keeps; only an untrimmed chunk
            # needs a copy of its own (the payload is never handed out).
            return select_exact(
                self.schema, analyzed.query, non_empty[0],
                copy_on_full=True, cut=analyzed.cut,
            )
        return select_exact(
            self.schema, analyzed.query, concatenate_records(non_empty),
            cut=analyzed.cut,
        )


class ChunkAccountant:
    """Accounting stage: per-chunk CSR numerators, shared pricing."""

    def __init__(
        self, cost_model: CostModel, estimator: ChunkWorkEstimator
    ) -> None:
        self.cost_model = cost_model
        self.estimator = estimator

    def account(
        self,
        analyzed: AnalyzedQuery,
        resolution: Resolution,
        plan: ChunkPlan,
        result_rows: int,
    ) -> QueryRecord:
        partitions = analyzed.partitions
        work = self.estimator.ensure(analyzed.groupby, partitions)
        parts = resolution.parts
        backend_time = self.cost_model.backend_time
        full_cost = 0.0
        saved_cost = 0.0
        tuples_from_cache = 0
        for number in partitions:
            pages, tuples = work[number]
            chunk_cost = backend_time(pages, tuples)
            full_cost += chunk_cost
            part = parts[number]
            if part.saved:
                saved_cost += chunk_cost
            tuples_from_cache += part.tuples_from_cache
        return account_answer(
            self.cost_model,
            resolution.report,
            full_cost=full_cost,
            saved_cost=saved_cost,
            chunks_total=len(partitions),
            chunks_hit=len(plan.present),
            chunks_derived=len(plan.derived),
            tuples_from_cache=tuples_from_cache,
            result_rows=result_rows,
        )


class ChunkCacheManager:
    """Answers star queries from a chunk cache backed by a chunked file.

    Args:
        schema: The star schema.
        space: Shared chunk geometry (the same object the backend uses).
        backend: A loaded chunked-organization backend engine.
        cache: The chunk cache (policy and budget live there).
        cost_model: Converts physical work into modelled time.
        aggregate_in_cache: Enable the future-work extension — derive
            missing chunks by aggregating cached chunks of finer
            group-bys before falling back to the backend (Section 7).
        prefetch_drilldown: Enable the paper's second future-work idea:
            "more aggressive caching schemes, which fetch data at more
            detail than what is required ... particularly useful for
            drill down queries" (Section 7).  When the backend computes
            missing chunks, it computes them one hierarchy level *finer*
            on every grouped dimension (same base I/O — the base chunks
            are identical), caches the detailed chunks, and derives the
            requested level in the middle tier; a subsequent drill-down
            then hits the cache.  Implies the derivation machinery, so
            it forces ``aggregate_in_cache`` on and only engages for
            decomposable aggregates.
    """

    def __init__(
        self,
        schema: StarSchema,
        space: ChunkSpace,
        backend: BackendEngine,
        cache: ChunkStore,
        cost_model: CostModel | None = None,
        aggregate_in_cache: bool = False,
        prefetch_drilldown: bool = False,
    ) -> None:
        if backend.chunked_file is None:
            raise CacheError(
                "ChunkCacheManager requires a chunked-organization backend"
            )
        self.schema = schema
        self.space = space
        self.backend = backend
        self.cache = cache
        self.cost_model = cost_model or CostModel()
        self._aggregate_in_cache = aggregate_in_cache or prefetch_drilldown
        self._prefetch_drilldown = prefetch_drilldown
        self.metrics = StreamMetrics()
        self.estimator = ChunkWorkEstimator(backend)
        self.admitter = ChunkAdmitter(space, cache, self.estimator)
        self.pipeline = StagedPipeline(
            analyzer=ChunkAnalyzer(space, self.estimator),
            resolvers=self._build_chain(),
            assembler=ChunkAssembler(schema),
            accountant=ChunkAccountant(self.cost_model, self.estimator),
            cost_model=self.cost_model,
        )

    def _build_chain(self) -> list[PartitionResolver]:
        """cache-hit → [derive] → [prefetch] → backend."""
        chain: list[PartitionResolver] = [CacheHitResolver(self.cache)]
        if self.aggregate_in_cache:
            chain.append(
                DerivationResolver(
                    self.schema, self.space, self.cache,
                    self.backend, self.admitter,
                )
            )
        if self.prefetch_drilldown:
            chain.append(
                PrefetchResolver(
                    self.schema, self.space, self.backend, self.admitter
                )
            )
        chain.append(
            BackendChunkResolver(self.schema, self.backend, self.admitter)
        )
        return chain

    @property
    def aggregate_in_cache(self) -> bool:
        """Whether the chain derives chunks in the cache (read-only: the
        resolver chain is built once, at construction)."""
        return self._aggregate_in_cache

    @property
    def prefetch_drilldown(self) -> bool:
        """Whether misses are computed one level finer (read-only)."""
        return self._prefetch_drilldown

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def answer(self, query: StarQuery) -> Answer:
        """Answer a query, reusing and updating the chunk cache."""
        result = self.pipeline.execute(query)
        self.metrics.record(result.record)
        return Answer(result.rows, result.record, result.trace)

    # ------------------------------------------------------------------
    # Invalidation after base-table updates
    # ------------------------------------------------------------------
    def invalidate_base_chunks(self, base_numbers: list[int]) -> int:
        """Drop every cached chunk whose region covers updated base data.

        ``base_numbers`` is what
        :meth:`repro.backend.engine.BackendEngine.append_records`
        returns.  A cached chunk of any group-by is stale iff its
        source-span block (closure property) contains one of the updated
        base chunks; containment is a per-dimension coordinate check, so
        the pass is O(cache size x updates).

        Returns:
            Number of chunks invalidated.
        """
        if not base_numbers:
            return 0
        # Updated data also changes recomputation costs: drop the
        # memoized per-chunk work estimates along with the stale chunks.
        self.estimator.clear()
        base_grid = self.space.base_grid
        coords = [base_grid.coords_of(number) for number in base_numbers]
        removed = 0
        spans_cache: dict[tuple[GroupBy, int], list[tuple[int, int]]] = {}
        for key in self.cache.keys():
            spans = spans_cache.get((key.groupby, key.number))
            if spans is None:
                spans = source_spans(
                    self.space, key.groupby, key.number
                )
                spans_cache[(key.groupby, key.number)] = spans
            for coordinate in coords:
                if all(
                    lo <= x < hi
                    for x, (lo, hi) in zip(coordinate, spans)
                ):
                    self.cache.invalidate(key)
                    removed += 1
                    break
        return removed
