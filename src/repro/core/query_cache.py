"""Query-level caching — the baseline scheme of Section 6.1.4.

:class:`QueryCacheManager` caches *entire query results* and answers a new
query from the cache only when some cached query **contains** it
(:func:`repro.query.containment.query_contains`).  Misses are evaluated at
the backend through its bitmap access path (the paper builds a bitmap
index on the fact table for exactly this purpose) and the whole result is
admitted to the cache.

The scheme executes through the same staged pipeline as chunk caching
(:mod:`repro.pipeline`), as its degenerate case: analysis yields a single
whole-result partition, and the resolver chain has two links — the
containment lookup and the backend.  Replacement is benefit-based like
the chunk scheme's ("the replacement policy is benefit based, as
described for chunks"): the whole results live in a private
:class:`~repro.core.cache.ChunkCache`, the chunk scheme's own store, and
an entry's weight is the estimated backend cost of recomputing it.  The
manager adds only its containment index.  This isolates the
experiment's variable — the *unit* of caching — from the store, the
replacement policy and the execution machinery.

The two structural drawbacks the paper attributes to this scheme emerge
naturally here:

- **no partial reuse** — a query overlapping but not contained in cached
  results recomputes everything; and
- **redundant storage** — overlapping cached results store shared regions
  multiple times, shrinking the effective cache (measured by
  :meth:`QueryCacheManager.redundancy_ratio`).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.analysis.cost import CostModel
from repro.backend.engine import BackendEngine
from repro.core.cache import ChunkCache
from repro.core.chunk import CachedQuery
from repro.core.manager import Answer
from repro.core.metrics import QueryRecord, StreamMetrics, account_answer
from repro.core.replacement import ReplacementPolicy
from repro.exceptions import QueryError
from repro.pipeline.executor import StagedPipeline
from repro.pipeline.resolvers import (
    WHOLE_RESULT,
    QueryBackendResolver,
    QueryHitResolver,
)
from repro.pipeline.stages import (
    AnalyzedQuery,
    ChunkPlan,
    Resolution,
    select_exact,
)
from repro.pipeline.work import estimate_query_full_cost
from repro.query.containment import query_contains
from repro.query.model import QueryKey, StarQuery
from repro.query.predicates import Selection, selection_cardinality
from repro.schema.star import StarSchema

__all__ = ["QueryCacheManager"]


class _QueryAnalyzer:
    """Analysis stage: one whole-result partition, full cost annotated.

    The estimated cold cost rides along in ``meta["full_cost"]`` so the
    backend resolver (admission benefit) and the accountant (CSR
    numerators) price the query identically.
    """

    def __init__(self, manager: "QueryCacheManager") -> None:
        self.manager = manager

    def analyze(self, query: StarQuery) -> AnalyzedQuery:
        manager = self.manager
        full_cost = estimate_query_full_cost(
            manager.backend, manager.cost_model, query
        )
        return AnalyzedQuery.from_query(
            query, (WHOLE_RESULT,), full_cost=full_cost
        )


class _QueryAssembler:
    """Assembly stage: trim a cached superset to the exact selection.

    Backend results are already exact; cached payloads are trimmed and
    never handed out by reference (``copy_on_full``).
    """

    def __init__(self, schema: StarSchema) -> None:
        self.schema = schema

    def assemble(
        self, analyzed: AnalyzedQuery, resolution: Resolution
    ) -> np.ndarray:
        part = resolution.parts[WHOLE_RESULT]
        if part.resolver != "cache":
            return part.rows
        return select_exact(
            self.schema, analyzed.query, part.rows, copy_on_full=True
        )


class _QueryAccountant:
    """Accounting stage: all-or-nothing CSR, shared pricing."""

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model

    def account(
        self,
        analyzed: AnalyzedQuery,
        resolution: Resolution,
        plan: ChunkPlan,
        result_rows: int,
    ) -> QueryRecord:
        full_cost = analyzed.meta["full_cost"]
        part = resolution.parts[WHOLE_RESULT]
        return account_answer(
            self.cost_model,
            resolution.report,
            full_cost=full_cost,
            saved_cost=full_cost if part.saved else 0.0,
            chunks_total=1,
            chunks_hit=len(plan.present),
            tuples_from_cache=part.tuples_from_cache,
            result_rows=result_rows,
        )


class QueryCacheManager:
    """Answers star queries from a whole-query-result cache.

    Args:
        schema: The star schema.
        backend: A loaded backend engine (any organization; misses use the
            bitmap path when available, else a scan).
        capacity_bytes: Cache budget.
        cost_model: Converts physical work into modelled time.
        policy: Replacement policy instance or name (default: the same
            benefit-weighted CLOCK the chunk scheme uses).
    """

    def __init__(
        self,
        schema: StarSchema,
        backend: BackendEngine,
        capacity_bytes: int,
        cost_model: CostModel | None = None,
        policy: ReplacementPolicy | str = "benefit",
    ) -> None:
        self.schema = schema
        self.backend = backend
        self.cost_model = cost_model or CostModel()
        self.metrics = StreamMetrics()
        self._store: ChunkCache[QueryKey, CachedQuery] = ChunkCache(
            capacity_bytes, policy
        )
        self._store.evict_hook = self._unindex
        # The containment index: shape key -> resident exact keys, in
        # admission order (the order find_containing tries them).
        self._by_shape: dict[QueryKey, list[QueryKey]] = {}
        self.pipeline = StagedPipeline(
            analyzer=_QueryAnalyzer(self),
            resolvers=[QueryHitResolver(self), QueryBackendResolver(self)],
            assembler=_QueryAssembler(schema),
            accountant=_QueryAccountant(self.cost_model),
            cost_model=self.cost_model,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    @property
    def capacity_bytes(self) -> int:
        """The cache budget."""
        return self._store.capacity_bytes

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged against the budget."""
        return self._store.used_bytes

    def redundancy_ratio(self) -> float:
        """Stored cells over distinct cells across cached results.

        1.0 means no overlap; higher values quantify the redundant storage
        of overlapping query results (cells are counted in selection
        space, pairwise via inclusion–exclusion is avoided by exact
        enumeration per shape, which is fine at experiment scale).
        """
        stored = 0
        distinct = 0
        for shape in self._by_shape:
            entries = list(self._shape_entries(shape))
            if not entries:
                continue
            domain_sizes = [
                dim.cardinality(level) if level > 0 else 1
                for dim, level in zip(
                    self.schema.dimensions, entries[0].query.groupby
                )
            ]
            cells: set[tuple[int, ...]] = set()
            for entry in entries:
                count = selection_cardinality(
                    entry.query.selections, domain_sizes
                )
                stored += count
                cells.update(
                    self._cell_ids(entry.query.selections, domain_sizes)
                )
            distinct += len(cells)
        if distinct == 0:
            return 1.0
        return stored / distinct

    @staticmethod
    def _cell_ids(
        selections: Selection, domain_sizes: Sequence[int]
    ) -> set[tuple[int, ...]]:
        spans: list[range] = []
        for interval, size in zip(selections, domain_sizes):
            if interval is None:
                spans.append(range(size))
            else:
                spans.append(range(interval[0], interval[1]))
        cells = {()}
        for span in spans:
            cells = {cell + (i,) for cell in cells for i in span}
        return cells

    # ------------------------------------------------------------------
    # Invalidation after base-table updates
    # ------------------------------------------------------------------
    def invalidate_base_chunks(self, base_numbers: list[int]) -> int:
        """Drop cached query results whose region covers updated data.

        A cached result is stale iff its leaf-level selection region
        intersects any updated base chunk's cell block.

        Returns:
            Number of entries invalidated.
        """
        if not base_numbers:
            return 0
        base_grid = (
            self.backend.space.base_grid
            if self.backend.chunked_file is not None
            else None
        )
        if base_grid is None:
            # Without chunk geometry the safe answer is "drop everything".
            removed = len(self._store)
            self._store.clear()
            self._by_shape.clear()
            return removed
        blocks = []
        for number in base_numbers:
            ranges = base_grid.cell_ranges(number)
            blocks.append(
                tuple((r.lo, r.hi) for r in ranges if r is not None)
            )
        removed = 0
        for key, entry in self._store.snapshot():
            try:
                region = entry.query.leaf_selection(self.schema)
            except QueryError:
                # A provably-empty selection intersects nothing, but the
                # conservative invalidation treatment is "overlaps
                # everything" — correctness over retention.
                region = (None,) * self.schema.num_dimensions
            for block in blocks:
                if all(
                    interval is None
                    or (interval[0] < hi and lo < interval[1])
                    for interval, (lo, hi) in zip(region, block)
                ):
                    self._drop(key)
                    removed += 1
                    break
        return removed

    def _drop(self, key: QueryKey) -> None:
        entry = self._store.peek(key)
        if entry is not None:
            self._store.invalidate(key)
            self._unindex(entry)

    def _unindex(self, entry: CachedQuery) -> None:
        """Take a retired entry out of the containment index (also the
        store's eviction hook)."""
        self._by_shape[entry.query.shape_key()].remove(entry.key)

    def _shape_entries(self, shape: QueryKey) -> Iterator[CachedQuery]:
        """The resident entries of one shape, in admission order."""
        for key in self._by_shape.get(shape, ()):
            entry = self._store.peek(key)
            if entry is not None:
                yield entry

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def answer(self, query: StarQuery) -> Answer:
        """Answer a query, reusing and updating the query cache."""
        result = self.pipeline.execute(query)
        self.metrics.record(result.record)
        return Answer(result.rows, result.record, result.trace)

    # ------------------------------------------------------------------
    # The QueryResultStore protocol (consumed by the resolver links)
    # ------------------------------------------------------------------
    def find_containing(self, query: StarQuery) -> CachedQuery | None:
        """The first indexed entry whose query contains ``query``."""
        for entry in self._shape_entries(query.shape_key()):
            if query_contains(entry.query, query):
                return entry
        return None

    def note_hit(self, entry: CachedQuery) -> None:
        """Tell the replacement policy ``entry`` was referenced."""
        self._store.get(entry.key)

    def admit(
        self, query: StarQuery, rows: np.ndarray, benefit: float
    ) -> None:
        """Admit a freshly computed whole result (evicting as needed).

        Re-admitting a resident exact key retires the old entry first,
        so the refresh takes the store's one admission path: others are
        evicted to make room, the policy re-weights it at its current
        benefit, and an over-budget result is not admitted.
        """
        entry = CachedQuery(query=query, rows=rows, benefit=benefit)
        self._drop(entry.key)
        if self._store.put(entry):
            self._by_shape.setdefault(query.shape_key(), []).append(
                entry.key
            )
