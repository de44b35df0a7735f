"""The resolver chain: composable strategies for filling partitions.

A :class:`PartitionResolver` is one link in the chain the pipeline walks
to fill a query's partitions.  Each link is offered the partitions still
outstanding and returns the subset it can produce; the chain for chunk
caching is

    cache-hit  →  in-cache derivation  →  drill-down prefetch  →  backend

where the middle two links are the paper's Section 7 future-work
extensions and can be toggled per experiment.  The backend link is total
(it resolves everything it is offered), so the chain always terminates.

Resolvers share a :class:`ChunkAdmitter`, which owns admission control:
pricing newly produced chunks (via the batched work estimator), entering
them into the cache, and maintaining the registry of group-bys ever
cached per aggregate / predicate family that derivation searches.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence

import numpy as np

from repro.backend.aggregate import reaggregate
from repro.backend.engine import BackendEngine
from repro.backend.plans import CostReport
from repro.chunks.closure import source_chunk_numbers
from repro.chunks.grid import ChunkSpace
from repro.core.cache import ChunkStore
from repro.core.chunk import CachedChunk, CachedQuery, ChunkShape
from repro.exceptions import InjectedFault, PipelineError
from repro.pipeline.stages import (
    AnalyzedQuery,
    ResolvedPart,
    ResolverOutcome,
)
from repro.pipeline.work import ChunkWorkEstimator
from repro.query.model import StarQuery
from repro.schema.star import GroupBy, StarSchema
from repro.storage.record import concatenate_records

if TYPE_CHECKING:  # flight.py imports us; runtime edge stays one-way
    from repro.pipeline.flight import FlightTable

__all__ = [
    "DERIVABLE_AGGREGATES",
    "WHOLE_RESULT",
    "PartitionResolver",
    "ChunkAdmitter",
    "CacheHitResolver",
    "DerivationResolver",
    "PrefetchResolver",
    "RetryPolicy",
    "BackendChunkResolver",
    "QueryResultStore",
    "QueryHitResolver",
    "QueryBackendResolver",
]

#: Aggregates whose chunk partials can be merged in the middle tier.
DERIVABLE_AGGREGATES = frozenset({"sum", "count", "min", "max"})

#: The single partition a whole-query answer decomposes into.
WHOLE_RESULT = 0


class PartitionResolver(ABC):
    """One link of the resolver chain.

    Attributes:
        name: Stable identifier used for trace attribution and plan
            classification (``"cache"`` and ``"derive"`` carry meaning in
            :meth:`repro.pipeline.stages.ChunkPlan.from_resolution`).
    """

    name: str = "resolver"

    @abstractmethod
    def resolve(
        self, analyzed: AnalyzedQuery, outstanding: Sequence[int]
    ) -> ResolverOutcome:
        """Produce rows for whichever outstanding partitions this
        strategy can serve; unreturned partitions flow down the chain."""


class ChunkAdmitter:
    """Admission control shared by the chain's producing resolvers.

    Prices each new chunk with the batched work estimator, inserts it
    under the benefit-weighted policy, and records the group-by in the
    registry that in-cache derivation searches: group-bys ever cached
    per *family*, the ``(aggregates, fixed_predicates)`` pair a chunk
    shape has apart from its group-by.  The registry is guarded by its
    own lock so concurrent serving workers can admit chunks of one
    family simultaneously; cache insertion itself is delegated to the
    store, which owns its own synchronization.

    Args:
        space: Shared chunk geometry (for benefit weights).
        cache: The chunk cache entries are admitted to.
        estimator: Batched recomputation-work estimator.
    """

    def __init__(
        self,
        space: ChunkSpace,
        cache: ChunkStore,
        estimator: ChunkWorkEstimator,
    ) -> None:
        self.space = space
        self.cache = cache
        self.estimator = estimator
        self._seen_groupbys: dict[tuple[object, ...], set[GroupBy]] = {}
        self._registry_lock = threading.Lock()

    def admit(
        self, shape: ChunkShape, chunks: Mapping[int, np.ndarray]
    ) -> None:
        """Admit freshly produced chunks of one shape, by number."""
        if not chunks:
            return
        groupby = shape.groupby
        benefit = self.space.chunk_benefit(groupby)
        work = self.estimator.ensure(groupby, chunks.keys())
        for number, rows in chunks.items():
            pages, _ = work[number]
            self.cache.put(
                CachedChunk(
                    key=shape.key(number), rows=rows, benefit=benefit,
                    compute_pages=float(pages),
                )
            )
        family = (shape.aggregates, shape.fixed_predicates)
        with self._registry_lock:
            self._seen_groupbys.setdefault(family, set()).add(groupby)

    def seen_groupbys(self, family: tuple[object, ...]) -> Iterable[GroupBy]:
        """Group-bys ever cached under an ``(aggregates,
        fixed_predicates)`` family (snapshot)."""
        with self._registry_lock:
            return tuple(self._seen_groupbys.get(family, ()))


class CacheHitResolver(PartitionResolver):
    """Direct cache lookup — the paper's *query splitting* step.

    Splits the offered partitions into ``CNumsPresent`` (resolved here)
    and ``CNumsMissing`` (left outstanding); hits touch replacement
    state, misses count in the cache's statistics.

    When a :class:`~repro.pipeline.flight.FlightTable` is attached
    (only under the admission front door), chunks the table has marked
    as in-flight are skipped entirely — no lookup, no statistics — so
    they resolve through the flight path or the backend instead.
    """

    name = "cache"

    def __init__(
        self, cache: ChunkStore, flight: "FlightTable | None" = None
    ) -> None:
        self.cache = cache
        self.flight = flight

    def resolve(
        self, analyzed: AnalyzedQuery, outstanding: Sequence[int]
    ) -> ResolverOutcome:
        parts: dict[int, ResolvedPart] = {}
        masked: frozenset[int] = frozenset()
        if self.flight is not None:
            masked = self.flight.masked(analyzed, outstanding)
        get = self.cache.get
        key = analyzed.shape.key
        name = self.name
        for number in outstanding:
            if number in masked:
                continue
            entry = get(key(number))
            if entry is not None:
                rows = entry.rows
                parts[number] = ResolvedPart(
                    number, rows, name, len(rows), True
                )
        return ResolverOutcome(parts)


class DerivationResolver(PartitionResolver):
    """In-cache derivation (Section 7): aggregate cached finer chunks.

    A missing chunk is derivable when *all* of its source chunks under
    some finer cached group-by are resident; the closure property
    guarantees the sources exactly tile the target.  Derived chunks are
    admitted so subsequent queries hit them directly.
    """

    name = "derive"

    def __init__(
        self,
        schema: StarSchema,
        space: ChunkSpace,
        cache: ChunkStore,
        backend: BackendEngine,
        admitter: ChunkAdmitter,
    ) -> None:
        self.schema = schema
        self.space = space
        self.cache = cache
        self.backend = backend
        self.admitter = admitter

    def resolve(
        self, analyzed: AnalyzedQuery, outstanding: Sequence[int]
    ) -> ResolverOutcome:
        if not all(
            a in DERIVABLE_AGGREGATES for _, a in analyzed.aggregates
        ):
            return ResolverOutcome()
        family = (analyzed.aggregates, analyzed.fixed_predicates)
        candidates = [
            groupby
            for groupby in self.admitter.seen_groupbys(family)
            if groupby != analyzed.groupby
            and self.schema.is_rollup_of(analyzed.groupby, groupby)
        ]
        if not candidates:
            return ResolverOutcome()
        parts: dict[int, ResolvedPart] = {}
        for number in outstanding:
            outcome = self._derive_one(analyzed, number, candidates)
            if outcome is not None:
                rows, source_tuples = outcome
                parts[number] = ResolvedPart(
                    number=number,
                    rows=rows,
                    resolver=self.name,
                    tuples_from_cache=source_tuples,
                    saved=True,
                )
        if parts:
            self.admitter.admit(
                analyzed.shape, {n: p.rows for n, p in parts.items()}
            )
        return ResolverOutcome(parts)

    def _derive_one(
        self,
        analyzed: AnalyzedQuery,
        number: int,
        candidates: list[GroupBy],
    ) -> tuple[np.ndarray, int] | None:
        for source_groupby in candidates:
            source_numbers = source_chunk_numbers(
                self.space, analyzed.groupby, number, source_groupby
            )
            source_shape = ChunkShape(
                source_groupby, analyzed.aggregates, analyzed.fixed_predicates
            )
            entries = []
            for source_number in source_numbers:
                entry = self.cache.peek(source_shape.key(source_number))
                if entry is None:
                    entries = None
                    break
                entries.append(entry)
            if entries is None:
                continue
            # All sources resident: touch them (they earned their keep)
            # and merge.
            for entry in entries:
                self.cache.get(entry.key)
            source_rows = [e.rows for e in entries if len(e.rows)]
            if source_rows:
                stacked = concatenate_records(source_rows)
            else:
                stacked = entries[0].rows
            merged = reaggregate(
                self.schema,
                stacked,
                source_groupby,
                analyzed.groupby,
                analyzed.aggregates,
                self.backend.mapper,
            )
            return merged, len(stacked)
        return None


class PrefetchResolver(PartitionResolver):
    """Aggressive drill-down prefetch (the paper's second Section 7 idea).

    Missing chunks are computed one hierarchy level *finer* on every
    grouped dimension (same base I/O — the base chunks are identical),
    the detailed chunks are cached, and the requested level is derived in
    the middle tier; a subsequent drill-down then hits the cache.  Only
    engages for decomposable aggregates with a finer level available —
    otherwise it resolves nothing and the chain falls through to the
    backend.
    """

    name = "prefetch"

    def __init__(
        self,
        schema: StarSchema,
        space: ChunkSpace,
        backend: BackendEngine,
        admitter: ChunkAdmitter,
    ) -> None:
        self.schema = schema
        self.space = space
        self.backend = backend
        self.admitter = admitter

    def prefetch_groupby(self, groupby: GroupBy) -> GroupBy | None:
        """One level finer on every grouped dimension, or None if there
        is no finer level anywhere (already at full detail)."""
        finer = tuple(
            min(level + 1, dim.leaf_level) if level > 0 else 0
            for dim, level in zip(self.schema.dimensions, groupby)
        )
        return finer if finer != tuple(groupby) else None

    def resolve(
        self, analyzed: AnalyzedQuery, outstanding: Sequence[int]
    ) -> ResolverOutcome:
        query = analyzed.query
        if not all(
            a in DERIVABLE_AGGREGATES for _, a in analyzed.aggregates
        ):
            return ResolverOutcome()
        finer = self.prefetch_groupby(analyzed.groupby)
        if finer is None:
            return ResolverOutcome()
        # The fine chunks tiling each missing coarse chunk.
        fine_numbers: set[int] = set()
        sources: dict[int, list[int]] = {}
        for number in outstanding:
            numbers = source_chunk_numbers(
                self.space, analyzed.groupby, number, finer
            )
            sources[number] = numbers
            fine_numbers.update(numbers)
        fine_chunks, report = self.backend.compute_chunks(
            finer, sorted(fine_numbers), analyzed.aggregates,
            leaf_filters=query.effective_dim_filters(self.schema),
        )
        # Cache the detailed chunks (the aggressive part).
        self.admitter.admit(
            ChunkShape(finer, analyzed.aggregates, analyzed.fixed_predicates),
            fine_chunks,
        )
        # Derive the requested chunks in the middle tier.
        parts: dict[int, ResolvedPart] = {}
        for number in outstanding:
            chunk_parts = [
                fine_chunks[src] for src in sources[number]
                if len(fine_chunks[src])
            ]
            if chunk_parts:
                stacked = concatenate_records(chunk_parts)
                report.tuples_scanned += len(stacked)
                rows = reaggregate(
                    self.schema,
                    stacked,
                    finer,
                    analyzed.groupby,
                    analyzed.aggregates,
                    self.backend.mapper,
                )
            else:
                rows = query.result_format(self.schema).empty()
            parts[number] = ResolvedPart(
                number=number, rows=rows, resolver=self.name
            )
        self.admitter.admit(
            analyzed.shape, {n: p.rows for n, p in parts.items()}
        )
        return ResolverOutcome(parts, report)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    Backoff is charged in *simulated* seconds (it lands in
    ``CostReport.backoff_time`` and from there in modelled query time);
    nothing ever sleeps, so retries are free in wall-clock terms and
    byte-for-byte reproducible.

    Attributes:
        max_attempts: Attempts per source level (>= 1); the degrade path
            gets a fresh budget.
        backoff_base: Simulated seconds before the first retry.
        backoff_factor: Multiplier applied per subsequent retry.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PipelineError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0.0 or self.backoff_factor < 0.0:
            raise PipelineError(
                "backoff_base and backoff_factor must be >= 0, got "
                f"{self.backoff_base} and {self.backoff_factor}"
            )

    def backoff(self, attempt: int) -> float:
        """Simulated backoff before retry number ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_factor**attempt


class BackendChunkResolver(PartitionResolver):
    """Terminal link: compute missing chunks through the chunk interface.

    Total by construction — every partition it is offered comes back with
    rows — so a chain ending in this resolver always completes.

    Recovery (exercised only under :mod:`repro.faults` injection; the
    no-fault path is value-identical to a plain backend call):

    - a **transient** :class:`~repro.exceptions.InjectedFault` is
      retried up to ``retry.max_attempts`` times with deterministic
      backoff charged to the outcome's ``backoff_time``;
    - a fault that exhausts its retries (or is permanent) while reading
      a materialized **aggregate** table degrades: the chunks are
      recomputed from base chunks (``prefer_base=True``) under a fresh
      retry budget;
    - a fault that survives both paths is re-raised with the *combined*
      cost of every attempt attached, so even a failed query conserves
      global I/O accounting.

    Wasted I/O from failed attempts is merged into the final outcome
    report, keeping trace conservation exact under faults.
    """

    name = "backend"

    def __init__(
        self,
        schema: StarSchema,
        backend: BackendEngine,
        admitter: ChunkAdmitter,
        retry: RetryPolicy | None = None,
        flight: "FlightTable | None" = None,
    ) -> None:
        self.schema = schema
        self.backend = backend
        self.admitter = admitter
        self.retry = retry if retry is not None else RetryPolicy()
        self.flight = flight

    def resolve(
        self, analyzed: AnalyzedQuery, outstanding: Sequence[int]
    ) -> ResolverOutcome:
        query = analyzed.query
        leaf_filters = query.effective_dim_filters(self.schema)
        total = CostReport(access_path="chunk")
        attempts = 0
        prefer_base = False
        while True:
            try:
                computed, report = self.backend.compute_chunks(
                    analyzed.groupby,
                    list(outstanding),
                    analyzed.aggregates,
                    leaf_filters=leaf_filters,
                    prefer_base=prefer_base,
                )
            except InjectedFault as fault:
                attempts += 1
                total.faults += 1
                wasted = fault.cost_report
                if isinstance(wasted, CostReport):
                    total.merge(wasted)
                if fault.transient and attempts < self.retry.max_attempts:
                    total.retries += 1
                    total.backoff_time += self.retry.backoff(attempts - 1)
                    continue
                if not prefer_base and fault.source_level == "aggregate":
                    # Graceful degradation: the aggregate table is
                    # unreadable — recompute from base chunks with a
                    # fresh retry budget.
                    prefer_base = True
                    attempts = 0
                    total.degraded += 1
                    continue
                # Out of options: surface the typed fault carrying the
                # combined cost of every attempt.  Flights this fetch
                # was leading fail with it, so every coalesced waiter
                # sees the same typed error.
                if self.flight is not None:
                    self.flight.publish_failure(
                        analyzed, outstanding, fault
                    )
                fault.cost_report = total
                raise
            break
        total.merge(report)
        self.admitter.admit(analyzed.shape, computed)
        if self.flight is not None:
            # Publish to waiting flights; the returned credit (<= 0)
            # hands the waiters' fair shares back to this fetch.
            total.coalesce_time += self.flight.publish(
                analyzed, computed, total
            )
        parts = {
            number: ResolvedPart(
                number=number, rows=rows, resolver=self.name
            )
            for number, rows in computed.items()
        }
        return ResolverOutcome(parts=parts, report=total)


class QueryResultStore(Protocol):
    """What the whole-query resolver links need from their host cache.

    :class:`repro.core.query_cache.QueryCacheManager` is the one
    implementation; the protocol keeps the dependency pointing from the
    core layer into the pipeline layer (the resolvers never import the
    manager).
    """

    backend: BackendEngine

    def find_containing(self, query: StarQuery) -> CachedQuery | None:
        """A cached entry whose query contains ``query``, if any."""

    def note_hit(self, entry: CachedQuery) -> None:
        """Tell the replacement policy ``entry`` was referenced."""

    def admit(
        self, query: StarQuery, rows: np.ndarray, benefit: float
    ) -> None:
        """Admit a freshly computed whole result."""


class QueryHitResolver(PartitionResolver):
    """Containment lookup: serve the whole result from a cached superset.

    The query-caching baseline's first chain link — the degenerate
    analogue of :class:`CacheHitResolver`, with containment in place of
    chunk splitting.
    """

    name = "cache"

    def __init__(self, store: QueryResultStore) -> None:
        self.store = store

    def resolve(
        self, analyzed: AnalyzedQuery, outstanding: Sequence[int]
    ) -> ResolverOutcome:
        hit = self.store.find_containing(analyzed.query)
        if hit is None:
            return ResolverOutcome()
        self.store.note_hit(hit)
        part = ResolvedPart(
            number=WHOLE_RESULT,
            rows=hit.rows,
            resolver=self.name,
            tuples_from_cache=hit.num_rows,
            saved=True,
        )
        return ResolverOutcome(parts={WHOLE_RESULT: part})


class QueryBackendResolver(PartitionResolver):
    """Terminal link for query caching: evaluate at the backend and admit.

    Total like :class:`BackendChunkResolver` — the single whole-result
    partition always comes back with rows.
    """

    name = "backend"

    def __init__(self, store: QueryResultStore) -> None:
        self.store = store

    def resolve(
        self, analyzed: AnalyzedQuery, outstanding: Sequence[int]
    ) -> ResolverOutcome:
        rows, report = self.store.backend.answer(analyzed.query)
        # The store keeps a copy: ``rows`` itself goes on to the client
        # as this query's answer.
        self.store.admit(
            analyzed.query, rows.copy(), benefit=analyzed.meta["full_cost"]
        )
        part = ResolvedPart(
            number=WHOLE_RESULT, rows=rows, resolver=self.name
        )
        return ResolverOutcome(
            parts={WHOLE_RESULT: part}, report=report
        )
