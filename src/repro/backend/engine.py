"""The backend relational engine.

:class:`BackendEngine` plays the role of the paper's PARADISE backend: it
owns the stored fact table (chunked or randomly ordered), the bitmap
indexes, and the buffer pool, and evaluates star-join requests:

- the **chunk interface** (:meth:`compute_chunks`) — compute requested
  chunks of any group-by by aggregating exactly the base chunks given by
  the closure property, read through the chunk index (Section 5.2.3);
- the **relational interface** (:meth:`answer`) — evaluate a whole
  :class:`~repro.query.model.StarQuery` via a bitmap-index selection or a
  full scan, the paths a conventional backend would use on a cache miss
  (Section 6.1.4 builds a bitmap index for the query-caching baseline).

Every method returns the result together with a
:class:`~repro.backend.plans.CostReport` of the physical work performed.

Threads
-------
The engine is not thread-safe, and neither is any stack built over it:
use one stack per thread or process.  Its public entry points still
pass through one counted critical section (:func:`_synchronized`),
whose ``lock_wait_seconds`` / ``lock_acquisitions`` the end-to-end
benchmark reads.  It is a counter, not a thread-safety guarantee.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Concatenate, Mapping, ParamSpec, Sequence, TypeVar

import numpy as np

from repro.backend.aggregate import (
    LevelMapper,
    aggregate_chunks,
    aggregate_records,
    partials_format_aggregates,
)
from repro.backend.plans import CostReport, measure_cost
from repro.chunks.closure import source_spans_many
from repro.chunks.grid import ChunkSpace
from repro.exceptions import BackendError, InjectedFault, QueryError
from repro.query.model import StarQuery
from repro.schema.star import GroupBy, StarSchema
from repro.storage.bitmap import BitmapIndex, combine_and
from repro.storage.buffer import BufferPool
from repro.storage.chunkedfile import ChunkedFile, tuple_chunk_numbers
from repro.storage.disk import SimulatedDisk
from repro.storage.factfile import FactFile
from repro.storage.record import (
    Columns,
    RecordFormat,
    fact_record_format,
    groupby_record_format,
)

__all__ = ["BackendEngine"]

#: Valid physical organizations of the stored fact table.
ORGANIZATIONS = ("chunked", "random")

_P = ParamSpec("_P")
_R = TypeVar("_R")


def _synchronized(
    method: Callable[Concatenate["BackendEngine", _P], _R],
) -> Callable[Concatenate["BackendEngine", _P], _R]:
    """Run one public entry point inside the engine's counted section.

    The lock is re-entrant: ``answer(access_path="chunk")`` calls
    :meth:`~BackendEngine.compute_chunks` and ``explain`` calls the
    estimators, all under the outer acquisition.  Every acquisition and
    its wait are counted; that is all the lock is for (see the module
    docstring).
    """

    @functools.wraps(method)
    def wrapper(
        self: "BackendEngine", *args: _P.args, **kwargs: _P.kwargs
    ) -> _R:
        start = time.perf_counter()
        self._lock.acquire()
        try:
            self.lock_acquisitions += 1
            self.lock_wait_seconds += time.perf_counter() - start
            return method(self, *args, **kwargs)
        finally:
            self._lock.release()

    return wrapper


class BackendEngine:
    """A simulated relational backend over one fact table.

    Use :meth:`build` to construct a loaded engine from raw records.

    Args:
        schema: The star schema.
        space: Shared chunk geometry (must be the same object the middle
            tier uses, so both sides agree on chunk numbers).
        organization: ``"chunked"`` stores the fact table clustered by
            chunk number with a chunk index; ``"random"`` stores it in
            arrival order (the baseline of Figure 14).  The chunk
            interface requires ``"chunked"``.
        page_size: Disk page size in bytes.
        buffer_pool_pages: Buffer pool capacity in frames.
    """

    def __init__(
        self,
        schema: StarSchema,
        space: ChunkSpace,
        organization: str = "chunked",
        page_size: int = 4096,
        buffer_pool_pages: int = 256,
    ) -> None:
        if organization not in ORGANIZATIONS:
            raise BackendError(
                f"unknown organization {organization!r}; "
                f"expected one of {ORGANIZATIONS}"
            )
        self.schema = schema
        self.space = space
        self.organization = organization
        self.disk = SimulatedDisk(page_size)
        self.buffer_pool = BufferPool(self.disk, buffer_pool_pages)
        self.record_format = fact_record_format(schema)
        self.mapper = LevelMapper(schema)
        self.bitmaps: dict[str, BitmapIndex] = {}
        self.chunked_file: ChunkedFile | None = None
        self.fact_file: FactFile | None = None
        # Precomputed aggregate tables, chunk-organized (Section 2.4:
        # "These tables will also be stored in a chunked format").
        self.materialized: dict[GroupBy, ChunkedFile] = {}
        # Unclustered delta region holding appended tuples until the next
        # reorganize() — the functional stand-in for the paper's
        # "extra space kept in each chunk" for updates.
        self.delta_file: FactFile | None = None
        self._loaded = False
        # The counted section (see the module docstring).  Re-entrant so
        # the relational interface can route through the chunk interface.
        self._lock = threading.RLock()
        self.lock_wait_seconds = 0.0
        self.lock_acquisitions = 0
        # Fault-injection hook (repro.faults installs it; production code
        # never does).  Called with the entry-point name; may raise a
        # BackendFault to simulate a query-level failure.
        self.fault_hook: Callable[[str], None] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        schema: StarSchema,
        space: ChunkSpace,
        records: np.ndarray,
        organization: str = "chunked",
        page_size: int = 4096,
        buffer_pool_pages: int = 256,
    ) -> "BackendEngine":
        """Build and load an engine from raw fact records.

        Load-time I/O (bulk loads, index builds) is excluded from the
        engine's counters: they are reset before the engine is returned,
        matching the paper's setup where files are bulk-loaded offline.
        """
        engine = cls(
            schema, space, organization, page_size, buffer_pool_pages
        )
        engine.load(records)
        return engine

    def load(self, records: np.ndarray) -> None:
        """Bulk-load the fact table and its bitmap indexes."""
        if self._loaded:
            raise BackendError("engine is already loaded")
        if records.dtype != self.record_format.dtype:
            raise BackendError(
                f"records dtype {records.dtype} does not match fact format "
                f"{self.record_format.dtype}"
            )
        self._check_ordinals(records)
        self.space.set_base_tuples(len(records))
        stored: np.ndarray | Columns
        if self.organization == "chunked":
            self.chunked_file = ChunkedFile(
                self.disk, self.record_format, self.space, self.buffer_pool
            )
            self.chunked_file.bulk_load(records)
            self.fact_file = self.chunked_file.fact_file
            stored = self.chunked_file.read_all()
        else:
            self.fact_file = FactFile(
                self.disk, self.record_format, self.buffer_pool
            )
            self.fact_file.bulk_load(records)
            stored = records
        self._build_bitmaps(stored)
        self._loaded = True
        self.buffer_pool.flush()
        self.buffer_pool.reset_stats()
        self.disk.reset_stats()

    def _check_ordinals(self, records: np.ndarray) -> None:
        """Refuse a dimension column with an ordinal outside its leaf
        level, whatever the organization, before anything is stored:
        each access path would treat it differently (no bitmap holds
        it, the scan would wrap -1)."""
        if not len(records):
            return
        for dim in self.schema.dimensions:
            column = records[dim.name]
            low, high = int(column.min()), int(column.max())
            if low < 0 or high >= dim.leaf_cardinality:
                raise BackendError(
                    f"column {dim.name!r} holds ordinal "
                    f"{low if low < 0 else high}, outside its leaf level "
                    f"0..{dim.leaf_cardinality - 1}"
                )

    def _build_bitmaps(self, stored: np.ndarray | Columns) -> None:
        """One bitmap index per dimension over the stored fact table.

        Bitmap positions refer to the *stored* record order, so the
        indexes are built from the file's physical layout.  An empty
        table has nothing to index (bitmaps need >= 1 bit): bitmaps
        exist exactly when the stored table is non-empty.
        """
        if not len(stored):
            self.bitmaps = {}
            return
        self.bitmaps = {
            dim.name: BitmapIndex.build(
                self.disk,
                stored[dim.name],
                dim.leaf_cardinality,
                self.buffer_pool,
            )
            for dim in self.schema.dimensions
        }

    def _require_loaded(self) -> None:
        if not self._loaded:
            raise BackendError("engine has not been loaded")

    @property
    def num_data_pages(self) -> int:
        """Pages of the stored fact table."""
        self._require_loaded()
        assert self.fact_file is not None
        return self.fact_file.num_pages

    @property
    def num_records(self) -> int:
        """Tuples in the fact table."""
        self._require_loaded()
        assert self.fact_file is not None
        return self.fact_file.num_records

    # ------------------------------------------------------------------
    # Materialized aggregate tables (Section 2.4)
    # ------------------------------------------------------------------
    @_synchronized
    def materialize(self, groupby: Sequence[int]) -> None:
        """Precompute one aggregate table and store it chunk-organized.

        The table holds the decomposable partials (sum/count/min/max per
        measure), clustered by its own group-by's chunk grid with a
        B-tree chunk index, so the chunk interface can compute any chunk
        of any coarser group-by from it with I/O proportional to the
        chunk — exactly as it does from the base table (Section 2.4:
        "Even statically precomputed aggregate tables can be organized on
        a chunk basis").  Build I/O is excluded from the counters
        (offline precomputation, like the initial bulk load).
        """
        self._require_loaded()
        if self.chunked_file is None:
            raise BackendError(
                "materialized tables require the chunked organization"
            )
        groupby = self.schema.validate_groupby(groupby)
        if groupby == self.schema.base_groupby:
            raise BackendError("the base table is already stored")
        if groupby in self.materialized:
            raise BackendError(f"group-by {groupby} already materialized")
        before = self.disk.stats.copy()
        stored = partials_format_aggregates(self.schema)
        # Every tuple the base path would read: the clustered file, then
        # the delta region of tuples appended since the last reorganize.
        source = self.chunked_file.read_all()
        if self.delta_file is not None and self.delta_file.num_records:
            source = Columns.concatenate([source, self.delta_file.read_all()])
        rows = aggregate_records(
            self.schema, source, groupby, stored, self.mapper
        )
        table = ChunkedFile(
            self.disk,
            groupby_record_format(self.schema, groupby, stored),
            self.space,
            self.buffer_pool,
            groupby=groupby,
        )
        table.bulk_load(rows)
        self.materialized[groupby] = table
        delta = self.disk.stats.delta(before)
        self.disk.stats.reads -= delta.reads
        self.disk.stats.writes -= delta.writes
        self.disk.stats.fault_latency -= delta.fault_latency
        self.buffer_pool.flush()

    def _choose_source(
        self,
        groupby: GroupBy,
        leaf_filters: Sequence | None,
    ) -> tuple[GroupBy, ChunkedFile] | None:
        """The cheapest materialized table that can answer ``groupby``.

        Returns None when the base table must be used: no compatible
        materialized table exists, or the request carries leaf-level
        dimension filters (only evaluable against base tuples).
        """
        if leaf_filters is not None and any(
            f is not None for f in leaf_filters
        ):
            return None
        assert self.chunked_file is not None
        best: tuple[GroupBy, ChunkedFile] | None = None
        # Compare physical size: an aggregate table with fat partial
        # columns can be *larger* than the base table when aggregation
        # barely reduces the row count; the base then stays the cheaper
        # source.
        best_pages = self.chunked_file.num_pages
        for candidate, table in self.materialized.items():
            if not self.schema.is_rollup_of(groupby, candidate):
                continue
            if table.num_pages < best_pages:
                best = (candidate, table)
                best_pages = table.num_pages
        return best

    # ------------------------------------------------------------------
    # Chunk interface (Section 5.2.3)
    # ------------------------------------------------------------------
    @_synchronized
    def compute_chunks(
        self,
        groupby: Sequence[int],
        numbers: Sequence[int],
        aggregates: Sequence[tuple[str, str]],
        leaf_filters: Sequence | None = None,
        prefer_base: bool = False,
    ) -> tuple[dict[int, np.ndarray], CostReport]:
        """Compute the requested chunks of a group-by from source chunks.

        The source is the cheapest compatible materialized aggregate
        table if one exists, else the base table.  For each target chunk
        the closure property names the exact source chunks to aggregate;
        source chunks shared between targets are read once.
        ``leaf_filters`` (per-dimension leaf intervals) are the query's
        non-group-by selections, folded in before aggregating — they
        force the base-table source, and the resulting chunks are only
        cacheable under a key carrying the same filters.
        ``prefer_base`` forces the base-table source even when a cheaper
        materialized table exists — the degrade path the pipeline takes
        after an aggregate-level read fault.  ``numbers`` must be
        distinct; a repeated number raises :class:`BackendError` before
        any page is read.  Returns a mapping from chunk number to its
        aggregated rows, in the order of ``numbers`` (empty chunks map to
        empty arrays), and the combined cost.

        An :class:`~repro.exceptions.InjectedFault` escaping this method
        carries the attempt's :class:`CostReport` (``cost_report``) and
        the source level that faulted (``source_level``), so callers can
        conserve the wasted I/O and pick a recovery path.
        """
        self._require_loaded()
        if self.chunked_file is None:
            raise BackendError(
                "the chunk interface requires the chunked organization"
            )
        groupby = self.schema.validate_groupby(groupby)
        numbers = list(numbers)
        if len(set(numbers)) != len(numbers):
            repeated = sorted({n for n in numbers if numbers.count(n) > 1})
            raise BackendError(f"chunk numbers {repeated} requested twice")
        if prefer_base:
            source = None
        else:
            source = self._choose_source(groupby, leaf_filters)
        results: dict[int, np.ndarray] = {}
        try:
            with measure_cost(self.disk, access_path="chunk") as report:
                if self.fault_hook is not None:
                    self.fault_hook("compute_chunks")
                if source is None:
                    source_groupby: GroupBy = self.schema.base_groupby
                    source_file = self.chunked_file
                else:
                    source_groupby, source_file = source
                source_numbers = self._union_source_chunks(
                    groupby, numbers, source_groupby
                )
                source_records = source_file.read_chunks(source_numbers)
                if source is None:
                    delta = self._delta_for_base_chunks(set(source_numbers))
                    if delta is not None and len(delta):
                        source_records = Columns.concatenate(
                            [source_records, delta]
                        )
                report.tuples_scanned += len(source_records)
                report.chunks_computed += len(numbers)
                # Rows come back grouped by target chunk, ascending, so
                # each requested chunk is one slice of them.
                rows, row_numbers = aggregate_chunks(
                    self.schema,
                    source_records,
                    self.space.grid(groupby),
                    aggregates,
                    self.mapper,
                    leaf_filters=leaf_filters,
                    partials_at=None if source is None else source_groupby,
                )
                wanted = np.asarray(numbers, dtype=np.int64)
                los = np.searchsorted(row_numbers, wanted, side="left")
                his = np.searchsorted(row_numbers, wanted, side="right")
                # Every chunk gets an array of its own (a view would pin
                # the whole batch in the cache).
                for number, lo, hi in zip(numbers, los.tolist(), his.tolist()):
                    results[number] = rows[lo:hi].copy()
                result_tuples = int((his - los).sum())
                if result_tuples != len(rows):
                    # Rows landing in un-requested chunks can only arise
                    # from a caller bug (source chunks exactly tile the
                    # targets).
                    stray = set(row_numbers.tolist()) - set(numbers)
                    raise BackendError(
                        f"aggregated rows fell into unrequested chunks {stray}"
                    )
                report.result_tuples += result_tuples
        except InjectedFault as fault:
            # measure_cost.__exit__ already ran, so ``report`` holds the
            # I/O of the failed attempt.  Attach it once (the innermost
            # computation wins when answer() routed through here).
            if fault.cost_report is None:
                fault.cost_report = report
                fault.source_level = (
                    "base" if source is None else "aggregate"
                )
            raise
        return results, report

    def _union_source_chunks(
        self,
        groupby: GroupBy,
        numbers: Sequence[int],
        source_groupby: GroupBy,
    ) -> list[int]:
        """Deduplicated, sorted source-chunk numbers covering all targets."""
        source_grid = self.space.grid(source_groupby)
        seen: set[int] = set()
        for spans in source_spans_many(
            self.space, groupby, numbers, source_groupby
        ):
            seen.update(source_grid.numbers_in_spans(spans))
        return sorted(seen)

    def _estimation_source(
        self, groupby: GroupBy
    ) -> tuple[GroupBy, ChunkedFile]:
        """Resolve the source table chunk-work estimates read from."""
        self._require_loaded()
        if self.chunked_file is None:
            raise BackendError(
                "the chunk interface requires the chunked organization"
            )
        source = self._choose_source(groupby, None)
        if source is None:
            return self.schema.base_groupby, self.chunked_file
        return source

    @_synchronized
    def estimate_chunk_work(
        self, groupby: Sequence[int], numbers: Sequence[int]
    ) -> tuple[int, int]:
        """``(data_pages, source_tuples)`` computing these chunks would cost.

        Uses the same source selection as :meth:`compute_chunks`
        (materialized table when available), exact extents, deduplicated
        across shared source chunks, and free of side effects on the
        measured I/O counters.  Used by the cache layers for benefit and
        cost-saving accounting.
        """
        groupby = self.schema.validate_groupby(groupby)
        source_groupby, source_file = self._estimation_source(groupby)
        source_numbers = self._union_source_chunks(
            groupby, list(numbers), source_groupby
        )
        return source_file.chunk_work_estimate(source_numbers)

    @_synchronized
    def estimate_chunk_work_batch(
        self, groupby: Sequence[int], numbers: Sequence[int]
    ) -> dict[int, tuple[int, int]]:
        """Per-chunk ``(data_pages, source_tuples)`` in one backend call.

        Each chunk is priced independently (a source chunk shared by two
        targets is charged to both, exactly as one
        :meth:`estimate_chunk_work` call per chunk would), but the source
        table is resolved and the group-by validated only once for the
        whole batch.  This is the probe the middle tier's
        :class:`repro.pipeline.work.ChunkWorkEstimator` issues — at most
        once per query — instead of one call per chunk.
        """
        groupby = self.schema.validate_groupby(groupby)
        source_groupby, source_file = self._estimation_source(groupby)
        source_grid = self.space.grid(source_groupby)
        all_spans = source_spans_many(
            self.space, groupby, numbers, source_groupby
        )
        return {
            number: source_file.chunk_work_estimate(
                source_grid.numbers_in_spans(spans)
            )
            for number, spans in zip(numbers, all_spans)
        }

    # ------------------------------------------------------------------
    # Updates (Section 5.3: "To allow for updates, some extra space can
    # be kept in each chunk.")
    # ------------------------------------------------------------------
    @_synchronized
    def append_records(self, records: np.ndarray) -> list[int]:
        """Append new fact tuples without reorganizing the chunked file.

        New tuples land in an unclustered *delta region*; every access
        path folds the delta in, so answers stay exact immediately.  The
        paper suggests per-chunk slack space for the same purpose — a
        delta region is the standard functional equivalent for a
        bulk-clustered file and keeps the main file's chunk -> page-range
        arithmetic intact.  Materialized aggregate tables are dropped
        (they no longer reflect the data); call :meth:`reorganize` to
        fold the delta into the clustered file and re-materialize.

        Returns:
            The sorted base-level chunk numbers the new tuples fall in —
            exactly the set a middle-tier cache must invalidate
            (:meth:`repro.core.manager.ChunkCacheManager.invalidate_base_chunks`).
        """
        self._require_loaded()
        if self.chunked_file is None:
            raise BackendError("updates require the chunked organization")
        if records.dtype != self.record_format.dtype:
            raise BackendError(
                f"records dtype {records.dtype} does not match fact format "
                f"{self.record_format.dtype}"
            )
        if len(records) == 0:
            return []
        self._check_ordinals(records)
        if self.delta_file is None:
            self.delta_file = FactFile(
                self.disk, self.record_format, self.buffer_pool
            )
        before = self.disk.stats.copy()
        self.delta_file.bulk_load(records)
        delta = self.disk.stats.delta(before)
        self.disk.stats.writes -= delta.writes  # appends are write I/O the
        self.disk.stats.reads -= delta.reads    # experiments do not measure
        self.disk.stats.fault_latency -= delta.fault_latency
        self.materialized.clear()
        self.space.set_base_tuples(
            self.space.base_tuples + len(records)
        )
        numbers = tuple_chunk_numbers(
            self.space.base_grid,
            records,
            tuple(d.name for d in self.schema.dimensions),
        )
        return sorted(set(int(n) for n in numbers))

    def _delta_for_base_chunks(self, base_numbers: set[int]) -> Columns | None:
        """Delta tuples falling into the given base chunks (reads the
        whole delta region — it is small between reorganizations), or
        None when there is no delta region."""
        if self.delta_file is None or not self.delta_file.num_records:
            return None
        delta = self.delta_file.read_all()
        numbers = tuple_chunk_numbers(
            self.space.base_grid,
            delta,
            tuple(d.name for d in self.schema.dimensions),
        )
        keep = np.isin(numbers, np.fromiter(base_numbers, dtype=np.int64))
        return delta.compress(keep)

    @_synchronized
    def reorganize(self) -> None:
        """Merge the delta region back into a freshly clustered file.

        Rebuilds the chunked file, its chunk index and the bitmap
        indexes over the combined data — the offline maintenance step
        that restores pure clustered access.  Excluded from the I/O
        counters like the initial bulk load.
        """
        self._require_loaded()
        if self.chunked_file is None:
            raise BackendError("updates require the chunked organization")
        if self.delta_file is None or not self.delta_file.num_records:
            return
        before = self.disk.stats.copy()
        combined = Columns.concatenate(
            [self.chunked_file.read_all(), self.delta_file.read_all()]
        ).to_records()
        self.chunked_file = ChunkedFile(
            self.disk, self.record_format, self.space, self.buffer_pool
        )
        self.chunked_file.bulk_load(combined)
        self.fact_file = self.chunked_file.fact_file
        self.delta_file = None
        self._build_bitmaps(self.chunked_file.read_all())
        delta = self.disk.stats.delta(before)
        self.disk.stats.reads -= delta.reads
        self.disk.stats.writes -= delta.writes
        self.disk.stats.fault_latency -= delta.fault_latency
        self.buffer_pool.flush()

    # ------------------------------------------------------------------
    # Relational interface
    # ------------------------------------------------------------------
    def _resolve_access_path(self, query: StarQuery, access_path: str) -> str:
        """The concrete path ``access_path`` means for ``query`` on this
        engine — what :meth:`answer` runs and :meth:`explain` describes.

        ``"auto"`` is bitmap when any selection exists and bitmaps exist
        (the stored table is non-empty), otherwise scan; an explicit path
        is checked against what the engine holds.
        """
        if access_path == "auto":
            has_selection = (
                any(s is not None for s in query.selections)
                or query.has_dim_filters()
            )
            return "bitmap" if has_selection and self.bitmaps else "scan"
        if access_path == "bitmap" and not self.bitmaps:
            raise BackendError("bitmap indexes were not built")
        if access_path == "chunk" and self.chunked_file is None:
            raise BackendError(
                "the chunk interface requires the chunked organization"
            )
        if access_path not in ("bitmap", "scan", "chunk"):
            raise BackendError(f"unknown access path {access_path!r}")
        return access_path

    @_synchronized
    def answer(
        self, query: StarQuery, access_path: str = "auto"
    ) -> tuple[np.ndarray, CostReport]:
        """Evaluate a whole star query directly against the backend.

        Args:
            query: The analyzed query.
            access_path: ``"bitmap"``, ``"scan"``, ``"chunk"`` or
                ``"auto"`` (bitmap when any selection exists and bitmaps
                exist; otherwise scan).
        """
        self._require_loaded()
        if self.fault_hook is not None:
            self.fault_hook("answer")
        access_path = self._resolve_access_path(query, access_path)
        if access_path == "bitmap":
            return self._answer_bitmap(query)
        if access_path == "scan":
            return self._answer_scan(query)
        return self._answer_chunks(query)

    def _answer_scan(self, query: StarQuery) -> tuple[np.ndarray, CostReport]:
        assert self.fact_file is not None
        with measure_cost(self.disk, access_path="scan") as report:
            records = self.fact_file.read_all()
            if self.delta_file is not None and self.delta_file.num_records:
                records = Columns.concatenate(
                    [records, self.delta_file.read_all()]
                )
            report.tuples_scanned += len(records)
            rows = aggregate_records(
                self.schema,
                records,
                query.groupby,
                query.aggregates,
                self.mapper,
                selection=query.selections,
                leaf_filters=query.effective_dim_filters(self.schema),
            )
            report.result_tuples += len(rows)
        return rows, report

    def _answer_bitmap(self, query: StarQuery) -> tuple[np.ndarray, CostReport]:
        assert self.fact_file is not None
        try:
            leaf_selection = query.leaf_selection(self.schema)
        except QueryError:
            # Selection and filter are provably disjoint: empty result,
            # no I/O.
            empty = query.result_format(self.schema).empty()
            return empty, CostReport(access_path="bitmap")
        restricted = [
            (dim.name, interval)
            for dim, interval in zip(self.schema.dimensions, leaf_selection)
            if interval is not None
        ]
        if not restricted:
            return self._answer_scan(query)
        with measure_cost(self.disk, access_path="bitmap") as report:
            masks = [
                self.bitmaps[name].select_range(lo, hi)
                for name, (lo, hi) in restricted
            ]
            mask = combine_and(masks)
            positions = BitmapIndex.positions(mask)
            records = self.fact_file.read_positions(positions)
            if self.delta_file is not None and self.delta_file.num_records:
                # Appended tuples are not in the bitmaps yet: scan the
                # (small) delta region and filter it directly.
                delta = self.delta_file.read_all()
                keep = np.ones(len(delta), dtype=bool)
                for dim, interval in zip(
                    self.schema.dimensions, leaf_selection
                ):
                    if interval is None:
                        continue
                    column = delta[dim.name]
                    keep &= (column >= interval[0]) & (
                        column < interval[1]
                    )
                records = Columns.concatenate([records, delta.compress(keep)])
            report.tuples_scanned += len(records)
            rows = aggregate_records(
                self.schema,
                records,
                query.groupby,
                query.aggregates,
                self.mapper,
                selection=query.selections,
                leaf_filters=query.effective_dim_filters(self.schema),
            )
            report.result_tuples += len(rows)
        return rows, report

    def _answer_chunks(self, query: StarQuery) -> tuple[np.ndarray, CostReport]:
        grid = self.space.grid(query.groupby)
        numbers = grid.chunk_numbers_for_selection(query.selections)
        chunks, report = self.compute_chunks(
            query.groupby, numbers, query.aggregates,
            leaf_filters=query.effective_dim_filters(self.schema),
        )
        rows = _concat(
            [chunks[n] for n in numbers], query.result_format(self.schema)
        )
        rows = _filter_rows(self.schema, rows, query)
        report.result_tuples = len(rows)
        return rows, report

    @_synchronized
    def explain(
        self, query: StarQuery, access_path: str = "auto"
    ) -> dict[str, object]:
        """Describe how a query would be evaluated, without running it.

        Returns a dictionary with the resolved access path, the chunk
        decomposition (chunk interface), the chosen source table
        (base or materialized), and the estimated physical work — the
        inspection surface a query optimizer would log.
        """
        self._require_loaded()
        access_path = self._resolve_access_path(query, access_path)
        plan: dict[str, object] = {
            "access_path": access_path, "groupby": query.groupby,
        }
        if self.chunked_file is not None:
            grid = self.space.grid(query.groupby)
            numbers = grid.chunk_numbers_for_selection(query.selections)
            filters = query.effective_dim_filters(self.schema)
            source = self._choose_source(query.groupby, filters)
            pages, tuples = self.estimate_chunk_work(
                query.groupby, numbers
            )
            plan["chunks"] = {
                "count": len(numbers),
                "source": (
                    "base" if source is None else f"materialized{source[0]}"
                ),
                "estimated_pages": pages,
                "estimated_tuples": tuples,
            }
        if access_path == "bitmap":
            plan["estimated_bitmap_pages"] = self.estimate_bitmap_pages(
                query
            )
        if access_path == "scan":
            assert self.fact_file is not None
            plan["scan_pages"] = self.fact_file.num_pages
        return plan

    # ------------------------------------------------------------------
    # Estimation helpers for the cache layers
    # ------------------------------------------------------------------
    @_synchronized
    def estimate_bitmap_pages(self, query: StarQuery) -> int:
        """Expected page reads of the bitmap path (index + data pages).

        An estimate used for cost-saving accounting; uses bitmap sizes and
        the qualifying tuple count implied by the selection, assuming
        uniformly spread data (the workload generator's distribution).
        """
        self._require_loaded()
        assert self.fact_file is not None
        try:
            leaf_selection = query.leaf_selection(self.schema)
        except QueryError:
            return 0
        index_pages = 0
        fraction = 1.0
        for dim, interval in zip(self.schema.dimensions, leaf_selection):
            if interval is None:
                continue
            bitmap = self.bitmaps.get(dim.name)
            if bitmap is None:
                continue
            num_values = interval[1] - interval[0]
            index_pages += bitmap.pages_for_selection(num_values)
            fraction *= num_values / dim.leaf_cardinality
        expected_tuples = self.num_records * fraction
        total_pages = self.fact_file.num_pages
        # Feller: distinct pages among P when drawing n tuples at random.
        if total_pages:
            data_pages = total_pages * (
                1.0 - (1.0 - 1.0 / total_pages) ** expected_tuples
            )
        else:
            data_pages = 0.0
        return index_pages + int(round(data_pages))


def _concat(
    parts: list[np.ndarray], record_format: RecordFormat
) -> np.ndarray:
    parts = [p for p in parts if len(p)]
    if not parts:
        return record_format.empty()
    return record_format.concatenate(parts)


def _filter_rows(
    schema: StarSchema, rows: np.ndarray, query: StarQuery
) -> np.ndarray:
    """Drop boundary-chunk rows outside the query's exact selection."""
    if len(rows) == 0:
        return rows
    mask = np.ones(len(rows), dtype=bool)
    for dim, level, interval in zip(
        schema.dimensions, query.groupby, query.selections
    ):
        if level == 0 or interval is None:
            continue
        column = rows[dim.name]
        mask &= (column >= interval[0]) & (column < interval[1])
    if mask.all():
        return rows
    return rows[mask]
