"""Group-by aggregation operators.

The backend computes chunks and full query results by aggregating base
(or finer-level) tuples up to a target group-by.  This module provides:

- :class:`LevelMapper` — cached numpy lookup tables mapping ordinals
  between hierarchy levels of each dimension (leaf -> level for base
  tuples, level -> level for re-aggregation);
- :func:`aggregate_records` — aggregation of base tuples to any
  group-by, with an optional post-mapping ordinal filter;
- :func:`reaggregate` — combine already-aggregated rows to a coarser
  group-by (the paper's future-work extension of aggregating chunks in
  the middle tier, Section 7);
- :func:`finalize_partials` — any aggregate list from the partials a
  materialized table stores;
- :func:`aggregate_chunks` — either of the two aggregations above with
  the rows grouped by target chunk, which is how the chunk interface
  computes several chunks in one pass.

All group through one kernel (:func:`_group`): a group is a cell of the
target group-by, addressed by its number — row-major, or chunk-major
when the rows are grouped by chunk (:class:`_KeyLayout`) — and while
the cells are dense the counts and sums are read straight from
``np.bincount`` over them, without sorting (DESIGN.md section 2.2).

Aggregates supported: ``sum``, ``count``, ``min``, ``max``, ``avg``.
``avg`` over base tuples is computed as sum/count; re-aggregating an
``avg`` is rejected (the partial results are insufficient), matching how
real systems decompose averages.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, TypeAlias

import numpy as np

from repro.chunks.grid import ChunkGrid
from repro.exceptions import BackendError
from repro.query.predicates import Interval
from repro.schema.dimension import Dimension
from repro.schema.star import GroupBy, StarSchema
from repro.storage.record import Columns, RecordFormat, groupby_record_format

__all__ = [
    "LevelMapper",
    "aggregate_chunks",
    "aggregate_records",
    "reaggregate",
    "PARTIAL_AGGREGATES",
    "partials_format_aggregates",
    "finalize_partials",
]

#: The decomposable partials a materialized aggregate table stores for
#: every measure; any requested aggregate (including avg) is computable
#: from them.
PARTIAL_AGGREGATES = ("sum", "count", "min", "max")

#: Rows per block of :func:`_cell_keys`: 32 768 int64 keys are 256 KiB,
#: which with a block of each cast index stays in a core's L2.
KEY_BLOCK = 1 << 15

#: Every aggregate the kernel computes.
AGGREGATES = ("sum", "count", "min", "max", "avg")

#: Aggregation input: columns as record files read them, or a structured
#: array (cached chunk rows, materialized partials, tests).
Records: TypeAlias = np.ndarray | Columns

#: Group keys are addressed as dense cells (no sort) while their observed
#: span is at most this many times their count; beyond it they are
#: sorted.  Fixed by the measurement in DESIGN.md section 2.2.
DENSE_SPAN_MULTIPLE = 8


class LevelMapper:
    """Cached ordinal lookup tables between hierarchy levels.

    ``table(dim_position, from_level, to_level)`` returns an int64 array
    ``t`` with ``t[ordinal_at_from_level] == ordinal_at_to_level`` where
    ``to_level`` is at or above ``from_level``.  Tables are built lazily
    and memoized, each with one ``np.repeat`` over the hierarchy's
    descendant starts.
    """

    def __init__(self, schema: StarSchema) -> None:
        self.schema = schema
        self._tables: dict[tuple[int, int, int], np.ndarray] = {}
        self._layouts: dict[
            tuple[GroupBy, GroupBy, ChunkGrid | None], _KeyLayout
        ] = {}

    def table(
        self, dim_position: int, from_level: int, to_level: int
    ) -> np.ndarray:
        """Lookup table mapping ``from_level`` ordinals to ``to_level``."""
        dim = self.schema.dimensions[dim_position]
        if not 1 <= to_level <= from_level <= dim.leaf_level:
            raise BackendError(
                f"cannot map level {from_level} to level {to_level} of "
                f"dimension {dim.name!r}"
            )
        key = (dim_position, from_level, to_level)
        cached = self._tables.get(key)
        if cached is not None:
            return cached
        # Member i at to_level owns from_level range(starts[i], starts[i + 1]).
        starts = dim.hierarchy.descendant_starts(to_level, from_level)
        table = np.repeat(
            np.arange(dim.cardinality(to_level), dtype=np.int64),
            np.diff(starts),
        )
        self._tables[key] = table
        return table

    def key_layout(
        self, from_groupby: GroupBy, to_groupby: GroupBy, grid: ChunkGrid | None
    ) -> _KeyLayout:
        """How :func:`_group` numbers the cells of ``to_groupby`` for
        records at ``from_groupby`` (memoized; see :class:`_KeyLayout`).

        Raises:
            BackendError: If the key space does not fit ``int64``.
        """
        memo = (from_groupby, to_groupby, grid)
        cached = self._layouts.get(memo)
        if cached is not None:
            return cached
        # Per retained dimension: the ordinal table, and the bounds of its
        # chunk ranges at the target level (first start .. cardinality).
        retained: list[tuple[int, Dimension, np.ndarray, np.ndarray]] = []
        for pos, (dim, f_level, t_level) in enumerate(
            zip(self.schema.dimensions, from_groupby, to_groupby)
        ):
            if t_level == 0:
                continue
            starts = (
                (0,) if grid is None
                else grid.chunkings[pos].range_starts(t_level)
            )
            bounds = np.append(
                np.asarray(starts, dtype=np.int64), dim.cardinality(t_level)
            )
            retained.append((pos, dim, self.table(pos, f_level, t_level), bounds))
        # Python ints: the check below must not wrap the way int64 keys
        # would.
        chunk_cells = math.prod(int(np.diff(b).max()) for *_, b in retained)
        key_space = math.prod(len(b) - 1 for *_, b in retained) * chunk_cells
        if key_space - 1 > np.iinfo(np.int64).max:
            raise BackendError(
                f"group-by {tuple(to_groupby)} has {key_space} cells; group "
                "keys would overflow int64"
            )
        axes: list[_Axis] = []
        chunk_stride, cell_stride = key_space, chunk_cells
        for pos, dim, table, bounds in retained:
            widths = np.diff(bounds)
            width = int(widths.max())
            chunk_stride //= len(widths)
            cell_stride //= width
            # Key part of every target ordinal: its range's index times
            # the chunk stride, plus its offset in the range times the
            # cell stride.
            coords = np.repeat(np.arange(len(widths), dtype=np.int64), widths)
            offsets = np.arange(len(coords), dtype=np.int64) - bounds[coords]
            parts = (coords * chunk_stride + offsets * cell_stride).take(table)
            axes.append(_Axis(pos, dim.name, table, parts, bounds[:-1], width))
        layout = _KeyLayout(tuple(axes), chunk_cells)
        self._layouts[memo] = layout
        return layout


class _Axis(NamedTuple):
    """One retained dimension of a :class:`_KeyLayout`."""

    position: int
    name: str
    #: ``from`` ordinal -> ``to`` ordinal.
    table: np.ndarray
    #: ``from`` ordinal -> its part of the cell key.
    parts: np.ndarray
    #: First ``to`` ordinal of each chunk range.
    starts: np.ndarray
    #: Members in the widest range.
    width: int


class _KeyLayout(NamedTuple):
    """Chunk-major cell numbering of a target group-by.

    A cell's key is the number of the chunk it lies in (row-major over
    the retained dimensions' chunk ranges) times :attr:`chunk_cells`,
    the cells of a chunk as wide as the widest range on every
    dimension, plus the cell's row-major offset inside that chunk.
    Without a grid every dimension is one range, and the key is the
    cell's row-major number over the group-by.
    """

    axes: tuple[_Axis, ...]
    chunk_cells: int


class _Cells:
    """The distinct cells of a non-empty key array, and what each
    aggregate reads from them.

    :attr:`cells` equals ``np.unique(keys)``.  A key is a cell number, so
    while the observed span is within :data:`DENSE_SPAN_MULTIPLE` times
    the key count the cells are addressed directly: counts and sums are
    one ``np.bincount`` over the span, read at the occupied cells —
    O(n + span), no sort.  Beyond it ``np.unique`` sorts the keys and
    the same bincounts run over the ranks it returns.  ``keys`` is
    scratch: the dense side rebases it in place.
    """

    def __init__(self, keys: np.ndarray) -> None:
        low = int(keys.min())
        span = int(keys.max()) - low + 1
        self._occupied: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._ranks: np.ndarray | None = None
        if span > DENSE_SPAN_MULTIPLE * len(keys):
            self.cells, self._index = np.unique(keys, return_inverse=True)
            self._length = len(self.cells)
            return
        keys -= low
        self._occupied = np.flatnonzero(np.bincount(keys, minlength=span))
        self._index, self._length = keys, span
        self.cells = self._occupied + low

    def _at_cells(self, per_index: np.ndarray) -> np.ndarray:
        """A bincount over the index space, read at the cells."""
        if self._occupied is None:
            return per_index
        return per_index[self._occupied]

    def counts(self) -> np.ndarray:
        """Keys per cell."""
        if self._counts is None:
            self._counts = self._at_cells(
                np.bincount(self._index, minlength=self._length)
            )
        return self._counts

    def ranks(self) -> np.ndarray:
        """Each key's cell rank (``np.unique``'s inverse)."""
        if self._occupied is None:
            return self._index
        if self._ranks is None:
            # Only the occupied cells of the span are ever written or read.
            ranks = np.empty(self._length, dtype=np.intp)
            ranks[self._occupied] = np.arange(
                len(self._occupied), dtype=np.intp
            )
            self._ranks = ranks.take(self._index)
        return self._ranks

    def reduce(self, aggregate: str, values: np.ndarray) -> np.ndarray:
        """``aggregate`` of ``values`` (one per key) per cell, in float64
        (``count`` in int64)."""
        if aggregate == "count":
            return self.counts()
        if aggregate in ("sum", "avg"):
            sums = self._at_cells(
                np.bincount(
                    self._index, weights=values, minlength=self._length
                )
            )
            return sums if aggregate == "sum" else sums / self.counts()
        ufunc: np.ufunc = np.minimum if aggregate == "min" else np.maximum
        out = np.full(len(self.cells), np.inf if aggregate == "min" else -np.inf)
        ufunc.at(out, self.ranks(), values.astype(np.float64, copy=False))
        return out


def _cell_keys(
    lookups: Sequence[tuple[np.ndarray, np.ndarray]], count: int
) -> np.ndarray:
    """``sum(table.take(index) for table, index in lookups)`` over
    ``count`` rows (zeros when there are no lookups), built
    :data:`KEY_BLOCK` rows at a time.  Each block of an index is cast to
    ``intp`` first — a ``take`` through a table casts any other index
    itself, several times slower — and the cast block, the partial keys
    and the gathered parts stay in cache while every dimension adds to
    them, where whole-length temporaries would go to memory and back
    once per dimension."""
    if not lookups:
        # Every dimension aggregated away: one group.
        return np.zeros(count, dtype=np.int64)
    keys = np.empty(count, dtype=np.int64)
    (first_table, first_index), *others = lookups
    for start in range(0, count, KEY_BLOCK):
        stop = start + KEY_BLOCK
        block = keys[start:stop]
        first_table.take(first_index[start:stop].astype(np.intp), out=block)
        for table, index in others:
            block += table.take(index[start:stop].astype(np.intp))
    return keys


def _group(
    schema: StarSchema,
    records: Records,
    from_groupby: GroupBy,
    to_groupby: GroupBy,
    reductions: Sequence[tuple[str, str, str]],
    out_format: RecordFormat,
    mapper: LevelMapper,
    selection: Sequence[Interval] | None,
    keep: np.ndarray | None = None,
    grid: ChunkGrid | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Group ``records`` (ordinals at ``from_groupby``) by ``to_groupby``.

    The one grouping kernel behind :func:`aggregate_records`,
    :func:`reaggregate`, :func:`finalize_partials` and
    :func:`aggregate_chunks`.  A group's key is its cell number under
    the mapper's :class:`_KeyLayout` for ``grid``; each dimension
    contributes through one lookup table (``from`` ordinal -> key part),
    so a key column costs one cast, one gather and one add per block of
    :func:`_cell_keys`.  ``selection`` filters at the target level;
    ``keep`` (a row mask, scratch) filters before it.

    ``reductions`` lists ``(output column, aggregate, input column)``;
    each reads only the rows that survive the filters.

    Returns:
        An ``out_format`` array with one row per group, ascending by
        key — grouped by ``grid`` chunk in ascending chunk number, each
        chunk's rows in row-major order — whose dimension columns hold
        the decoded group ordinals and whose output columns hold the
        reductions; and the ``grid`` chunk number of every row (zeros
        without a grid).
    """
    for _, aggregate, _ in reductions:
        if aggregate not in AGGREGATES:
            raise BackendError(f"unknown aggregate {aggregate!r}")
    layout = mapper.key_layout(tuple(from_groupby), tuple(to_groupby), grid)
    lookups: list[tuple[np.ndarray, np.ndarray]] = []
    mask = keep
    for axis in layout.axes:
        index = records[axis.name]
        lookups.append((axis.parts, index))
        if selection is not None and selection[axis.position] is not None:
            lo, hi = selection[axis.position]  # type: ignore[misc]
            inside = ((axis.table >= lo) & (axis.table < hi)).take(
                index.astype(np.intp)
            )
            if mask is None:
                mask = inside
            else:
                mask &= inside
    keys = _cell_keys(lookups, len(records))
    count = len(records)
    if mask is not None:
        count = int(np.count_nonzero(mask))
        if count == len(records):
            mask = None
        else:
            keys = keys.compress(mask)
    if count == 0:
        return out_format.empty(), np.zeros(0, dtype=np.int64)
    cells = _Cells(keys)
    result = out_format.empty(len(cells.cells))
    chunks = _decode(layout, cells.cells, result)
    for output, aggregate, source in reductions:
        values = records[source]
        if mask is not None and aggregate != "count":
            values = values.compress(mask)
        result[output] = cells.reduce(aggregate, values)
    return result, chunks


def _decode(
    layout: _KeyLayout, cells: np.ndarray, result: np.ndarray
) -> np.ndarray:
    """Write the ordinals of each of ``cells`` (keys under ``layout``)
    into ``result``'s dimension columns and return the cells' chunk
    numbers.  The per-cell temporaries are freed on return, before the
    reductions take their span-sized bincounts."""
    chunks, offset = np.divmod(cells, layout.chunk_cells)
    chunk = chunks
    for axis in reversed(layout.axes):
        offset, within = np.divmod(offset, axis.width)
        chunk, coord = np.divmod(chunk, len(axis.starts))
        result[axis.name] = axis.starts.take(coord) + within
    return chunks


def aggregate_records(
    schema: StarSchema,
    records: Records,
    groupby: Sequence[int],
    aggregates: Sequence[tuple[str, str]],
    mapper: LevelMapper,
    record_groupby: Sequence[int] | None = None,
    selection: Sequence[Interval] | None = None,
    leaf_filters: Sequence[Interval] | None = None,
) -> np.ndarray:
    """Aggregate tuples to a target group-by.

    Args:
        schema: The star schema.
        records: One ordinal column per dimension (named after the
            dimension) plus raw measure columns: a
            :class:`~repro.storage.record.Columns` (what record files
            read) or a structured array.
        groupby: Target level per dimension.
        aggregates: ``(measure, aggregate)`` output list.
        mapper: Shared level mapper.
        record_groupby: Levels the record ordinals are at; defaults to the
            base group-by (leaf levels).  Must be at least as fine as the
            target on every dimension.
        selection: Optional per-dimension ordinal interval filters applied
            *at the target level* after mapping (the post-aggregation
            group-by selections of Section 5.2.1).
        leaf_filters: Optional per-dimension leaf-ordinal intervals
            applied to the raw records *before* aggregation (the
            non-group-by selections of Section 5.2.1).  Requires the
            filtered dimensions' record ordinals to be at leaf level.

    Returns:
        A structured array in :func:`groupby_record_format` order, sorted
        by the combined group key (row-major over retained dimensions).
    """
    rows, _ = _aggregate(
        schema, records, groupby, aggregates, mapper, record_groupby,
        selection, leaf_filters, None,
    )
    return rows


def _aggregate(
    schema: StarSchema,
    records: Records,
    groupby: Sequence[int],
    aggregates: Sequence[tuple[str, str]],
    mapper: LevelMapper,
    record_groupby: Sequence[int] | None,
    selection: Sequence[Interval] | None,
    leaf_filters: Sequence[Interval] | None,
    grid: ChunkGrid | None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`aggregate_records`, grouped by ``grid`` as :func:`_group`
    groups."""
    groupby = schema.validate_groupby(groupby)
    if record_groupby is None:
        record_groupby = schema.base_groupby
    else:
        record_groupby = schema.validate_groupby(record_groupby)
    if not schema.is_rollup_of(groupby, record_groupby):
        raise BackendError(
            f"cannot aggregate records at {tuple(record_groupby)} "
            f"to {tuple(groupby)}"
        )
    out_format = groupby_record_format(schema, groupby, aggregates)

    # Pre-aggregation leaf filters, folded into the kernel's row mask.
    keep: np.ndarray | None = None
    if leaf_filters is not None:
        for dim, r_level, leaf_filter in zip(
            schema.dimensions, record_groupby, leaf_filters
        ):
            if leaf_filter is None:
                continue
            if r_level != dim.leaf_level:
                raise BackendError(
                    f"leaf filter on {dim.name!r} requires leaf-level "
                    f"records, got level {r_level}"
                )
            column = records[dim.name]
            inside = (column >= leaf_filter[0]) & (column < leaf_filter[1])
            if keep is None:
                keep = inside
            else:
                keep &= inside

    reductions = [
        (f"{aggregate}_{measure_name}", aggregate, measure_name)
        for measure_name, aggregate in aggregates
    ]
    return _group(
        schema, records, record_groupby, groupby, reductions, out_format,
        mapper, selection, keep, grid,
    )


def reaggregate(
    schema: StarSchema,
    rows: Records,
    from_groupby: Sequence[int],
    to_groupby: Sequence[int],
    aggregates: Sequence[tuple[str, str]],
    mapper: LevelMapper,
    selection: Sequence[Interval] | None = None,
) -> np.ndarray:
    """Combine aggregated rows to a coarser group-by.

    ``rows`` must be in the :func:`groupby_record_format` of
    ``from_groupby`` with the same ``aggregates``.  Only decomposable
    aggregates are supported: ``sum`` and ``count`` partials are summed,
    ``min``/``max`` partials are re-min/maxed; ``avg`` raises.

    This implements the middle-tier chunk aggregation the paper lists as
    future work (Section 7); see
    :meth:`repro.core.manager.ChunkCacheManager` for how it is used.
    """
    merged, _ = _reaggregate(
        schema, rows, from_groupby, to_groupby, aggregates, mapper,
        selection, None,
    )
    return merged


def _reaggregate(
    schema: StarSchema,
    rows: Records,
    from_groupby: Sequence[int],
    to_groupby: Sequence[int],
    aggregates: Sequence[tuple[str, str]],
    mapper: LevelMapper,
    selection: Sequence[Interval] | None,
    grid: ChunkGrid | None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reaggregate`, grouped by ``grid`` as :func:`_group`
    groups."""
    from_groupby = schema.validate_groupby(from_groupby)
    to_groupby = schema.validate_groupby(to_groupby)
    if not schema.is_rollup_of(to_groupby, from_groupby):
        raise BackendError(
            f"cannot re-aggregate {tuple(from_groupby)} to {tuple(to_groupby)}"
        )
    for measure_name, aggregate in aggregates:
        if aggregate == "avg":
            raise BackendError(
                "avg cannot be re-aggregated from partial averages; "
                "decompose it into sum and count"
            )

    out_format = groupby_record_format(schema, to_groupby, aggregates)
    # A count of counts is a sum; sums stay sums; min/max re-apply.
    reductions = [
        (
            f"{aggregate}_{measure_name}",
            "sum" if aggregate in ("sum", "count") else aggregate,
            f"{aggregate}_{measure_name}",
        )
        for measure_name, aggregate in aggregates
    ]
    return _group(
        schema, rows, from_groupby, to_groupby, reductions, out_format,
        mapper, selection, grid=grid,
    )


def partials_format_aggregates(schema: StarSchema) -> list[tuple[str, str]]:
    """The aggregate list a materialized table stores: all partials for
    every measure (``sum``, ``count``, ``min``, ``max`` per measure)."""
    return [
        (measure.name, aggregate)
        for measure in schema.measures
        for aggregate in PARTIAL_AGGREGATES
    ]


def finalize_partials(
    schema: StarSchema,
    rows: Records,
    from_groupby: Sequence[int],
    to_groupby: Sequence[int],
    requested: Sequence[tuple[str, str]],
    mapper: LevelMapper,
) -> np.ndarray:
    """Aggregate partials from a materialized table to a requested shape.

    ``rows`` must be in :func:`partials_format_aggregates` layout at
    ``from_groupby``.  Every requested aggregate — including ``avg``,
    which is finalized as merged sum over merged count — is derived from
    the stored partials, so a single materialized table serves any
    aggregate list (Section 2.4: "These tables will also be stored in a
    chunked format").
    """
    merged = reaggregate(
        schema, rows, from_groupby, to_groupby,
        partials_format_aggregates(schema), mapper,
    )
    return _derive(schema, merged, to_groupby, requested)


def _derive(
    schema: StarSchema,
    merged: np.ndarray,
    to_groupby: Sequence[int],
    requested: Sequence[tuple[str, str]],
) -> np.ndarray:
    """The ``requested`` aggregates of merged partial rows, in their
    :func:`groupby_record_format`."""
    out_format = groupby_record_format(schema, to_groupby, requested)
    result = out_format.empty(len(merged))
    for dim, level in zip(schema.dimensions, to_groupby):
        if level > 0:
            result[dim.name] = merged[dim.name]
    for measure_name, aggregate in requested:
        column = f"{aggregate}_{measure_name}"
        if aggregate == "avg":
            counts = merged[f"count_{measure_name}"]
            with np.errstate(invalid="ignore", divide="ignore"):
                result[column] = merged[f"sum_{measure_name}"] / counts
        elif aggregate in PARTIAL_AGGREGATES:
            result[column] = merged[f"{aggregate}_{measure_name}"]
        else:
            raise BackendError(
                f"aggregate {aggregate!r} cannot be derived from partials"
            )
    return result


def aggregate_chunks(
    schema: StarSchema,
    records: Records,
    grid: ChunkGrid,
    aggregates: Sequence[tuple[str, str]],
    mapper: LevelMapper,
    leaf_filters: Sequence[Interval] | None = None,
    partials_at: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``grid``'s group-by grouped by chunk, and each row's
    chunk number: what the chunk interface splits into chunks.

    Rows come in ascending chunk number, each chunk's rows in row-major
    order — the rows, in the order, that :func:`aggregate_records` (or
    :func:`finalize_partials`) gives a chunk computed alone — so a chunk
    is one slice, found by ``searchsorted`` on the numbers.

    Args:
        records: Raw base tuples, filtered by ``leaf_filters`` as
            :func:`aggregate_records` filters them; or, with
            ``partials_at``, the :func:`partials_format_aggregates` rows
            of a materialized table at that group-by, finalized as
            :func:`finalize_partials` finalizes them.
    """
    if partials_at is None:
        return _aggregate(
            schema, records, grid.groupby, aggregates, mapper, None, None,
            leaf_filters, grid,
        )
    merged, numbers = _reaggregate(
        schema, records, partials_at, grid.groupby,
        partials_format_aggregates(schema), mapper, None, grid,
    )
    return _derive(schema, merged, grid.groupby, aggregates), numbers
