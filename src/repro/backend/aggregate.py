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
  the middle tier, Section 7).

Both group through one kernel (:func:`_group`): a group is a cell of the
target group-by, addressed by its row-major number, and the distinct
cells are found without sorting while they are dense (DESIGN.md
section 2.2).

Aggregates supported: ``sum``, ``count``, ``min``, ``max``, ``avg``.
``avg`` over base tuples is computed as sum/count; re-aggregating an
``avg`` is rejected (the partial results are insufficient), matching how
real systems decompose averages.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.exceptions import BackendError
from repro.query.predicates import Interval
from repro.schema.star import GroupBy, StarSchema
from repro.storage.record import RecordFormat, groupby_record_format

__all__ = [
    "LevelMapper",
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

#: Aggregates whose partial results can be merged by re-applying them.
_SELF_DECOMPOSABLE = {"sum", "min", "max"}

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


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct ``keys`` and each key's rank among them.

    Equal, value for value, to ``np.unique(keys, return_inverse=True)``
    on a non-empty int64 array.  A key is a cell number, so while the
    observed span is within :data:`DENSE_SPAN_MULTIPLE` times the key
    count the cells are addressed directly — O(n + span), no sort.
    ``keys`` is scratch: the dense side rebases it in place.
    """
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    if span > DENSE_SPAN_MULTIPLE * len(keys):
        return np.unique(keys, return_inverse=True)
    keys -= low
    present = np.zeros(span, dtype=bool)
    present[keys] = True
    distinct = np.flatnonzero(present)
    # Rank table: only the cells that hold a key are ever written or read.
    ranks = np.empty(span, dtype=np.intp)
    ranks[distinct] = np.arange(len(distinct), dtype=np.intp)
    inverse = ranks.take(keys)
    distinct += low
    return distinct, inverse


def _group(
    schema: StarSchema,
    rows: np.ndarray,
    from_groupby: GroupBy,
    to_groupby: GroupBy,
    out_format: RecordFormat,
    mapper: LevelMapper,
    selection: Sequence[Interval] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group ``rows`` (ordinals at ``from_groupby``) by ``to_groupby``.

    The one grouping kernel behind :func:`aggregate_records` and
    :func:`reaggregate`.  A group's key is its row-major cell number
    over the retained dimensions; each dimension contributes through one
    lookup table (``from`` ordinal -> ``to`` ordinal times the
    dimension's stride), so a key column costs one index cast, one
    gather and one add.  ``selection`` filters at the target level
    through the same tables.

    Returns:
        ``(rows, result, inverse)``: the rows that survive ``selection``;
        a zeroed ``out_format`` array with one row per group, ascending
        by key, whose dimension columns hold the decoded group ordinals;
        and the ``result`` row each surviving row belongs to.
    """
    retained = [
        (pos, dim, f_level, t_level, dim.cardinality(t_level))
        for pos, (dim, f_level, t_level) in enumerate(
            zip(schema.dimensions, from_groupby, to_groupby)
        )
        if t_level > 0
    ]
    # Python ints: the check below must not wrap the way int64 keys would.
    key_space = math.prod(radix for *_, radix in retained)
    if key_space - 1 > np.iinfo(np.int64).max:
        raise BackendError(
            f"group-by {tuple(to_groupby)} has {key_space} cells; group "
            "keys would overflow int64"
        )

    keys: np.ndarray | None = None
    mask: np.ndarray | None = None
    stride = key_space
    for pos, dim, f_level, t_level, radix in retained:
        stride //= radix
        table = mapper.table(pos, f_level, t_level)
        index = rows[dim.name].astype(np.intp)
        contribution = (table * stride).take(index)
        if keys is None:
            keys = contribution
        else:
            keys += contribution
        if selection is not None and selection[pos] is not None:
            lo, hi = selection[pos]  # type: ignore[misc]
            inside = ((table >= lo) & (table < hi)).take(index)
            if mask is None:
                mask = inside
            else:
                mask &= inside
    if mask is not None and keys is not None and not mask.all():
        rows, keys = rows[mask], keys[mask]

    if len(rows) == 0:
        return rows, out_format.empty(), np.zeros(0, dtype=np.intp)
    if keys is None:
        # Every dimension aggregated away: one group.
        return rows, out_format.empty(1), np.zeros(len(rows), dtype=np.intp)
    distinct, inverse = _distinct(keys)
    result = out_format.empty(len(distinct))
    # Decode group keys back into per-dimension ordinal columns.
    remaining = distinct
    for _, dim, _, _, radix in reversed(retained):
        remaining, column = np.divmod(remaining, radix)
        result[dim.name] = column
    return rows, result, inverse


def aggregate_records(
    schema: StarSchema,
    records: np.ndarray,
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
        records: Structured array with one ordinal column per dimension
            (named after the dimension) plus raw measure columns.
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

    # Pre-aggregation leaf filters (fold in before anything else).
    if leaf_filters is not None:
        pre_mask: np.ndarray | None = None
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
            if pre_mask is None:
                pre_mask = inside
            else:
                pre_mask &= inside
        if pre_mask is not None and not pre_mask.all():
            records = records[pre_mask]

    records, result, inverse = _group(
        schema, records, record_groupby, groupby, out_format, mapper,
        selection,
    )
    for measure_name, aggregate in aggregates:
        result[f"{aggregate}_{measure_name}"] = _apply_aggregate(
            aggregate, records[measure_name], inverse, len(result)
        )
    return result


def _apply_aggregate(
    aggregate: str, values: np.ndarray, inverse: np.ndarray, num_groups: int
) -> np.ndarray:
    if aggregate == "sum":
        return np.bincount(
            inverse, weights=values.astype(np.float64), minlength=num_groups
        )
    if aggregate == "count":
        return np.bincount(inverse, minlength=num_groups)
    if aggregate == "avg":
        sums = np.bincount(
            inverse, weights=values.astype(np.float64), minlength=num_groups
        )
        counts = np.bincount(inverse, minlength=num_groups)
        return sums / counts
    if aggregate == "min":
        out = np.full(num_groups, np.inf)
        np.minimum.at(out, inverse, values.astype(np.float64))
        return out
    if aggregate == "max":
        out = np.full(num_groups, -np.inf)
        np.maximum.at(out, inverse, values.astype(np.float64))
        return out
    raise BackendError(f"unknown aggregate {aggregate!r}")


def reaggregate(
    schema: StarSchema,
    rows: np.ndarray,
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
    rows, result, inverse = _group(
        schema, rows, from_groupby, to_groupby, out_format, mapper, selection
    )
    for measure_name, aggregate in aggregates:
        column = f"{aggregate}_{measure_name}"
        # A count of counts is a sum; sums stay sums; min/max re-apply.
        merge = "sum" if aggregate in ("sum", "count") else aggregate
        result[column] = _apply_aggregate(
            merge, rows[column], inverse, len(result)
        )
    return result


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
    rows: np.ndarray,
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
    stored = partials_format_aggregates(schema)
    merged = reaggregate(
        schema, rows, from_groupby, to_groupby, stored, mapper
    )
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
