"""Grouping by sorting, over structured records: the aggregation oracle.

:func:`reference_grouping` maps every record's ordinals up to the target
level through :class:`~repro.backend.aggregate.LevelMapper`'s tables,
builds a row-major ``int64`` key, finds the groups with ``np.unique``
and reduces each aggregate over ``np.unique``'s inverse
(:func:`apply_aggregate`).  It is the grouping ``aggregate_records`` and
``reaggregate`` each carried before they shared a kernel, with the
reductions of the record-array kernel that the column kernel replaced;
the kernel's output must equal it byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BackendError
from repro.storage.record import groupby_record_format


def apply_aggregate(aggregate, values, inverse, num_groups):
    """One aggregate of ``values`` per group, as ``float64`` (``count``
    as ``int64``): ``bincount`` for sums and counts, ``ufunc.at`` for
    minima and maxima."""
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


def reference_grouping(
    schema, rows, from_groupby, to_groupby, aggregates, mapper,
    selection=None, leaf_filters=None, merge_partials=False,
):
    """Rows of ``to_groupby`` in :func:`groupby_record_format`, ascending
    by row-major key, from structured ``rows`` at ``from_groupby``.
    With ``merge_partials`` the inputs are aggregated rows
    (``reaggregate``), otherwise raw measure columns
    (``aggregate_records``)."""
    out_format = groupby_record_format(schema, to_groupby, aggregates)
    if leaf_filters is not None:
        pre_mask = np.ones(len(rows), dtype=bool)
        for dim, leaf_filter in zip(schema.dimensions, leaf_filters):
            if leaf_filter is not None:
                column = rows[dim.name]
                pre_mask &= (column >= leaf_filter[0]) & (
                    column < leaf_filter[1]
                )
        rows = rows[pre_mask]
    mapped, radices, names = [], [], []
    mask = np.ones(len(rows), dtype=bool)
    for pos, (dim, t_level, f_level) in enumerate(
        zip(schema.dimensions, to_groupby, from_groupby)
    ):
        if t_level == 0:
            continue
        source = rows[dim.name].astype(np.int64, copy=False)
        if t_level == f_level:
            ordinals = source
        else:
            ordinals = mapper.table(pos, f_level, t_level)[source]
        if selection is not None and selection[pos] is not None:
            lo, hi = selection[pos]
            mask &= (ordinals >= lo) & (ordinals < hi)
        mapped.append(ordinals)
        radices.append(dim.cardinality(t_level))
        names.append(dim.name)
    rows = rows[mask]
    mapped = [m[mask] for m in mapped]
    if len(rows) == 0:
        return out_format.empty()
    if mapped:
        keys = np.zeros(len(rows), dtype=np.int64)
        for ordinals, radix in zip(mapped, radices):
            keys = keys * radix + ordinals
        unique_keys, inverse = np.unique(keys, return_inverse=True)
    else:
        unique_keys = np.zeros(1, dtype=np.int64)
        inverse = np.zeros(len(rows), dtype=np.int64)
    result = out_format.empty(len(unique_keys))
    remaining = unique_keys.copy()
    for name, radix in zip(reversed(names), reversed(radices)):
        remaining, column = np.divmod(remaining, radix)
        result[name] = column
    for measure_name, agg in aggregates:
        column = f"{agg}_{measure_name}"
        if merge_partials:
            values = rows[column]
            agg = "sum" if agg in ("sum", "count") else agg
        else:
            values = rows[measure_name]
        result[column] = apply_aggregate(
            agg, values, inverse, len(unique_keys)
        )
    return result


def reference_finalize(schema, partials, from_groupby, to_groupby,
                       stored, requested, mapper):
    """``finalize_partials`` by the reference: merge the stored partials
    with :func:`reference_grouping`, then derive each requested column
    (``avg`` as merged sum over merged count)."""
    merged = reference_grouping(
        schema, partials, from_groupby, to_groupby, stored, mapper,
        merge_partials=True,
    )
    expected = groupby_record_format(schema, to_groupby, requested).empty(
        len(merged)
    )
    for dim, level in zip(schema.dimensions, to_groupby):
        if level:
            expected[dim.name] = merged[dim.name]
    for measure, agg in requested:
        if agg == "avg":
            with np.errstate(invalid="ignore", divide="ignore"):
                expected[f"avg_{measure}"] = (
                    merged[f"sum_{measure}"] / merged[f"count_{measure}"]
                )
        else:
            expected[f"{agg}_{measure}"] = merged[f"{agg}_{measure}"]
    return expected
