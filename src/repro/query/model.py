"""The star-join query model.

The paper assumes a star-join template (Section 5.2.1)::

    SELECT   <proj-list> <aggregate-list>
    FROM     <FactName> <dimension-list>
    WHERE    <select-list>
    GROUP BY <dimension-list>

After query analysis, such a query is fully described by:

- its **group-by**: one hierarchy level per dimension (0 == aggregated
  away) — which levels appear in the GROUP BY clause;
- its **selections on group-by attributes**: one optional ordinal interval
  per dimension, at that dimension's group-by level (post-aggregation
  filters that may be relaxed against the cache);
- its **selections on non-group-by attributes**: opaque predicates that are
  folded in *before* aggregation and must match a cached entry exactly
  (condition 3 of Section 5.2.1); and
- its **aggregate list**: ``(measure, aggregate)`` pairs.

:class:`StarQuery` is an immutable value object shared by the cache
managers, the backend engine and the workload generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.exceptions import QueryError
from repro.query.predicates import Interval, Selection, normalize_interval
from repro.schema.star import GroupBy, StarSchema
from repro.storage.record import RecordFormat, groupby_record_format

__all__ = ["QueryKey", "StarQuery"]

#: Hashable identity tuple derived from a query; contents are
#: heterogeneous (group-by, selections, aggregate list, predicate tags).
QueryKey = tuple[object, ...]


@dataclass(frozen=True)
class StarQuery:
    """An analyzed OLAP star-join query.

    Attributes:
        groupby: Level per dimension (0 == ALL).
        selections: Optional half-open ordinal interval per dimension, at
            the dimension's group-by level; None selects all members.
            Aggregated-away dimensions must carry None.  These are
            post-aggregation filters that the cache may relax (a cached
            chunk covering more is still reusable).
        aggregates: ``(measure_name, aggregate)`` pairs.
        dim_filters: Optional half-open *leaf-level* ordinal interval per
            dimension, applied to base tuples **before** aggregation —
            the paper's "selections on non-group-by attributes".  They
            are baked into every result tuple, so cached data is only
            reusable when they match exactly; each filter therefore also
            contributes a canonical tag to :attr:`fixed_predicates`.
        fixed_predicates: Canonical tags of the pre-aggregation
            predicates (dimension filters plus any caller-supplied opaque
            tags); cached results require an exact match (condition 3 of
            Section 5.2.1).

    Use :meth:`build` (ordinals) to construct validated instances;
    :func:`repro.backend.sql.parse_query` builds one from member values.
    """

    groupby: GroupBy
    selections: Selection
    aggregates: tuple[tuple[str, str], ...]
    dim_filters: Selection = ()
    fixed_predicates: frozenset[str] = field(default_factory=frozenset)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        schema: StarSchema,
        groupby: Sequence[int],
        selections: Sequence[Interval] | Mapping[str, Interval] | None = None,
        aggregates: Sequence[tuple[str, str]] | None = None,
        fixed_predicates: Sequence[str] = (),
        dim_filters: Sequence[Interval] | Mapping[str, Interval] | None = None,
    ) -> "StarQuery":
        """Validated construction from ordinal-space arguments.

        Args:
            schema: The star schema the query runs against.
            groupby: Level per dimension, in schema dimension order.
            selections: Either a sequence aligned with the dimensions or a
                mapping from dimension name to interval; omitted dimensions
                are unrestricted.  Intervals are clamped to the level's
                domain and full-domain intervals normalize to None.
            aggregates: Defaults to every measure with its default
                aggregate.
            fixed_predicates: Non-group-by predicate tags.

        Raises:
            QueryError: On arity mismatches, selections on aggregated-away
                dimensions, unknown measures, or empty intervals.
        """
        groupby = schema.validate_groupby(groupby)
        if selections is None:
            raw: list[Interval] = [None] * schema.num_dimensions
        elif isinstance(selections, Mapping):
            raw = [None] * schema.num_dimensions
            for name, interval in selections.items():
                raw[schema.dimension_position(name)] = interval
        else:
            raw = list(selections)
            if len(raw) != schema.num_dimensions:
                raise QueryError(
                    f"{len(raw)} selections for {schema.num_dimensions} "
                    "dimensions"
                )
        normalized: list[Interval] = []
        for dim, level, interval in zip(schema.dimensions, groupby, raw):
            if interval is None:
                normalized.append(None)
            elif level == 0:
                raise QueryError(
                    f"selection on aggregated-away dimension {dim.name!r}"
                )
            else:
                normalized.append(
                    normalize_interval(interval, dim.cardinality(level))
                )
        if aggregates is None:
            aggregates = [
                (m.name, m.default_aggregate) for m in schema.measures
            ]
        aggregates = tuple((str(m), str(a)) for m, a in aggregates)
        if not aggregates:
            raise QueryError("a star query needs at least one aggregate")
        for measure_name, aggregate in aggregates:
            if not schema.has_measure(measure_name):
                raise QueryError(f"unknown measure {measure_name!r}")
            if aggregate not in ("sum", "count", "min", "max", "avg"):
                raise QueryError(f"unknown aggregate {aggregate!r}")

        if dim_filters is None:
            raw_filters: list[Interval] = [None] * schema.num_dimensions
        elif isinstance(dim_filters, Mapping):
            raw_filters = [None] * schema.num_dimensions
            for name, interval in dim_filters.items():
                raw_filters[schema.dimension_position(name)] = interval
        else:
            raw_filters = list(dim_filters)
            if len(raw_filters) != schema.num_dimensions:
                raise QueryError(
                    f"{len(raw_filters)} dimension filters for "
                    f"{schema.num_dimensions} dimensions"
                )
        filters: list[Interval] = []
        tags = set(fixed_predicates)
        for dim, interval in zip(schema.dimensions, raw_filters):
            if interval is None:
                filters.append(None)
                continue
            normalized_filter = normalize_interval(
                interval, dim.leaf_cardinality
            )
            filters.append(normalized_filter)
            if normalized_filter is not None:
                tags.add(
                    f"{dim.name}.leaf in "
                    f"[{normalized_filter[0]},{normalized_filter[1]})"
                )
        return cls(
            groupby=groupby,
            selections=tuple(normalized),
            aggregates=aggregates,
            dim_filters=tuple(filters),
            fixed_predicates=frozenset(tags),
        )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    def shape_key(self) -> QueryKey:
        """Key under which cached results of this *shape* are reusable.

        Two queries can share cached data iff group-by, aggregate list and
        non-group-by predicates all agree (conditions 1–3 of Section
        5.2.1); only the group-by selections may differ.
        """
        return (self.groupby, self.aggregates, self.fixed_predicates)

    def exact_key(self) -> QueryKey:
        """Full identity key (used by the query-level cache)."""
        return (
            self.groupby,
            self.selections,
            self.aggregates,
            self.dim_filters,
            self.fixed_predicates,
        )

    def effective_dim_filters(self, schema: StarSchema) -> Selection:
        """Per-dimension leaf filters, padded to the schema's arity.

        Directly constructed instances may carry an empty ``dim_filters``
        tuple; this normalizes it to one entry per dimension.
        """
        if len(self.dim_filters) == schema.num_dimensions:
            return self.dim_filters
        if not self.dim_filters:
            return (None,) * schema.num_dimensions
        raise QueryError(
            f"dim_filters arity {len(self.dim_filters)} does not match "
            f"schema arity {schema.num_dimensions}"
        )

    def has_dim_filters(self) -> bool:
        """Whether any pre-aggregation dimension filter is set."""
        return any(f is not None for f in self.dim_filters)

    def result_format(self, schema: StarSchema) -> RecordFormat:
        """Record format of this query's result rows."""
        return groupby_record_format(schema, self.groupby, self.aggregates)

    def leaf_selection(self, schema: StarSchema) -> Selection:
        """All base-tuple restrictions as leaf-level ordinal intervals.

        Combines the group-by selections (mapped down the hierarchy) with
        the pre-aggregation dimension filters, intersected per dimension.
        Used by the bitmap access path, which selects base tuples before
        aggregating.

        Raises:
            QueryError: If a dimension's selection and filter are
                disjoint (the query provably selects nothing at that
                dimension — callers should treat the result as empty, so
                this is surfaced loudly rather than silently).
        """
        from repro.query.predicates import interval_intersect

        result: list[Interval] = []
        filters = self.effective_dim_filters(schema)
        for dim, level, interval, leaf_filter in zip(
            schema.dimensions, self.groupby, self.selections, filters
        ):
            if level == 0 or interval is None:
                mapped: Interval = None
            else:
                mapped = dim.map_range(level, interval, dim.leaf_level)
            merged = interval_intersect(mapped, leaf_filter)
            if merged == "empty":
                raise QueryError(
                    f"selection and filter on {dim.name!r} are disjoint"
                )
            result.append(merged)  # type: ignore[arg-type]
        return tuple(result)

    def __str__(self) -> str:
        parts = []
        for level, interval in zip(self.groupby, self.selections):
            if level == 0:
                parts.append("ALL")
            elif interval is None:
                parts.append(f"L{level}[*]")
            else:
                parts.append(f"L{level}[{interval[0]}:{interval[1]})")
        aggs = ",".join(f"{a}({m})" for m, a in self.aggregates)
        return f"StarQuery({' x '.join(parts)}; {aggs})"
