"""Star schema: dimensions plus fact-table measures.

In a star schema (Section 2.1 of the paper) a *fact table* stores one
foreign-key column per dimension (the leaf-level ordinal) and one column per
*measure* (the numeric values being aggregated, e.g. ``dollar_sales``).
:class:`StarSchema` ties together the :class:`~repro.schema.dimension.Dimension`
objects and :class:`Measure` definitions and answers structural questions the
rest of the library needs (group-by spaces, cube sizes, column layout).

A *group-by* (level of aggregation) is represented throughout the library as
a tuple of level numbers, one per dimension, where level ``0`` means the
dimension is aggregated away entirely (the ``ALL`` level) and level
``dimension.leaf_level`` is full detail.  The base fact table itself is the
group-by ``tuple(d.leaf_level for d in dims)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.exceptions import SchemaError
from repro.schema.dimension import Dimension

__all__ = ["Measure", "StarSchema", "GroupBy"]

#: A level of aggregation: one level number per dimension, 0 == ALL.
GroupBy = tuple[int, ...]


@dataclass(frozen=True)
class Measure:
    """A numeric fact-table column.

    Attributes:
        name: Column name (``"dollar_sales"``).
        dtype: Numpy dtype string for storage (default 8-byte float).
        default_aggregate: Aggregate applied when a query does not name one
            (``"sum"``, ``"count"``, ``"min"``, ``"max"``, ``"avg"``).
    """

    name: str
    dtype: str = "f8"
    default_aggregate: str = "sum"

    _ALLOWED_AGGREGATES = ("sum", "count", "min", "max", "avg")

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("measure name must be non-empty")
        if self.default_aggregate not in self._ALLOWED_AGGREGATES:
            raise SchemaError(
                f"unknown aggregate {self.default_aggregate!r}; expected one "
                f"of {self._ALLOWED_AGGREGATES}"
            )


class StarSchema:
    """A star schema: ordered dimensions and measures.

    Args:
        dimensions: The dimensions, in fact-table column order.
        measures: At least one measure.
        name: Optional schema name used in messages.
    """

    def __init__(
        self,
        dimensions: Sequence[Dimension],
        measures: Sequence[Measure],
        name: str = "star",
    ) -> None:
        if not dimensions:
            raise SchemaError("a star schema needs at least one dimension")
        if not measures:
            raise SchemaError("a star schema needs at least one measure")
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate dimension names in {names}")
        mnames = [m.name for m in measures]
        if len(set(mnames)) != len(mnames):
            raise SchemaError(f"duplicate measure names in {mnames}")
        overlap = set(names) & set(mnames)
        if overlap:
            raise SchemaError(
                f"names used for both a dimension and a measure: {overlap}"
            )
        self.name = name
        self.dimensions: tuple[Dimension, ...] = tuple(dimensions)
        self.measures: tuple[Measure, ...] = tuple(measures)
        self._dim_index = {d.name: i for i, d in enumerate(self.dimensions)}
        self._measure_index = {m.name: i for i, m in enumerate(self.measures)}
        # Group-bys validate_groupby has accepted (at most the lattice).
        self._valid_groupbys: set[GroupBy] = set()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def num_dimensions(self) -> int:
        """Number of dimensions."""
        return len(self.dimensions)

    def dimension(self, name: str) -> Dimension:
        """Dimension by name."""
        try:
            return self.dimensions[self._dim_index[name]]
        except KeyError:
            raise SchemaError(f"no dimension named {name!r}") from None

    def dimension_position(self, name: str) -> int:
        """Column position of a dimension in the fact table."""
        try:
            return self._dim_index[name]
        except KeyError:
            raise SchemaError(f"no dimension named {name!r}") from None

    def measure(self, name: str) -> Measure:
        """Measure by name."""
        try:
            return self.measures[self._measure_index[name]]
        except KeyError:
            raise SchemaError(f"no measure named {name!r}") from None

    def has_measure(self, name: str) -> bool:
        """Whether ``name`` is a measure of this schema."""
        return name in self._measure_index

    # ------------------------------------------------------------------
    # Group-by space
    # ------------------------------------------------------------------
    @property
    def base_groupby(self) -> GroupBy:
        """The group-by of the base fact table (leaf level everywhere)."""
        return tuple(d.leaf_level for d in self.dimensions)

    def validate_groupby(self, groupby: Sequence[int]) -> GroupBy:
        """Check a group-by tuple against the schema and normalize it.

        Raises:
            SchemaError: On wrong arity or out-of-range levels.
        """
        groupby = tuple(groupby)
        if groupby in self._valid_groupbys:
            return groupby
        if len(groupby) != self.num_dimensions:
            raise SchemaError(
                f"group-by {groupby} has {len(groupby)} entries; schema has "
                f"{self.num_dimensions} dimensions"
            )
        for dim, level in zip(self.dimensions, groupby):
            if not 0 <= level <= dim.leaf_level:
                raise SchemaError(
                    f"level {level} out of range 0..{dim.leaf_level} for "
                    f"dimension {dim.name!r}"
                )
        self._valid_groupbys.add(groupby)
        return groupby

    def all_groupbys(self) -> Iterator[GroupBy]:
        """Every group-by in the cube lattice, base first is NOT guaranteed.

        Yields all ``prod(leaf_level_i + 1)`` combinations in row-major
        order over dimension levels.
        """
        def recurse(
            prefix: tuple[int, ...], rest: Sequence[Dimension]
        ) -> Iterator[GroupBy]:
            if not rest:
                yield prefix
                return
            head, tail = rest[0], rest[1:]
            for level in range(head.leaf_level + 1):
                yield from recurse(prefix + (level,), tail)

        yield from recurse((), self.dimensions)

    def groupby_cardinality(self, groupby: Sequence[int]) -> int:
        """Upper bound on result rows of a group-by (product of level sizes).

        Aggregated-away dimensions (level 0) contribute a factor of 1.
        """
        groupby = self.validate_groupby(groupby)
        result = 1
        for dim, level in zip(self.dimensions, groupby):
            if level > 0:
                result *= dim.cardinality(level)
        return result

    def is_rollup_of(self, coarse: Sequence[int], fine: Sequence[int]) -> bool:
        """Whether ``coarse`` can be computed from ``fine`` by aggregation.

        True iff every dimension's level in ``coarse`` is at or above the
        corresponding level in ``fine`` (numerically ``<=``).
        """
        coarse = self.validate_groupby(coarse)
        fine = self.validate_groupby(fine)
        return all(c <= f for c, f in zip(coarse, fine))

    def __repr__(self) -> str:
        dims = ", ".join(d.name for d in self.dimensions)
        measures = ", ".join(m.name for m in self.measures)
        return f"StarSchema({self.name!r}, dims=[{dims}], measures=[{measures}])"
