"""Dimension hierarchies.

A *hierarchy* arranges the members of a dimension into levels of increasing
detail.  Following the paper's convention (Table 1), **level numbers increase
toward finer detail**: level 1 is the most aggregated level and level
``size`` (the *leaf level*) holds the base members that appear in the fact
table.  For example a ``Store`` dimension might have::

    level 1: state      (few members)
    level 2: city
    level 3: store      (leaf: foreign key of the fact table)

The :class:`Hierarchy` object itself is purely structural — it records level
names and the parent/child fanout.  Member values and their hierarchical
ordering live in :class:`repro.schema.dimension.Dimension`.

The central invariant (Section 3.3 of the paper) is *hierarchical ordering*:
members at every level are assigned ordinals such that the children of each
parent occupy a **contiguous ordinal range** and parents appear in the same
order as their child blocks.  :class:`Hierarchy` stores this as a
``child_starts`` table and offers range-mapping helpers used by the chunking
machinery (:mod:`repro.chunks.ranges`).

Because every member's descendants are one contiguous block at every deeper
level, the hierarchy is fully described by one table per pair of levels:
the first descendant of each member.  Those tables are built once from
``child_starts``; every navigation method is then an index into them or a
``bisect`` over them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.exceptions import SchemaError

__all__ = ["Level", "Hierarchy"]


@dataclass(frozen=True)
class Level:
    """One level of a dimension hierarchy.

    Attributes:
        number: 1-based level number; 1 is the most aggregated level and
            the highest number is the leaf level.
        name: Human-readable level name (``"state"``, ``"city"`` ...).
        cardinality: Number of distinct members at this level.
    """

    number: int
    name: str
    cardinality: int

    def __post_init__(self) -> None:
        if self.number < 1:
            raise SchemaError(f"level number must be >= 1, got {self.number}")
        if self.cardinality < 1:
            raise SchemaError(
                f"level {self.name!r} must have at least one member, "
                f"got cardinality {self.cardinality}"
            )


class Hierarchy:
    """The level structure of a dimension plus parent/child fanout.

    Args:
        levels: Levels ordered from most aggregated (level 1) to leaf.
            Cardinalities must be non-decreasing from level to level.
        child_starts: For each non-leaf level ``l`` (index ``l - 1``), an
            integer sequence ``s`` of length ``cardinality(l) + 1`` with
            ``s[0] == 0`` and ``s[-1] == cardinality(l + 1)``; the children
            of parent ordinal ``i`` at level ``l + 1`` are the ordinals
            ``range(s[i], s[i + 1])``.  Every parent must have at least one
            child.  If omitted, an even split is generated.

    Raises:
        SchemaError: If the level structure or fanout table is inconsistent.
    """

    def __init__(
        self,
        levels: Sequence[Level],
        child_starts: Sequence[Sequence[int]] | None = None,
    ) -> None:
        if not levels:
            raise SchemaError("a hierarchy needs at least one level")
        numbers = [level.number for level in levels]
        if numbers != list(range(1, len(levels) + 1)):
            raise SchemaError(
                f"level numbers must be 1..{len(levels)} in order, got {numbers}"
            )
        for upper, lower in zip(levels, levels[1:]):
            if lower.cardinality < upper.cardinality:
                raise SchemaError(
                    f"level {lower.name!r} has fewer members "
                    f"({lower.cardinality}) than its parent level "
                    f"{upper.name!r} ({upper.cardinality})"
                )
        self._levels: tuple[Level, ...] = tuple(levels)

        if child_starts is None:
            child_starts = [
                even_child_starts(parent.cardinality, child.cardinality)
                for parent, child in zip(levels, levels[1:])
            ]
        self._child_starts: tuple[tuple[int, ...], ...] = tuple(
            tuple(starts) for starts in child_starts
        )
        self._validate_child_starts()
        self._cardinalities: tuple[int, ...] = tuple(
            level.cardinality for level in self._levels
        )
        self._starts = self._descendant_tables()

    def _descendant_tables(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``t[l - 1][m - 1]`` for every pair of levels ``l <= m``: the first
        level-``m`` descendant of each level-``l`` member, then
        ``cardinality(m)`` as a sentinel (empty when ``m < l``)."""
        tables = []
        for level, cardinality in enumerate(self._cardinalities, start=1):
            starts = tuple(range(cardinality + 1))
            row: list[tuple[int, ...]] = [()] * (level - 1) + [starts]
            for child_starts in self._child_starts[level - 1:]:
                starts = tuple(child_starts[i] for i in starts)
                row.append(starts)
            tables.append(tuple(row))
        return tuple(tables)

    def _validate_child_starts(self) -> None:
        if len(self._child_starts) != self.size - 1:
            raise SchemaError(
                f"expected {self.size - 1} child-start tables, "
                f"got {len(self._child_starts)}"
            )
        for level_no, starts in enumerate(self._child_starts, start=1):
            parent = self._levels[level_no - 1]
            child = self._levels[level_no]
            if len(starts) != parent.cardinality + 1:
                raise SchemaError(
                    f"child_starts for level {level_no} must have "
                    f"{parent.cardinality + 1} entries, got {len(starts)}"
                )
            if starts[0] != 0 or starts[-1] != child.cardinality:
                raise SchemaError(
                    f"child_starts for level {level_no} must span "
                    f"[0, {child.cardinality}], got "
                    f"[{starts[0]}, {starts[-1]}]"
                )
            for i, (lo, hi) in enumerate(zip(starts, starts[1:])):
                if hi <= lo:
                    raise SchemaError(
                        f"parent ordinal {i} at level {level_no} has no "
                        f"children (starts {lo} >= {hi})"
                    )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of levels (the paper's *hiersize*)."""
        return len(self._levels)

    @property
    def leaf_level(self) -> int:
        """The finest level number (members stored in the fact table)."""
        return len(self._levels)

    @property
    def levels(self) -> tuple[Level, ...]:
        """All levels, most aggregated first."""
        return self._levels

    def level(self, number: int) -> Level:
        """Return the :class:`Level` with the given 1-based number."""
        self._check_level(number)
        return self._levels[number - 1]

    def cardinality(self, number: int) -> int:
        """Number of distinct members at level ``number``."""
        self._check_level(number)
        return self._cardinalities[number - 1]

    def descendant_starts(self, level: int, target_level: int) -> tuple[int, ...]:
        """First ``target_level`` descendant of each member at ``level``.

        Entry ``i`` is where member ``i``'s block starts; the last entry is
        ``cardinality(target_level)``, so member ``i`` owns
        ``range(s[i], s[i + 1])``.  ``target_level`` must be at or below
        ``level``.
        """
        self._check_level(level)
        self._check_level(target_level)
        if target_level < level:
            raise SchemaError(
                f"target level {target_level} is above source level {level}"
            )
        return self._starts[level - 1][target_level - 1]

    def _check_level(self, number: int) -> None:
        if not 1 <= number <= len(self._levels):
            raise SchemaError(
                f"level {number} out of range 1..{self.size}"
            )

    def __iter__(self) -> Iterator[Level]:
        return iter(self._levels)

    def __repr__(self) -> str:
        parts = ", ".join(f"{lv.name}({lv.cardinality})" for lv in self._levels)
        return f"Hierarchy[{parts}]"

    # ------------------------------------------------------------------
    # Ordinal navigation
    # ------------------------------------------------------------------
    def ancestor_ordinal(self, level: int, ordinal: int, target_level: int) -> int:
        """Ordinal of the ancestor of ``(level, ordinal)`` at ``target_level``.

        ``target_level`` must be at or above ``level``; when equal, the
        ordinal is returned unchanged.
        """
        self._check_level(level)
        self._check_level(target_level)
        if target_level > level:
            raise SchemaError(
                f"target level {target_level} is below source level {level}"
            )
        self._check_ordinal(level, ordinal)
        # The ancestor is the member whose block at ``level`` holds ordinal.
        starts = self._starts[target_level - 1][level - 1]
        return bisect_right(starts, ordinal) - 1

    def map_range(
        self, level: int, interval: tuple[int, int], target_level: int
    ) -> tuple[int, int]:
        """Map an ordinal interval ``[lo, hi)`` down to ``target_level``.

        The result covers exactly the descendants of the interval's members.
        """
        self._check_level(level)
        self._check_level(target_level)
        lo, hi = interval
        if not 0 <= lo < hi <= self._cardinalities[level - 1]:
            raise SchemaError(
                f"interval [{lo}, {hi}) out of range at level {level}"
            )
        if target_level < level:
            raise SchemaError(
                f"target level {target_level} is above source level {level}; "
                "use ancestor_ordinal to roll up"
            )
        starts = self._starts[level - 1][target_level - 1]
        return starts[lo], starts[hi]

    def contained_interval(
        self, level: int, leaf_interval: tuple[int, int]
    ) -> tuple[int, int] | None:
        """Largest ordinal interval at ``level`` fully inside a leaf interval.

        Returns the half-open interval of members at ``level`` whose entire
        descendant blocks lie within ``leaf_interval``, or None when no
        member fits.  Used to confine aggregated-level selections to a hot
        region defined in leaf space.
        """
        self._check_level(level)
        leaf_lo, leaf_hi = leaf_interval
        if not 0 <= leaf_lo < leaf_hi <= self._cardinalities[-1]:
            raise SchemaError(
                f"leaf interval [{leaf_lo}, {leaf_hi}) out of range"
            )
        starts = self._starts[level - 1][-1]
        # First member whose block starts at or after leaf_lo, and one past
        # the last member whose block ends (where the next starts) at or
        # before leaf_hi.
        first = bisect_left(starts, leaf_lo)
        last = bisect_right(starts, leaf_hi) - 1
        if first >= last:
            return None
        return (first, last)

    def _check_ordinal(self, level: int, ordinal: int) -> None:
        cardinality = self._cardinalities[level - 1]
        if not 0 <= ordinal < cardinality:
            raise SchemaError(
                f"ordinal {ordinal} out of range at level {level} "
                f"(cardinality {cardinality})"
            )


def even_child_starts(parents: int, children: int) -> tuple[int, ...]:
    """Distribute ``children`` members over ``parents`` as evenly as possible.

    Returns the ``child_starts`` table: entry ``i`` is the first child
    ordinal of parent ``i``.  The first ``children % parents`` parents get
    one extra child.

    >>> even_child_starts(3, 7)
    (0, 3, 5, 7)
    """
    if parents < 1:
        raise SchemaError("need at least one parent")
    if children < parents:
        raise SchemaError(
            f"cannot give {parents} parents at least one child each "
            f"from {children} children"
        )
    base, extra = divmod(children, parents)
    starts = [0]
    for i in range(parents):
        starts.append(starts[-1] + base + (1 if i < extra else 0))
    return tuple(starts)

