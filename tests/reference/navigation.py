"""Hierarchy navigation by brute force: walk children, scan members.

:class:`ReferenceHierarchy` answers every navigation question of
:class:`repro.schema.hierarchy.Hierarchy` from the ``child_starts`` input
alone, without tables or bisection: a member's descendants are found by
walking the children of each member level by level, a parent by scanning
the members one level up for the one whose children hold the ordinal.
Every out-of-range input raises :class:`SchemaError` with the message the
hierarchy raises for it.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import SchemaError


class ReferenceHierarchy:
    """Navigation over ``cardinalities`` (most aggregated level first)
    and the ``child_starts`` table of each non-leaf level."""

    def __init__(
        self, cardinalities: Sequence[int], child_starts: Sequence[Sequence[int]]
    ) -> None:
        self.cardinalities = list(cardinalities)
        self.child_starts = [list(starts) for starts in child_starts]
        self.size = len(self.cardinalities)

    # -- checks, with the hierarchy's messages --------------------------
    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.size:
            raise SchemaError(f"level {level} out of range 1..{self.size}")

    def _check_ordinal(self, level: int, ordinal: int) -> None:
        cardinality = self.cardinalities[level - 1]
        if not 0 <= ordinal < cardinality:
            raise SchemaError(
                f"ordinal {ordinal} out of range at level {level} "
                f"(cardinality {cardinality})"
            )

    # -- brute force ----------------------------------------------------
    def _children(self, level: int, ordinal: int) -> list[int]:
        starts = self.child_starts[level - 1]
        return list(range(starts[ordinal], starts[ordinal + 1]))

    def _descendants(self, level: int, ordinal: int, target: int) -> list[int]:
        members = [ordinal]
        for lv in range(level, target):
            members = [c for m in members for c in self._children(lv, m)]
        return members

    def _parent(self, level: int, ordinal: int) -> int:
        return next(
            parent
            for parent in range(self.cardinalities[level - 2])
            if ordinal in self._children(level - 1, parent)
        )

    # -- the navigation surface -----------------------------------------
    def cardinality(self, level: int) -> int:
        self._check_level(level)
        return self.cardinalities[level - 1]

    def ancestor_ordinal(self, level: int, ordinal: int, target_level: int) -> int:
        self._check_level(level)
        self._check_level(target_level)
        if target_level > level:
            raise SchemaError(
                f"target level {target_level} is below source level {level}"
            )
        self._check_ordinal(level, ordinal)
        for lv in range(level, target_level, -1):
            ordinal = self._parent(lv, ordinal)
        return ordinal

    def map_range(
        self, level: int, interval: tuple[int, int], target_level: int
    ) -> tuple[int, int]:
        self._check_level(level)
        self._check_level(target_level)
        lo, hi = interval
        if not 0 <= lo < hi <= self.cardinalities[level - 1]:
            raise SchemaError(
                f"interval [{lo}, {hi}) out of range at level {level}"
            )
        if target_level < level:
            raise SchemaError(
                f"target level {target_level} is above source level {level}; "
                "use ancestor_ordinal to roll up"
            )
        members = [
            d
            for ordinal in range(lo, hi)
            for d in self._descendants(level, ordinal, target_level)
        ]
        return members[0], members[-1] + 1

    def contained_interval(
        self, level: int, leaf_interval: tuple[int, int]
    ) -> tuple[int, int] | None:
        self._check_level(level)
        leaf_lo, leaf_hi = leaf_interval
        if not 0 <= leaf_lo < leaf_hi <= self.cardinalities[-1]:
            raise SchemaError(
                f"leaf interval [{leaf_lo}, {leaf_hi}) out of range"
            )
        inside = [
            ordinal
            for ordinal in range(self.cardinalities[level - 1])
            if all(
                leaf_lo <= leaf < leaf_hi
                for leaf in self._descendants(level, ordinal, self.size)
            )
        ]
        if not inside:
            return None
        return inside[0], inside[-1] + 1

    def descendant_starts(self, level: int, target_level: int) -> tuple[int, ...]:
        self._check_level(level)
        self._check_level(target_level)
        if target_level < level:
            raise SchemaError(
                f"target level {target_level} is above source level {level}"
            )
        return tuple(
            self._descendants(level, ordinal, target_level)[0]
            for ordinal in range(self.cardinalities[level - 1])
        ) + (self.cardinalities[target_level - 1],)
