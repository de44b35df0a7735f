"""Dimensions and the domain index.

A :class:`Dimension` couples a :class:`~repro.schema.hierarchy.Hierarchy`
(the level structure and fanout) with the actual member values at every
level.  Members are stored in *hierarchical order* (Section 3.3 of the
paper): the ordinal assigned to each member is its position in an ordering
where siblings are adjacent and subtrees are contiguous, so that data
clustered by ordinal is automatically clustered by the hierarchy.

The :class:`DomainIndex` is the paper's mapping structure between a
dimension value and its ordinal number (Figure 4).  Queries arrive with
member *values* (``scity = "Madison"``); the chunking machinery works with
*ordinals*; the domain index converts between the two in O(1).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.exceptions import SchemaError, UnknownMemberError
from repro.schema.hierarchy import Hierarchy

__all__ = ["DomainIndex", "Dimension"]


class DomainIndex:
    """Bidirectional value <-> ordinal mapping for one hierarchy level.

    Args:
        values: Member values in hierarchical order; ordinal ``i`` maps to
            ``values[i]``.  Values must be hashable and unique.
    """

    def __init__(self, values: Sequence[object]) -> None:
        self._values: tuple[object, ...] = tuple(values)
        self._ordinals: dict[object, int] = {
            value: i for i, value in enumerate(self._values)
        }
        if len(self._ordinals) != len(self._values):
            raise SchemaError("domain index values must be unique")

    def __len__(self) -> int:
        return len(self._values)

    def ordinal_of(self, value: object) -> int:
        """Ordinal of ``value``; raises :class:`UnknownMemberError` if absent."""
        try:
            return self._ordinals[value]
        except KeyError:
            raise UnknownMemberError(f"unknown member {value!r}") from None

    def value_of(self, ordinal: int) -> object:
        """Value at ``ordinal``; raises :class:`UnknownMemberError` if absent."""
        if not 0 <= ordinal < len(self._values):
            raise UnknownMemberError(
                f"ordinal {ordinal} out of range 0..{len(self._values) - 1}"
            )
        return self._values[ordinal]

    def __contains__(self, value: object) -> bool:
        return value in self._ordinals

    @property
    def values(self) -> tuple[object, ...]:
        """All member values in ordinal order."""
        return self._values


class Dimension:
    """A dimension: a hierarchy plus member values at every level.

    Args:
        name: Dimension name (``"product"``, ``"store"`` ...).
        hierarchy: The level structure.
        members: Optional mapping from level number to the sequence of
            member values at that level, in hierarchical order.  Levels not
            present get synthetic values ``"<name>/<level-name>/<ordinal>"``.

    The leaf level's ordinals are what the fact table stores as foreign
    keys; see :mod:`repro.workload.data`.
    """

    def __init__(
        self,
        name: str,
        hierarchy: Hierarchy,
        members: Mapping[int, Sequence[object]] | None = None,
    ) -> None:
        if not name:
            raise SchemaError("dimension name must be non-empty")
        self.name = name
        self.hierarchy = hierarchy
        members = dict(members or {})
        self._domain_indexes: dict[int, DomainIndex] = {}
        for level in hierarchy:
            if level.number in members:
                values = members.pop(level.number)
                if len(values) != level.cardinality:
                    raise SchemaError(
                        f"level {level.name!r} of dimension {name!r} expects "
                        f"{level.cardinality} members, got {len(values)}"
                    )
            else:
                values = [
                    f"{name}/{level.name}/{i}" for i in range(level.cardinality)
                ]
            self._domain_indexes[level.number] = DomainIndex(values)
        if members:
            raise SchemaError(
                f"members given for unknown levels {sorted(members)} "
                f"of dimension {name!r}"
            )

    # ------------------------------------------------------------------
    # Structure shortcuts
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        """Number of hierarchy levels."""
        return self.hierarchy.size

    @property
    def leaf_level(self) -> int:
        """Level number of the finest (fact-table) level."""
        return self.hierarchy.leaf_level

    @property
    def leaf_cardinality(self) -> int:
        """Number of distinct leaf members."""
        return self.hierarchy.cardinality(self.leaf_level)

    def cardinality(self, level: int) -> int:
        """Number of distinct members at ``level``."""
        return self.hierarchy.cardinality(level)

    def domain_index(self, level: int) -> DomainIndex:
        """The value <-> ordinal map for ``level``."""
        try:
            return self._domain_indexes[level]
        except KeyError:
            raise SchemaError(
                f"dimension {self.name!r} has no level {level}"
            ) from None

    # ------------------------------------------------------------------
    # Value/ordinal conversion
    # ------------------------------------------------------------------
    def value_of(self, level: int, ordinal: int) -> object:
        """Member value for ``ordinal`` at ``level``."""
        return self.domain_index(level).value_of(ordinal)

    # ------------------------------------------------------------------
    # Hierarchy navigation (ordinal space), delegated
    # ------------------------------------------------------------------
    def ancestor_ordinal(self, level: int, ordinal: int, target_level: int) -> int:
        """Ancestor ordinal at ``target_level`` (at or above ``level``)."""
        return self.hierarchy.ancestor_ordinal(level, ordinal, target_level)

    def map_range(
        self, level: int, interval: tuple[int, int], target_level: int
    ) -> tuple[int, int]:
        """Map an ordinal interval down to a deeper level."""
        return self.hierarchy.map_range(level, interval, target_level)

    def __repr__(self) -> str:
        return f"Dimension({self.name!r}, {self.hierarchy!r})"
