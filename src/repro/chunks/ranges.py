"""Chunk ranges: hierarchy-aware division of a dimension into intervals.

This module implements Section 3.4 of the paper.  To chunk the
multidimensional space, the ordered distinct values of each dimension level
are divided into *chunk ranges*.  A naive uniform division breaks the
correspondence between levels (the paper's Figure 5): a range at level 2
could straddle two ranges at level 3, so chunks at level 2 could not be
computed from whole chunks at level 3.

The paper's ``CreateChunkRanges`` algorithm (Figure 6) fixes this by
dividing level 1 uniformly and then, for every chunk range at level ``l``,
dividing only the value range *it maps to* at level ``l + 1``.  The result
satisfies the **closure property**: every chunk range maps to a disjoint,
contiguous set of whole ranges at the next level.

:class:`DimensionChunking` stores the computed ranges for every level of a
dimension together with the parent-range -> child-range spans, and offers
the lookups the rest of the library needs (ordinal -> chunk index, ordinal
interval -> chunk-index interval, descend a chunk range to the leaf level).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import invariants
from repro.exceptions import ChunkingError
from repro.schema.dimension import Dimension

__all__ = [
    "ChunkRange",
    "uniform_division",
    "create_chunk_ranges",
    "desired_sizes_for_ratio",
    "DimensionChunking",
]


@dataclass(frozen=True)
class ChunkRange:
    """A half-open ordinal interval ``[lo, hi)`` at one hierarchy level."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi <= self.lo:
            raise ChunkingError(f"invalid chunk range [{self.lo}, {self.hi})")

    def __len__(self) -> int:
        return self.hi - self.lo

    def __contains__(self, ordinal: int) -> bool:
        return self.lo <= ordinal < self.hi


def uniform_division(lo: int, hi: int, size: int) -> list[ChunkRange]:
    """Divide ``[lo, hi)`` into consecutive ranges of ``size`` ordinals.

    The last range may be shorter.  ``size`` must be positive.
    """
    if size < 1:
        raise ChunkingError(f"range size must be >= 1, got {size}")
    if hi <= lo:
        raise ChunkingError(f"empty interval [{lo}, {hi})")
    return [
        ChunkRange(start, min(start + size, hi))
        for start in range(lo, hi, size)
    ]


def desired_sizes_for_ratio(dimension: Dimension, ratio: float) -> dict[int, int]:
    """Per-level desired chunk-range sizes proportional to level cardinality.

    Implements the sizing rule of Section 5.1: the chunk range at any level
    should be proportional to the number of distinct values at that level.
    ``ratio`` is the fraction of the level's domain one range should cover
    (the x-axis of the paper's Figure 12).  Sizes are clamped to
    ``[1, cardinality]``.
    """
    if not 0 < ratio <= 1:
        raise ChunkingError(f"ratio must be in (0, 1], got {ratio}")
    sizes = {}
    for level in dimension.hierarchy:
        size = max(1, round(ratio * level.cardinality))
        sizes[level.number] = min(size, level.cardinality)
    return sizes


def create_chunk_ranges(
    dimension: Dimension,
    desired_sizes: Mapping[int, int] | Sequence[int],
) -> dict[int, list[ChunkRange]]:
    """The paper's ``CreateChunkRanges`` algorithm (Section 3.4).

    Args:
        dimension: The dimension to chunk.
        desired_sizes: Desired range size per level, either a mapping from
            level number to size or a sequence indexed by ``level - 1``.

    Returns:
        A mapping from level number to its list of chunk ranges, ordered by
        ``lo``.  Ranges at level ``l + 1`` are generated per parent range at
        level ``l``, so each parent range maps to whole child ranges (the
        closure property).
    """
    sizes = _normalize_sizes(dimension, desired_sizes)
    hierarchy = dimension.hierarchy
    ranges: dict[int, list[ChunkRange]] = {}
    # Divide level 1 into uniform ranges.
    ranges[1] = uniform_division(0, hierarchy.cardinality(1), sizes[1])
    # For each chunk range at level l, divide the value range it maps to at
    # level l + 1 into uniform ranges.
    for level in range(1, hierarchy.size):
        child_ranges: list[ChunkRange] = []
        for parent_range in ranges[level]:
            lo, hi = hierarchy.map_range(
                level, (parent_range.lo, parent_range.hi), level + 1
            )
            child_ranges.extend(uniform_division(lo, hi, sizes[level + 1]))
        ranges[level + 1] = child_ranges
    return ranges


def _normalize_sizes(
    dimension: Dimension,
    desired_sizes: Mapping[int, int] | Sequence[int],
) -> dict[int, int]:
    hierarchy = dimension.hierarchy
    if isinstance(desired_sizes, Mapping):
        sizes = dict(desired_sizes)
    else:
        sizes = {i + 1: s for i, s in enumerate(desired_sizes)}
    missing = set(range(1, hierarchy.size + 1)) - set(sizes)
    if missing:
        raise ChunkingError(
            f"no desired chunk-range size for levels {sorted(missing)} of "
            f"dimension {dimension.name!r}"
        )
    for level, size in sizes.items():
        if level not in range(1, hierarchy.size + 1):
            raise ChunkingError(
                f"desired size given for unknown level {level} of "
                f"dimension {dimension.name!r}"
            )
        if size < 1:
            raise ChunkingError(
                f"desired size for level {level} must be >= 1, got {size}"
            )
    return sizes


class DimensionChunking:
    """Chunk ranges for every level of one dimension.

    Built from :func:`create_chunk_ranges`; additionally precomputes, for
    every range at level ``l``, the contiguous *span* of range indices at
    level ``l + 1`` that it maps to, and validates the closure property.

    Level ``0`` (the ``ALL`` level, dimension aggregated away) is handled
    uniformly: it has exactly one chunk slot whose span covers all ranges of
    level 1 (and transitively the whole dimension).
    """

    def __init__(
        self,
        dimension: Dimension,
        desired_sizes: Mapping[int, int] | Sequence[int],
    ) -> None:
        self.dimension = dimension
        self._ranges = create_chunk_ranges(dimension, desired_sizes)
        # Boundary arrays for bisect-based ordinal -> chunk-index lookup.
        self._starts: dict[int, list[int]] = {
            level: [r.lo for r in level_ranges]
            for level, level_ranges in self._ranges.items()
        }
        # Level sizes, held here so the per-query range check of
        # chunk_span_for_interval is one probe, not a walk through
        # dimension -> hierarchy -> level.
        self._cardinalities: dict[int, int] = {
            level: dimension.cardinality(level) for level in self._ranges
        }
        self._child_spans = self._compute_child_spans()
        if invariants.deep():
            invariants.check_closure(self)

    def _compute_child_spans(self) -> dict[int, list[tuple[int, int]]]:
        """For each level ``l`` range index, its range-index span at ``l+1``.

        Raises:
            ChunkingError: If a parent range does not map to whole child
                ranges (closure property violation — cannot happen for
                output of :func:`create_chunk_ranges`, but this class also
                accepts hand-built ranges in tests).
        """
        spans: dict[int, list[tuple[int, int]]] = {}
        hierarchy = self.dimension.hierarchy
        for level in range(1, hierarchy.size):
            child_starts = self._starts[level + 1]
            child_ranges = self._ranges[level + 1]
            level_spans: list[tuple[int, int]] = []
            for parent_range in self._ranges[level]:
                lo, hi = hierarchy.map_range(
                    level, (parent_range.lo, parent_range.hi), level + 1
                )
                ilo = bisect_right(child_starts, lo) - 1
                ihi = bisect_right(child_starts, hi - 1)
                if (
                    ilo < 0
                    or child_ranges[ilo].lo != lo
                    or child_ranges[ihi - 1].hi != hi
                ):
                    raise ChunkingError(
                        f"closure property violated: range "
                        f"[{parent_range.lo}, {parent_range.hi}) at level "
                        f"{level} of {self.dimension.name!r} maps to "
                        f"[{lo}, {hi}) at level {level + 1}, which is not a "
                        "whole number of child ranges"
                    )
                level_spans.append((ilo, ihi))
            spans[level] = level_spans
        return spans

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def num_chunks(self, level: int) -> int:
        """Number of chunk ranges at ``level`` (1 for the ALL level 0)."""
        if level == 0:
            return 1
        return len(self._level_ranges(level))

    def ranges(self, level: int) -> tuple[ChunkRange, ...]:
        """All chunk ranges at ``level`` in ordinal order."""
        return tuple(self._level_ranges(level))

    def range_at(self, level: int, index: int) -> ChunkRange:
        """The ``index``-th chunk range at ``level``."""
        level_ranges = self._level_ranges(level)
        if not 0 <= index < len(level_ranges):
            raise ChunkingError(
                f"chunk index {index} out of range at level {level} of "
                f"{self.dimension.name!r} ({len(level_ranges)} ranges)"
            )
        return level_ranges[index]

    def range_starts(self, level: int) -> tuple[int, ...]:
        """The ``lo`` boundary of every range at ``level``, ascending.

        The chunked file builds its ordinal -> chunk-index table from
        these (``repro.storage.chunkedfile._ordinal_table``).
        """
        self._level_ranges(level)  # existence check
        return tuple(self._starts[level])

    def chunk_index_of(self, level: int, ordinal: int) -> int:
        """Chunk index containing ``ordinal`` at ``level``.

        This is the paper's ``x / c_i`` map generalized to hierarchy-aware
        (non-uniform) ranges via binary search.
        """
        if not 0 <= ordinal < self._cardinality(level):
            raise ChunkingError(
                f"ordinal {ordinal} out of range at level {level} of "
                f"{self.dimension.name!r}"
            )
        return bisect_right(self._starts[level], ordinal) - 1

    def chunk_span_for_interval(
        self, level: int, interval: tuple[int, int]
    ) -> tuple[int, int]:
        """Chunk-index span ``[ilo, ihi)`` covering ordinal ``[lo, hi)``.

        The returned chunks form the paper's *bounding envelope*: they may
        contain ordinals outside the interval at either end.
        """
        lo, hi = interval
        if hi <= lo:
            raise ChunkingError(f"empty ordinal interval [{lo}, {hi})")
        if lo < 0 or hi > self._cardinality(level):
            # Let chunk_index_of name the offending bound.
            self.chunk_index_of(level, lo)
            self.chunk_index_of(level, hi - 1)
        starts = self._starts[level]
        return (bisect_right(starts, lo) - 1, bisect_right(starts, hi - 1))

    def span_is_exact(
        self, level: int, interval: tuple[int, int], span: tuple[int, int]
    ) -> bool:
        """Whether ordinal ``interval`` is exactly the union of the chunk
        ranges ``span`` (its :meth:`chunk_span_for_interval`), i.e. the
        bounding envelope holds no ordinal outside the interval."""
        level_ranges = self._ranges[level]
        return (
            level_ranges[span[0]].lo == interval[0]
            and level_ranges[span[1] - 1].hi == interval[1]
        )

    def child_span(self, level: int, index: int) -> tuple[int, int]:
        """Range-index span at ``level + 1`` of range ``index`` at ``level``.

        For ``level == 0`` the span covers all ranges of level 1.
        """
        if level == 0:
            return (0, self.num_chunks(1))
        if level >= self.dimension.leaf_level:
            raise ChunkingError("leaf level has no child ranges")
        self.range_at(level, index)  # bounds check
        return self._child_spans[level][index]

    def descend_span(
        self, level: int, index: int, target_level: int
    ) -> tuple[int, int]:
        """Range-index span at ``target_level`` under one range at ``level``.

        Repeatedly applies :meth:`child_span`; the closure property
        guarantees the result stays a contiguous span.  ``level`` may be 0
        (ALL), in which case the span covers all of ``target_level``.
        """
        if target_level < level or target_level > self.dimension.leaf_level:
            raise ChunkingError(
                f"cannot descend from level {level} to level {target_level}"
            )
        if level == target_level:
            if level > 0:
                self.range_at(level, index)  # bounds check
            elif index != 0:
                raise ChunkingError("the ALL level has a single chunk slot 0")
            return (index, index + 1)
        lo, hi = self.child_span(level, index)
        for lv in range(level + 1, target_level):
            lo = self._child_spans[lv][lo][0]
            hi = self._child_spans[lv][hi - 1][1]
        return (lo, hi)

    def leaf_span(self, level: int, index: int) -> tuple[int, int]:
        """Range-index span at the leaf level under one range at ``level``."""
        return self.descend_span(level, index, self.dimension.leaf_level)

    def _cardinality(self, level: int) -> int:
        cardinality = self._cardinalities.get(level)
        if cardinality is None:
            # Not a level of this dimension: the schema names the error.
            return self.dimension.cardinality(level)
        return cardinality

    def _level_ranges(self, level: int) -> list[ChunkRange]:
        try:
            return self._ranges[level]
        except KeyError:
            raise ChunkingError(
                f"dimension {self.dimension.name!r} has no level {level}"
            ) from None

    def __repr__(self) -> str:
        counts = {level: len(r) for level, r in self._ranges.items()}
        return f"DimensionChunking({self.dimension.name!r}, chunks={counts})"
