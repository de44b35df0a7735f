"""Chunk grids: chunk numbering within a group-by.

Once every dimension is divided into chunk ranges
(:mod:`repro.chunks.ranges`), the multidimensional space of each group-by is a
grid of chunks.  This module implements the paper's Section 5.2.2:

- ``getChNum`` — map a tuple of per-dimension chunk indices to a single
  chunk number via row-major ordering (the paper's Figure 8), and its
  inverse;
- ``ComputeChunkNums`` — convert the selection predicates of a query into
  the list of chunk numbers whose union covers the selection (the
  *bounding envelope*).

:class:`ChunkSpace` is the factory that owns one
:class:`~repro.chunks.ranges.DimensionChunking` per dimension and hands out
(and memoizes) a :class:`ChunkGrid` per group-by.  It also computes the
*benefit* of a chunk (Section 5.4): the fraction of the base table one
chunk of a group-by represents.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.chunks.ranges import ChunkRange, DimensionChunking, desired_sizes_for_ratio
from repro.exceptions import ChunkingError
from repro.schema.star import GroupBy, StarSchema

__all__ = ["ChunkGrid", "ChunkSpace"]

#: Per-dimension ordinal selection: half-open interval, or None for "all".
Selection = Sequence[tuple[int, int] | None]


class ChunkGrid:
    """The chunk grid of one group-by.

    Args:
        chunkings: One :class:`DimensionChunking` per schema dimension.
        groupby: Level per dimension (0 == ALL).

    The grid's *shape* has one entry per dimension: the number of chunk
    ranges at that dimension's level (1 for ALL dimensions).  Chunk numbers
    enumerate grid cells in row-major order, matching the paper's
    ``getChNum``.
    """

    def __init__(
        self, chunkings: Sequence[DimensionChunking], groupby: GroupBy
    ) -> None:
        if len(chunkings) != len(groupby):
            raise ChunkingError(
                f"{len(chunkings)} chunkings for group-by of arity "
                f"{len(groupby)}"
            )
        self.chunkings = tuple(chunkings)
        self.groupby = tuple(groupby)
        self.shape: tuple[int, ...] = tuple(
            chunking.num_chunks(level)
            for chunking, level in zip(self.chunkings, self.groupby)
        )
        # Row-major strides: the last dimension varies fastest.
        strides = [1] * len(self.shape)
        for i in range(len(self.shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.shape[i + 1]
        self.strides: tuple[int, ...] = tuple(strides)
        self.num_chunks: int = math.prod(self.shape)

    # ------------------------------------------------------------------
    # Numbering (getChNum and inverse)
    # ------------------------------------------------------------------
    def chunk_number(self, coords: Sequence[int]) -> int:
        """Row-major chunk number of per-dimension chunk indices.

        The paper's ``getChNum()`` (Figure 8).
        """
        if len(coords) != len(self.shape):
            raise ChunkingError(
                f"expected {len(self.shape)} coordinates, got {len(coords)}"
            )
        number = 0
        for coord, extent, stride in zip(coords, self.shape, self.strides):
            if not 0 <= coord < extent:
                raise ChunkingError(
                    f"chunk coordinate {coord} out of range 0..{extent - 1}"
                )
            number += coord * stride
        return number

    def coords_of(self, number: int) -> tuple[int, ...]:
        """Inverse of :meth:`chunk_number`."""
        if not 0 <= number < self.num_chunks:
            raise ChunkingError(
                f"chunk number {number} out of range 0..{self.num_chunks - 1}"
            )
        coords = []
        for stride, extent in zip(self.strides, self.shape):
            coord, number = divmod(number, stride)
            coords.append(coord)
        return tuple(coords)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def cell_ranges(self, number: int) -> tuple[ChunkRange | None, ...]:
        """Per-dimension ordinal ranges of one chunk (None for ALL dims)."""
        coords = self.coords_of(number)
        result: list[ChunkRange | None] = []
        for chunking, level, coord in zip(self.chunkings, self.groupby, coords):
            if level == 0:
                result.append(None)
            else:
                result.append(chunking.range_at(level, coord))
        return tuple(result)

    def cell_capacity(self, number: int) -> int:
        """Upper bound on result tuples inside one chunk.

        The product of its per-dimension range lengths (ALL dims count 1).
        """
        capacity = 1
        for rng in self.cell_ranges(number):
            if rng is not None:
                capacity *= len(rng)
        return capacity

    # ------------------------------------------------------------------
    # ComputeChunkNums (Section 5.2.2)
    # ------------------------------------------------------------------
    def selection_spans(self, selection: Selection) -> list[tuple[int, int]]:
        """Per-dimension chunk-index spans covering an ordinal selection.

        Args:
            selection: One entry per dimension: a half-open ordinal interval
                at the dimension's group-by level, or None to select all
                members.  Entries for ALL (level 0) dimensions must be None.
        """
        if len(selection) != len(self.shape):
            raise ChunkingError(
                f"expected {len(self.shape)} selection entries, "
                f"got {len(selection)}"
            )
        spans: list[tuple[int, int]] = []
        for chunking, level, extent, interval in zip(
            self.chunkings, self.groupby, self.shape, selection
        ):
            if level == 0:
                if interval is not None:
                    raise ChunkingError(
                        f"selection on aggregated-away dimension "
                        f"{chunking.dimension.name!r}"
                    )
                spans.append((0, 1))
            elif interval is None:
                spans.append((0, extent))
            else:
                spans.append(chunking.chunk_span_for_interval(level, interval))
        return spans

    def chunk_numbers_for_selection(self, selection: Selection) -> list[int]:
        """The paper's ``ComputeChunkNums``: chunk numbers covering a query.

        Takes the cross product of the per-dimension chunk-index spans and
        maps each coordinate tuple through :meth:`chunk_number`.  The result
        is sorted ascending (row-major enumeration order).
        """
        return self.numbers_in_spans(self.selection_spans(selection))

    def numbers_in_spans(self, spans: Sequence[tuple[int, int]]) -> list[int]:
        """Chunk numbers of the block ``spans`` describes, ascending.

        One pass per dimension over the numbers so far; a dimension the
        block does not extend along (the usual case) only shifts them.
        """
        offset = 0
        numbers = [0]
        for (lo, hi), stride in zip(spans, self.strides):
            if hi - lo == 1:
                offset += lo * stride
            else:
                steps = range(lo * stride, hi * stride, stride)
                numbers = [base + step for base in numbers for step in steps]
        if offset:
            numbers = [offset + number for number in numbers]
        return numbers

    def cut_dimensions(
        self, selection: Selection, spans: Sequence[tuple[int, int]]
    ) -> tuple[int, ...]:
        """Positions of the dimensions on which ``selection`` ends inside
        a chunk of ``spans`` (its :meth:`selection_spans`).

        On every other dimension the selection coincides with chunk-range
        boundaries, so no row of the block's chunks lies outside it there
        and the bounding envelope needs no trimming.
        """
        return tuple(
            position
            for position, interval in enumerate(selection)
            if interval is not None
            and not self.chunkings[position].span_is_exact(
                self.groupby[position], interval, spans[position]
            )
        )

    def count_for_selection(self, selection: Selection) -> int:
        """Number of chunks a selection touches, without enumerating them."""
        spans = self.selection_spans(selection)
        return math.prod(hi - lo for lo, hi in spans)

    def __repr__(self) -> str:
        return f"ChunkGrid(groupby={self.groupby}, shape={self.shape})"


class ChunkSpace:
    """Chunk geometry for an entire star schema.

    Owns one :class:`DimensionChunking` per dimension and memoizes one
    :class:`ChunkGrid` per group-by.  This is the single object the cache
    manager, the backend, and the chunked file all share, so that every
    component agrees on chunk boundaries and numbering.

    Args:
        schema: The star schema.
        desired_sizes: Either a single ratio in ``(0, 1]`` applied to every
            dimension via :func:`~repro.chunks.ranges.desired_sizes_for_ratio`,
            or a mapping from dimension name to a per-level size mapping.
        base_tuples: Number of tuples in the base fact table; used for
            chunk benefits.  May be updated later via :meth:`set_base_tuples`.
    """

    DEFAULT_RATIO = 0.1

    def __init__(
        self,
        schema: StarSchema,
        desired_sizes: float | Mapping[str, Mapping[int, int]] | None = None,
        base_tuples: int = 0,
    ) -> None:
        self.schema = schema
        if desired_sizes is None:
            desired_sizes = self.DEFAULT_RATIO
        if isinstance(desired_sizes, (int, float)):
            per_dim = {
                dim.name: desired_sizes_for_ratio(dim, float(desired_sizes))
                for dim in schema.dimensions
            }
        else:
            per_dim = {name: dict(sizes) for name, sizes in desired_sizes.items()}
            missing = {d.name for d in schema.dimensions} - set(per_dim)
            if missing:
                raise ChunkingError(
                    f"no chunk sizes for dimensions {sorted(missing)}"
                )
        self.chunkings: tuple[DimensionChunking, ...] = tuple(
            DimensionChunking(dim, per_dim[dim.name])
            for dim in schema.dimensions
        )
        self._grids: dict[GroupBy, ChunkGrid] = {}
        self._base_tuples = base_tuples

    # ------------------------------------------------------------------
    def grid(self, groupby: Sequence[int]) -> ChunkGrid:
        """The (memoized) chunk grid of a group-by."""
        groupby = tuple(groupby)
        grid = self._grids.get(groupby)
        if grid is None:
            # Only validated group-bys enter the memo, so a hit needs no
            # second validation.
            groupby = self.schema.validate_groupby(groupby)
            grid = ChunkGrid(self.chunkings, groupby)
            self._grids[groupby] = grid
        return grid

    @property
    def base_grid(self) -> ChunkGrid:
        """The grid of the base fact table (leaf level everywhere)."""
        return self.grid(self.schema.base_groupby)

    def chunking(self, dimension_name: str) -> DimensionChunking:
        """The per-level chunk ranges of one dimension."""
        for chunking in self.chunkings:
            if chunking.dimension.name == dimension_name:
                return chunking
        raise ChunkingError(f"no dimension named {dimension_name!r}")

    # ------------------------------------------------------------------
    # Benefits (Section 5.4)
    # ------------------------------------------------------------------
    def set_base_tuples(self, base_tuples: int) -> None:
        """Record the base-table size used for benefit computation."""
        if base_tuples < 0:
            raise ChunkingError("base_tuples must be >= 0")
        self._base_tuples = base_tuples

    @property
    def base_tuples(self) -> int:
        """Base-table size in tuples (0 until set)."""
        return self._base_tuples

    def chunk_benefit(self, groupby: Sequence[int]) -> float:
        """Benefit of one chunk of ``groupby``: ``|base| / n_chunks``.

        Chunks of highly aggregated group-bys are few, so each represents a
        large fraction of the base table and is expensive to recompute —
        hence a high benefit (Section 5.4).
        """
        grid = self.grid(groupby)
        return self._base_tuples / grid.num_chunks
