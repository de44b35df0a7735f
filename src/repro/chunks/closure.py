"""The closure property: mapping chunks between levels of aggregation.

Section 3.2 (benefit 3) of the paper: because chunk ranges at one level map
to whole ranges at the next level (:mod:`repro.chunks.ranges`), a chunk of any
group-by corresponds to a *rectangular block* of chunks of any finer
group-by.  This gives the cache manager an exact recipe for computing a
missing chunk: aggregate precisely the base-table chunks in that block
(the paper's Figure 3 — chunk 1 of ``(Time)`` is the aggregate of chunks
4, 5, 6, 7 of ``(Product, Time)``).

:func:`source_spans` returns the per-dimension chunk-index spans of the
block (:func:`source_spans_many` for a batch of chunks), and
:func:`source_chunk_numbers` enumerates the source chunk numbers — the
inverse-``getChNum`` / re-``ComputeChunkNums`` pipeline of Section 5.2.3.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.chunks.grid import ChunkGrid, ChunkSpace
from repro.exceptions import ChunkingError
from repro.schema.star import GroupBy

__all__ = [
    "source_spans",
    "source_spans_many",
    "source_chunk_numbers",
    "source_chunk_count",
]


def _resolve(
    space: ChunkSpace,
    target_groupby: Sequence[int],
    source_groupby: Sequence[int] | None,
) -> tuple[GroupBy, GroupBy]:
    """Validated ``(target, source)`` group-bys; source defaults to base."""
    schema = space.schema
    target = schema.validate_groupby(target_groupby)
    if source_groupby is None:
        source: GroupBy = schema.base_groupby
    else:
        source = schema.validate_groupby(source_groupby)
    if not schema.is_rollup_of(target, source):
        raise ChunkingError(
            f"group-by {target} cannot be computed from {source}: the "
            "source must be at least as fine on every dimension"
        )
    return target, source


def _spans(
    space: ChunkSpace, target: GroupBy, source: GroupBy, coords: Sequence[int]
) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    for chunking, t_level, s_level, coord in zip(
        space.chunkings, target, source, coords
    ):
        if s_level == 0:
            # Source dimension is also aggregated away: single slot.
            spans.append((0, 1))
        elif t_level == 0:
            # Target aggregates the dimension away: need all source chunks.
            spans.append((0, chunking.num_chunks(s_level)))
        else:
            spans.append(chunking.descend_span(t_level, coord, s_level))
    return spans


def source_spans(
    space: ChunkSpace,
    target_groupby: Sequence[int],
    chunk_number: int,
    source_groupby: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """Per-dimension source-chunk-index spans for one target chunk.

    Args:
        space: The shared chunk geometry.
        target_groupby: Group-by of the chunk being computed.
        chunk_number: Its chunk number within the target grid.
        source_groupby: Group-by to compute from; defaults to the base
            fact table.  Must be at least as fine as the target on every
            dimension (``schema.is_rollup_of(target, source)``).

    Returns:
        For each dimension, the half-open span of chunk indices in the
        source grid whose union covers the target chunk.
    """
    target, source = _resolve(space, target_groupby, source_groupby)
    coords = space.grid(target).coords_of(chunk_number)
    return _spans(space, target, source, coords)


def source_spans_many(
    space: ChunkSpace,
    target_groupby: Sequence[int],
    chunk_numbers: Sequence[int],
    source_groupby: Sequence[int] | None = None,
) -> list[list[tuple[int, int]]]:
    """:func:`source_spans` of several chunks of one group-by.

    The group-bys are validated once for the whole batch, not once per
    chunk — the form the backend's miss path uses.
    """
    target, source = _resolve(space, target_groupby, source_groupby)
    target_grid = space.grid(target)
    return [
        _spans(space, target, source, target_grid.coords_of(number))
        for number in chunk_numbers
    ]


def source_chunk_numbers(
    space: ChunkSpace,
    target_groupby: Sequence[int],
    chunk_number: int,
    source_groupby: Sequence[int] | None = None,
) -> list[int]:
    """Source chunk numbers whose aggregation yields one target chunk.

    The enumeration order is row-major over the source grid, matching
    :meth:`ChunkGrid.chunk_numbers_for_selection`.
    """
    schema = space.schema
    if source_groupby is None:
        source_groupby = schema.base_groupby
    spans = source_spans(space, target_groupby, chunk_number, source_groupby)
    source_grid = space.grid(source_groupby)
    return _enumerate(source_grid, spans)


def source_chunk_count(
    space: ChunkSpace,
    target_groupby: Sequence[int],
    chunk_number: int,
    source_groupby: Sequence[int] | None = None,
) -> int:
    """How many source chunks one target chunk aggregates, cheaply."""
    spans = source_spans(space, target_groupby, chunk_number, source_groupby)
    return math.prod(hi - lo for lo, hi in spans)


def _enumerate(grid: ChunkGrid, spans: Sequence[tuple[int, int]]) -> list[int]:
    numbers: list[int] = []

    def recurse(dim: int, base: int) -> None:
        if dim == len(spans):
            numbers.append(base)
            return
        lo, hi = spans[dim]
        stride = grid.strides[dim]
        for coord in range(lo, hi):
            recurse(dim + 1, base + coord * stride)

    recurse(0, 0)
    return numbers
