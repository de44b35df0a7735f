"""Tests for repro.chunks.closure — the closure property across levels."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunks.closure import (
    source_chunk_count,
    source_chunk_numbers,
    source_spans,
    source_spans_many,
)
from repro.chunks.grid import ChunkSpace
from repro.exceptions import ChunkingError
from repro.schema.builder import build_star_schema


@pytest.fixture()
def space():
    schema = build_star_schema([[4, 12], [3, 9]])
    return ChunkSpace(schema, 0.25)


def cell_leaf_set(space, groupby, number):
    """All leaf-cell coordinates one chunk covers."""
    grid = space.grid(groupby)
    ranges = grid.cell_ranges(number)
    axes = []
    for dim, level, rng in zip(space.schema.dimensions, groupby, ranges):
        if rng is None:
            axes.append(range(dim.leaf_cardinality))
        else:
            cells = []
            for ordinal in range(rng.lo, rng.hi):
                lo, hi = dim.descend_range(level, ordinal, dim.leaf_level)
                cells.extend(range(lo, hi))
            axes.append(cells)
    return {(a, b) for a in axes[0] for b in axes[1]}


class TestSourceSpans:
    def test_base_chunks_tile_target_exactly(self, space):
        """Paper Figure 3: a chunk equals the union of its source chunks."""
        base = space.schema.base_groupby
        for groupby in [(1, 1), (1, 0), (0, 2), (2, 1)]:
            grid = space.grid(groupby)
            for number in range(grid.num_chunks):
                target_cells = cell_leaf_set(space, groupby, number)
                source_cells = set()
                for source in source_chunk_numbers(space, groupby, number):
                    source_cells |= cell_leaf_set(space, base, source)
                assert source_cells == target_cells, (groupby, number)

    def test_intermediate_source_level(self, space):
        """Chunks can be computed from any finer group-by, not just base."""
        target, source = (1, 0), (2, 1)
        grid = space.grid(target)
        for number in range(grid.num_chunks):
            target_cells = cell_leaf_set(space, target, number)
            source_cells = set()
            for src in source_chunk_numbers(space, target, number, source):
                source_cells |= cell_leaf_set(space, source, src)
            assert source_cells == target_cells

    def test_count_matches_enumeration(self, space):
        assert source_chunk_count(space, (1, 1), 0) == len(
            source_chunk_numbers(space, (1, 1), 0)
        )

    def test_same_groupby_is_identity(self, space):
        base = space.schema.base_groupby
        assert source_chunk_numbers(space, base, 5, base) == [5]

    def test_coarser_source_rejected(self, space):
        with pytest.raises(ChunkingError):
            source_spans(space, (2, 2), 0, (1, 1))

    def test_many_is_one_span_list_per_chunk(self, space):
        numbers = [3, 0, 3, 1]
        for source in (None, (2, 1)):
            assert source_spans_many(space, (1, 1), numbers, source) == [
                source_spans(space, (1, 1), number, source)
                for number in numbers
            ]
        assert source_spans_many(space, (1, 1), []) == []
        with pytest.raises(ChunkingError):
            source_spans_many(space, (2, 2), [0], (1, 1))

    def test_partition_of_base_chunks(self, space):
        """Distinct target chunks use disjoint base chunks, covering all."""
        groupby = (1, 2)
        grid = space.grid(groupby)
        seen: set[int] = set()
        for number in range(grid.num_chunks):
            sources = set(source_chunk_numbers(space, groupby, number))
            assert not (sources & seen)
            seen |= sources
        assert seen == set(range(space.base_grid.num_chunks))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_closure_tiles_on_random_geometry(data):
    cards0 = [3, data.draw(st.integers(3, 9))]
    cards1 = [2, data.draw(st.integers(2, 8))]
    schema = build_star_schema([cards0, cards1], seed=data.draw(st.integers(0, 99)),
                               fanout="random")
    ratio = data.draw(st.sampled_from([0.15, 0.25, 0.5]))
    space = ChunkSpace(schema, ratio)
    level0 = data.draw(st.integers(0, 2))
    level1 = data.draw(st.integers(0, 2))
    groupby = (level0, level1)
    grid = space.grid(groupby)
    number = data.draw(st.integers(0, grid.num_chunks - 1))
    target_cells = cell_leaf_set(space, groupby, number)
    source_cells = set()
    for source in source_chunk_numbers(space, groupby, number):
        source_cells |= cell_leaf_set(space, schema.base_groupby, source)
    assert source_cells == target_cells
