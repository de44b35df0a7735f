"""Tests for repro.chunks.grid — chunk numbering and ComputeChunkNums."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunks.grid import ChunkGrid, ChunkSpace
from repro.chunks.ranges import DimensionChunking
from repro.exceptions import ChunkingError, SchemaError
from repro.schema.builder import build_star_schema


@pytest.fixture()
def space(small_schema):
    return ChunkSpace(small_schema, 0.25, base_tuples=1000)


class TestChunkNumbering:
    def test_row_major_matches_figure8(self):
        """3 x 4 grid: (0,0)->0, (1,2)->6 under row-major numbering."""
        schema = build_star_schema([[3], [4]])
        space = ChunkSpace(schema, {"D0": {1: 1}, "D1": {1: 1}})
        grid = space.grid((1, 1))
        assert grid.shape == (3, 4)
        assert grid.coords_of(0) == (0, 0)
        assert grid.coords_of(6) == (1, 2)
        assert grid.coords_of(11) == (2, 3)

    def test_roundtrip_all(self, space):
        grid = space.grid((2, 1))
        for number in range(grid.num_chunks):
            coords = grid.coords_of(number)
            assert sum(c * s for c, s in zip(coords, grid.strides)) == number

    def test_bounds(self, space):
        grid = space.grid((1, 1))
        with pytest.raises(ChunkingError):
            grid.coords_of(grid.num_chunks)
        with pytest.raises(ChunkingError):
            grid.coords_of(-1)

    def test_all_level_dims_have_one_slot(self, space):
        grid = space.grid((0, 1))
        assert grid.shape[0] == 1
        assert grid.num_chunks == grid.shape[1]


class TestCellGeometry:
    def test_cell_ranges(self, space):
        grid = space.grid((1, 0))
        ranges = grid.cell_ranges(0)
        assert ranges[0] is not None
        assert ranges[1] is None  # ALL dimension

    def test_cell_capacity(self, space):
        grid = space.grid((2, 1))
        total = sum(
            math.prod(
                len(rng) for rng in grid.cell_ranges(number) if rng is not None
            )
            for number in range(grid.num_chunks)
        )
        schema = space.schema
        assert total == (
            schema.dimensions[0].cardinality(2)
            * schema.dimensions[1].cardinality(1)
        )


class TestComputeChunkNums:
    def test_full_selection_is_all_chunks(self, space):
        grid = space.grid((2, 2))
        numbers = grid.chunk_numbers_for_selection((None, None))
        assert numbers == list(range(grid.num_chunks))

    def test_selection_covers_query_region(self, space):
        grid = space.grid((2, 2))
        numbers = grid.chunk_numbers_for_selection(((3, 7), (1, 5)))
        # Every selected cell must fall in some returned chunk.
        covered = set()
        for number in numbers:
            ranges = grid.cell_ranges(number)
            for o0 in range(ranges[0].lo, ranges[0].hi):
                for o1 in range(ranges[1].lo, ranges[1].hi):
                    covered.add((o0, o1))
        for o0 in range(3, 7):
            for o1 in range(1, 5):
                assert (o0, o1) in covered

    def test_sorted_ascending(self, space):
        grid = space.grid((2, 2))
        numbers = grid.chunk_numbers_for_selection(((0, 9), (0, 7)))
        assert numbers == sorted(numbers)

    def test_count_matches_enumeration(self, space):
        grid = space.grid((2, 1))
        selection = ((2, 9), None)
        spans = grid.selection_spans(selection)
        assert math.prod(hi - lo for lo, hi in spans) == len(
            grid.chunk_numbers_for_selection(selection)
        )

    def test_selection_on_all_dim_rejected(self, space):
        grid = space.grid((0, 1))
        with pytest.raises(ChunkingError):
            grid.chunk_numbers_for_selection(((0, 2), None))

    def test_wrong_arity_rejected(self, space):
        grid = space.grid((1, 1))
        with pytest.raises(ChunkingError):
            grid.chunk_numbers_for_selection((None,))


class TestChunkSpace:
    def test_grid_memoized(self, space):
        assert space.grid((1, 1)) is space.grid((1, 1))
        assert space.grid([1, 1]) is space.grid((1, 1))

    def test_memo_hit_skips_validation(self, space, monkeypatch):
        grid = space.grid((1, 1))
        calls = []
        validate = space.schema.validate_groupby
        monkeypatch.setattr(
            type(space.schema),
            "validate_groupby",
            lambda self, groupby: calls.append(groupby) or validate(groupby),
        )
        assert space.grid((1, 1)) is grid
        assert calls == []
        with pytest.raises(SchemaError):
            space.grid((1, 99))
        assert calls == [(1, 99)]

    def test_base_grid(self, space):
        assert space.base_grid.groupby == space.schema.base_groupby

    def test_benefit_decreases_with_detail(self, space):
        coarse = space.chunk_benefit((1, 0))
        fine = space.chunk_benefit(space.schema.base_groupby)
        assert coarse > fine > 0

    def test_benefit_requires_base_tuples(self, small_schema):
        space = ChunkSpace(small_schema, 0.25)
        assert space.chunk_benefit((1, 1)) == 0.0
        space.set_base_tuples(100)
        assert space.chunk_benefit((1, 1)) > 0
        with pytest.raises(ChunkingError):
            space.set_base_tuples(-1)

    def test_explicit_sizes(self, small_schema):
        space = ChunkSpace(
            small_schema,
            {"D0": {1: 2, 2: 4}, "D1": {1: 2, 2: 4}},
        )
        assert space.grid((1, 1)).shape == (3, 2)

    def test_missing_dimension_sizes_rejected(self, small_schema):
        with pytest.raises(ChunkingError):
            ChunkSpace(small_schema, {"D0": {1: 1, 2: 1}})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_selection_envelope_is_tight(data):
    """Chunks returned for a selection all intersect the selection."""
    schema = build_star_schema([[6, 18], [4, 12]])
    space = ChunkSpace(schema, 0.2)
    level0 = data.draw(st.integers(0, 2))
    level1 = data.draw(st.integers(0, 2))
    if level0 == 0 and level1 == 0:
        level0 = 1
    grid = space.grid((level0, level1))
    selection = []
    for dim_pos, level in ((0, level0), (1, level1)):
        if level == 0:
            selection.append(None)
            continue
        card = schema.dimensions[dim_pos].cardinality(level)
        lo = data.draw(st.integers(0, card - 1))
        hi = data.draw(st.integers(lo + 1, card))
        selection.append((lo, hi))
    numbers = grid.chunk_numbers_for_selection(tuple(selection))
    assert numbers
    for number in numbers:
        for rng, interval in zip(grid.cell_ranges(number), selection):
            if rng is None or interval is None:
                continue
            assert rng.lo < interval[1] and interval[0] < rng.hi
