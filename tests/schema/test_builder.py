"""Tests for repro.schema.builder."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import SchemaError
from repro.schema.builder import (
    build_dimension,
    build_star_schema,
    random_child_starts,
)


class TestBuildDimension:
    def test_even_fanout(self):
        dim = build_dimension("d", [2, 6])
        assert dim.map_range(1, (0, 1), 2) == (0, 3)
        assert dim.map_range(1, (1, 2), 2) == (3, 6)

    def test_level_names(self):
        dim = build_dimension("d", [2, 4], level_names=["state", "city"])
        assert dim.hierarchy.level(1).name == "state"
        assert dim.hierarchy.level(2).name == "city"

    def test_level_name_count_mismatch(self):
        with pytest.raises(SchemaError):
            build_dimension("d", [2, 4], level_names=["only"])

    def test_random_fanout_deterministic(self):
        d1 = build_dimension("d", [3, 12], fanout="random", seed=42)
        d2 = build_dimension("d", [3, 12], fanout="random", seed=42)
        for ordinal in range(3):
            assert d1.map_range(1, (ordinal, ordinal + 1), 2) == d2.map_range(
                1, (ordinal, ordinal + 1), 2
            )

    def test_unknown_fanout_rejected(self):
        with pytest.raises(SchemaError):
            build_dimension("d", [2, 4], fanout="exotic")

    def test_empty_cardinalities_rejected(self):
        with pytest.raises(SchemaError):
            build_dimension("d", [])


class TestRandomChildStarts:
    @given(
        parents=st.integers(1, 30),
        extra=st.integers(0, 100),
        seed=st.integers(0, 10_000),
    )
    def test_invariants(self, parents, extra, seed):
        children = parents + extra
        starts = random_child_starts(parents, children, random.Random(seed))
        assert starts[0] == 0
        assert starts[-1] == children
        assert len(starts) == parents + 1
        assert all(b > a for a, b in zip(starts, starts[1:]))

    def test_too_few_children_rejected(self):
        with pytest.raises(SchemaError):
            random_child_starts(4, 3, random.Random(0))


class TestBuildStarSchema:
    def test_default_names(self):
        schema = build_star_schema([[2, 4], [3, 6]])
        assert [d.name for d in schema.dimensions] == ["D0", "D1"]
        assert schema.measures[0].name == "value"

    def test_custom_names(self):
        schema = build_star_schema(
            [[2]], measure_names=("m",), dimension_names=("time",)
        )
        assert schema.dimension("time").num_levels == 1

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            build_star_schema([[2]], dimension_names=("a", "b"))

    def test_random_fanouts_differ_across_dimensions(self):
        schema = build_star_schema(
            [[3, 30], [3, 30]], fanout="random", seed=9
        )
        ranges0 = [schema.dimensions[0].map_range(1, (i, i + 1), 2)
                   for i in range(3)]
        ranges1 = [schema.dimensions[1].map_range(1, (i, i + 1), 2)
                   for i in range(3)]
        assert ranges0 != ranges1
