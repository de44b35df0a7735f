"""Tests for repro.experiments.configs."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.configs import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    TABLE1_CARDINALITIES,
    TABLE1_HIERARCHY_SIZES,
    Scale,
    build_paper_schema,
    cube_size_bytes,
)


class TestPaperConstants:
    def test_table1_shape(self):
        assert TABLE1_HIERARCHY_SIZES == (3, 2, 3, 2)
        assert TABLE1_CARDINALITIES[0] == (25, 50, 100)
        assert TABLE1_CARDINALITIES[2] == (5, 25, 50)

    def test_schema_matches_table1(self):
        schema = build_paper_schema()
        assert schema.num_dimensions == 4
        for dim, cards in zip(schema.dimensions, TABLE1_CARDINALITIES):
            assert dim.num_levels == len(cards)
            for level, card in enumerate(cards, start=1):
                assert dim.cardinality(level) == card

    def test_cube_lattice_size(self):
        schema = build_paper_schema()
        # (3+1)(2+1)(3+1)(2+1) = 144 group-bys.
        assert len(list(schema.all_groupbys())) == 144


class TestScale:
    def test_paper_scale(self):
        assert PAPER_SCALE.num_tuples == 500_000
        assert PAPER_SCALE.num_queries == 1500

    def test_default_smaller_than_paper(self):
        assert DEFAULT_SCALE.num_tuples < PAPER_SCALE.num_tuples
        assert SMOKE_SCALE.num_tuples < DEFAULT_SCALE.num_tuples

    def test_with_overrides(self):
        scale = DEFAULT_SCALE.with_overrides(num_tuples=123)
        assert scale.num_tuples == 123
        assert scale.num_queries == DEFAULT_SCALE.num_queries

    def test_validation(self):
        with pytest.raises(ExperimentError):
            Scale(num_tuples=0)
        with pytest.raises(ExperimentError):
            Scale(chunk_ratio=0)
        with pytest.raises(ExperimentError):
            Scale(cache_fraction_of_cube=2.0)

    def test_hashable(self):
        assert hash(Scale()) == hash(Scale())


class TestCubeSize:
    def test_uncapped_larger_than_capped(self):
        schema = build_paper_schema()
        assert cube_size_bytes(schema) > cube_size_bytes(schema, 10_000)

    def test_paper_ballpark(self):
        """500k tuples should give a cube of a few hundred MB (paper: 300)."""
        schema = build_paper_schema()
        size = cube_size_bytes(schema, 500_000)
        assert 150e6 < size < 800e6

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            cube_size_bytes(build_paper_schema(), -5)
