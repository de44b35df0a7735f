"""Tests for repro.schema.star."""

import pytest

from repro.exceptions import SchemaError
from repro.schema.builder import build_dimension, build_star_schema
from repro.schema.star import Measure, StarSchema


class TestMeasure:
    def test_defaults(self):
        m = Measure("sales")
        assert m.dtype == "f8"
        assert m.default_aggregate == "sum"

    def test_bad_aggregate_rejected(self):
        with pytest.raises(SchemaError):
            Measure("sales", default_aggregate="median")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Measure("")


@pytest.fixture()
def schema():
    return build_star_schema(
        [[2, 4], [3, 9]], measure_names=("sales", "qty")
    )


class TestStarSchema:
    def test_lookup(self, schema):
        assert schema.num_dimensions == 2
        assert schema.dimension("D0").name == "D0"
        assert schema.dimension_position("D1") == 1
        assert schema.measure("qty").name == "qty"
        assert schema.has_measure("qty")
        assert not schema.has_measure("profit")

    def test_unknown_names_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.dimension("D9")
        with pytest.raises(SchemaError):
            schema.measure("profit")
        with pytest.raises(SchemaError):
            schema.dimension_position("nope")

    def test_needs_dimensions_and_measures(self):
        dim = build_dimension("d", [2])
        with pytest.raises(SchemaError):
            StarSchema([], [Measure("m")])
        with pytest.raises(SchemaError):
            StarSchema([dim], [])

    def test_duplicate_names_rejected(self):
        d1 = build_dimension("d", [2])
        d2 = build_dimension("d", [3])
        with pytest.raises(SchemaError):
            StarSchema([d1, d2], [Measure("m")])
        with pytest.raises(SchemaError):
            StarSchema([d1], [Measure("m"), Measure("m")])

    def test_dimension_measure_name_clash_rejected(self):
        dim = build_dimension("x", [2])
        with pytest.raises(SchemaError):
            StarSchema([dim], [Measure("x")])

    def test_base_groupby(self, schema):
        assert schema.base_groupby == (2, 2)

    def test_validate_groupby(self, schema):
        assert schema.validate_groupby([1, 0]) == (1, 0)
        with pytest.raises(SchemaError):
            schema.validate_groupby([1])
        with pytest.raises(SchemaError):
            schema.validate_groupby([3, 0])
        with pytest.raises(SchemaError):
            schema.validate_groupby([-1, 0])

    def test_all_groupbys(self, schema):
        groupbys = list(schema.all_groupbys())
        assert len(groupbys) == 9  # (2+1) * (2+1)
        assert len(set(groupbys)) == 9
        assert (0, 0) in groupbys
        assert (2, 2) in groupbys

    def test_groupby_cardinality(self, schema):
        assert schema.groupby_cardinality((0, 0)) == 1
        assert schema.groupby_cardinality((1, 0)) == 2
        assert schema.groupby_cardinality((2, 2)) == 4 * 9

    def test_is_rollup_of(self, schema):
        assert schema.is_rollup_of((1, 0), (2, 2))
        assert schema.is_rollup_of((2, 2), (2, 2))
        assert not schema.is_rollup_of((2, 2), (1, 0))
        assert not schema.is_rollup_of((1, 2), (2, 1))

    def test_repr(self, schema):
        text = repr(schema)
        assert "D0" in text and "sales" in text
