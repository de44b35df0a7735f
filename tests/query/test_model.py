"""Tests for repro.query.model — StarQuery construction and derivations."""

import pytest

from repro.exceptions import QueryError
from repro.query.model import StarQuery


class TestBuild:
    def test_defaults(self, small_schema):
        q = StarQuery.build(small_schema, (1, 0))
        assert q.groupby == (1, 0)
        assert q.selections == (None, None)
        assert q.aggregates == (("v", "sum"),)
        assert q.fixed_predicates == frozenset()

    def test_selection_mapping_by_name(self, small_schema):
        q = StarQuery.build(small_schema, (2, 1), {"D0": (2, 5)})
        assert q.selections == ((2, 5), None)

    def test_selection_sequence(self, small_schema):
        q = StarQuery.build(small_schema, (2, 1), [(0, 4), (1, 3)])
        assert q.selections == ((0, 4), (1, 3))

    def test_full_domain_normalizes_to_none(self, small_schema):
        q = StarQuery.build(small_schema, (2, 1), {"D0": (0, 10)})
        assert q.selections == (None, None)

    def test_selection_on_all_dim_rejected(self, small_schema):
        with pytest.raises(QueryError):
            StarQuery.build(small_schema, (0, 1), {"D0": (0, 2)})

    def test_wrong_arity_rejected(self, small_schema):
        with pytest.raises(QueryError):
            StarQuery.build(small_schema, (1, 1), [(0, 1)])

    def test_unknown_measure_rejected(self, small_schema):
        with pytest.raises(QueryError):
            StarQuery.build(small_schema, (1, 1), aggregates=[("zz", "sum")])

    def test_unknown_aggregate_rejected(self, small_schema):
        with pytest.raises(QueryError):
            StarQuery.build(small_schema, (1, 1), aggregates=[("v", "median")])

    def test_empty_aggregates_rejected(self, small_schema):
        with pytest.raises(QueryError):
            StarQuery.build(small_schema, (1, 1), aggregates=[])


class TestDerived:
    def test_keys(self, small_schema):
        q1 = StarQuery.build(small_schema, (1, 1), {"D0": (0, 2)})
        q2 = StarQuery.build(small_schema, (1, 1), {"D0": (2, 4)})
        assert q1.shape_key() == q2.shape_key()
        assert q1.exact_key() != q2.exact_key()

    def test_fixed_predicates_in_keys(self, small_schema):
        q1 = StarQuery.build(small_schema, (1, 1), fixed_predicates=["p=1"])
        q2 = StarQuery.build(small_schema, (1, 1))
        assert q1.shape_key() != q2.shape_key()

    def test_result_format(self, small_schema):
        q = StarQuery.build(small_schema, (1, 0))
        fmt = q.result_format(small_schema)
        assert fmt.field_names == ("D0", "sum_v")

    def test_leaf_selection(self, small_schema):
        q = StarQuery.build(small_schema, (1, 1), {"D0": (0, 2)})
        leaf = q.leaf_selection(small_schema)
        d0 = small_schema.dimensions[0]
        assert leaf[0] == d0.map_range(1, (0, 2), 2)
        assert leaf[1] is None

    def test_str_readable(self, small_schema):
        q = StarQuery.build(small_schema, (1, 0), {"D0": (0, 2)})
        text = str(q)
        assert "ALL" in text and "sum(v)" in text

    def test_hashable_and_frozen(self, small_schema):
        q = StarQuery.build(small_schema, (1, 1))
        assert hash(q) == hash(StarQuery.build(small_schema, (1, 1)))
        with pytest.raises(AttributeError):
            q.groupby = (0, 0)  # type: ignore[misc]
