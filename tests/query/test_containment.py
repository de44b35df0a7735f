"""Tests for repro.query.containment."""

import pytest

from repro.query.containment import compatible, query_contains
from repro.query.model import StarQuery


def q(schema, groupby=(1, 1), selections=None, aggregates=None, fixed=()):
    return StarQuery.build(
        schema, groupby, selections, aggregates, fixed_predicates=fixed
    )


class TestQueryContains:
    def test_identical(self, small_schema):
        a = q(small_schema, selections={"D0": (0, 3)})
        assert query_contains(a, a)

    def test_proper_containment(self, small_schema):
        outer = q(small_schema, selections={"D0": (0, 4)})
        inner = q(small_schema, selections={"D0": (1, 3), "D1": (0, 2)})
        assert query_contains(outer, inner)
        assert not query_contains(inner, outer)

    def test_unrestricted_outer_contains_all(self, small_schema):
        outer = q(small_schema)
        inner = q(small_schema, selections={"D0": (0, 1)})
        assert query_contains(outer, inner)

    def test_different_groupby_never_contains(self, small_schema):
        """Condition 1: reuse requires the same level of aggregation."""
        outer = q(small_schema, groupby=(2, 2))
        inner = q(small_schema, groupby=(1, 1))
        assert not query_contains(outer, inner)

    def test_aggregate_subset_required(self, small_schema):
        """Condition 2: the project list must be a subset."""
        outer = q(small_schema, aggregates=[("v", "sum"), ("v", "count")])
        inner = q(small_schema, aggregates=[("v", "sum")])
        assert query_contains(outer, inner)
        assert not query_contains(inner, outer)

    def test_fixed_predicates_must_match(self, small_schema):
        """Condition 3: non-group-by selections must match exactly."""
        outer = q(small_schema, fixed=("price>5",))
        inner = q(small_schema)
        assert not query_contains(outer, inner)
        assert query_contains(outer, q(small_schema, fixed=("price>5",)))

    def test_overlap_not_containment(self, small_schema):
        a = q(small_schema, selections={"D0": (0, 3)})
        b = q(small_schema, selections={"D0": (2, 5)})
        assert not query_contains(a, b)


class TestOverlap:
    def test_compatible(self, small_schema):
        assert compatible(q(small_schema), q(small_schema))
        assert not compatible(
            q(small_schema, fixed=("x",)), q(small_schema)
        )
