"""Tests for repro.query.predicates — interval/selection algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import QueryError
from repro.query.predicates import (
    interval_contains,
    interval_intersect,
    interval_length,
    normalize_interval,
    selection_cardinality,
    selection_contains,
)


class TestNormalize:
    def test_full_domain_becomes_none(self):
        assert normalize_interval((0, 10), 10) is None

    def test_clamped(self):
        assert normalize_interval((-3, 5), 10) == (0, 5)
        assert normalize_interval((7, 99), 10) == (7, 10)

    def test_none_passthrough(self):
        assert normalize_interval(None, 10) is None

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            normalize_interval((5, 5), 10)

    def test_outside_domain_rejected(self):
        with pytest.raises(QueryError):
            normalize_interval((10, 12), 10)


class TestIntervalOps:
    def test_intersect(self):
        assert interval_intersect((0, 5), (3, 8)) == (3, 5)
        assert interval_intersect((0, 3), (3, 8)) == "empty"
        assert interval_intersect(None, (1, 2)) == (1, 2)
        assert interval_intersect((1, 2), None) == (1, 2)
        assert interval_intersect(None, None) is None

    def test_contains(self):
        assert interval_contains((0, 10), (2, 5))
        assert interval_contains((2, 5), (2, 5))
        assert not interval_contains((2, 5), (2, 6))
        assert interval_contains(None, (1, 2))
        assert interval_contains(None, None)
        assert not interval_contains((0, 5), None)

    def test_length(self):
        assert interval_length((2, 7), 100) == 5
        assert interval_length(None, 100) == 100


class TestSelectionOps:
    def test_contains(self):
        assert selection_contains((None, (0, 9)), ((1, 2), (3, 4)))
        assert not selection_contains(((1, 2), None), ((0, 2), None))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(QueryError):
            selection_contains((None,), (None, None))
        with pytest.raises(QueryError):
            selection_cardinality((None,), (3, 4))

    def test_cardinality(self):
        assert selection_cardinality(((0, 3), None), (10, 7)) == 21


intervals = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
        lambda t: (min(t), max(t) + 1)
    ),
)


@given(a=intervals, b=intervals, c=intervals)
def test_intersect_commutative_and_associative(a, b, c):
    assert interval_intersect(a, b) == interval_intersect(b, a)
    ab = interval_intersect(a, b)
    bc = interval_intersect(b, c)
    left = "empty" if ab == "empty" else interval_intersect(ab, c)
    right = "empty" if bc == "empty" else interval_intersect(a, bc)
    assert left == right


@given(a=intervals, b=intervals)
def test_containment_implies_intersection_is_inner(a, b):
    if interval_contains(a, b):
        assert interval_intersect(a, b) == b


@given(a=intervals)
def test_none_is_identity(a):
    assert interval_intersect(a, None) == a
    assert interval_contains(None, a)
