"""Tests for repro.analysis.probability — Feller occupancy math."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.probability import (
    expected_distinct,
    expected_pages_chunked,
    expected_pages_random,
)
from repro.exceptions import ExperimentError


class TestExpectedDistinct:
    def test_boundaries(self):
        assert expected_distinct(0, 10) == 0.0
        assert expected_distinct(5, 1) == 1.0

    def test_paper_properties(self):
        """f(r,k) <= min(r,k); ~r for r<<k; ~k for r>>k."""
        assert expected_distinct(3, 1000) == pytest.approx(3, rel=0.01)
        assert expected_distinct(100_000, 10) == pytest.approx(10, rel=0.001)
        for r, k in [(5, 7), (50, 50), (200, 10)]:
            f = expected_distinct(r, k)
            assert f <= min(r, k) + 1e-9

    def test_monotone_in_r(self):
        values = [expected_distinct(r, 100) for r in range(0, 500, 25)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_simulation(self):
        rng = np.random.default_rng(0)
        k, r, trials = 50, 120, 2000
        observed = np.mean(
            [len(np.unique(rng.integers(0, k, r))) for _ in range(trials)]
        )
        assert expected_distinct(r, k) == pytest.approx(observed, rel=0.02)

    def test_bad_inputs(self):
        with pytest.raises(ExperimentError):
            expected_distinct(1, 0)
        with pytest.raises(ExperimentError):
            expected_distinct(-1, 5)


class TestPageModels:
    def test_chunked_never_exceeds_random(self):
        for tuples in (1, 10, 100, 1000):
            random_pages = expected_pages_random(tuples, 400)
            chunked_pages = expected_pages_chunked(tuples, 400)
            assert chunked_pages <= random_pages + 1e-9

    def test_chunked_capped_by_selected_chunks(self):
        pages = expected_pages_chunked(
            10_000, 400, selected_chunks=20, pages_per_chunk=1.0
        )
        assert pages <= 20

    def test_chunked_cap_never_exceeds_total(self):
        pages = expected_pages_chunked(
            10_000, 100, selected_chunks=1000, pages_per_chunk=5.0
        )
        assert pages <= 100

    def test_zero_candidates(self):
        assert expected_pages_chunked(10, 100, selected_chunks=0) == 0.0


@given(
    r=st.integers(0, 10**6),
    k=st.floats(1, 1e6, allow_nan=False),
)
def test_f_bounds_property(r, k):
    """For whole draws, f(r, k) is bounded by both r and k."""
    f = expected_distinct(r, k)
    assert -1e-9 <= f <= min(r, k) + 1e-6
