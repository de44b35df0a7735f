"""Tests for repro.core.metrics — CSR and stream summaries."""

import gc
import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro import invariants
from repro.core.cache import ChunkCache
from repro.core.manager import ChunkCacheManager
from repro.core.metrics import QueryRecord, StreamMetrics
from repro.exceptions import ExperimentError
from repro.workload.generator import EQPR, QueryGenerator


def record(time=1.0, full=10.0, saved=0.0, total=4, hit=0, derived=0,
           pages=3, rows=5):
    return QueryRecord(
        time=time, full_cost=full, saved_cost=saved, chunks_total=total,
        chunks_hit=hit, chunks_derived=derived, pages_read=pages,
        result_rows=rows,
    )


class TestQueryRecord:
    def test_full_hit_detection(self):
        assert record(total=3, hit=3).is_full_hit
        assert record(total=3, hit=2, derived=1).is_full_hit
        assert not record(total=3, hit=2).is_full_hit


class TestStreamMetrics:
    def test_empty(self):
        m = StreamMetrics()
        assert m.cost_saving_ratio() == 0.0
        assert m.mean_time() == 0.0
        assert m.mean_time_last(100) == 0.0
        assert m.chunk_hit_ratio() == 0.0
        assert m.full_hit_ratio() == 0.0
        assert len(m) == 0

    def test_csr_matches_ssv_formula(self):
        """Whole-query hits/misses reduce to the [SSV] formula."""
        m = StreamMetrics()
        # Query a: cost 10, referenced 3 times, 2 hits.
        m.record(record(full=10.0, saved=0.0))
        m.record(record(full=10.0, saved=10.0))
        m.record(record(full=10.0, saved=10.0))
        # Query b: cost 40, referenced 1 time, 0 hits.
        m.record(record(full=40.0, saved=0.0))
        assert m.cost_saving_ratio() == pytest.approx(20.0 / 70.0)

    def test_partial_savings(self):
        m = StreamMetrics()
        m.record(record(full=10.0, saved=4.0, total=10, hit=4))
        assert m.cost_saving_ratio() == pytest.approx(0.4)
        assert m.chunk_hit_ratio() == pytest.approx(0.4)

    def test_csr_zero_cost_stream(self):
        """A stream of free queries saves nothing — no 0/0, no crash.

        Regression for R002: the guard is an ordering comparison, so it
        also covers denormal-tiny totals instead of exact-zero only.
        """
        m = StreamMetrics()
        m.record(record(time=0.0, full=0.0, saved=0.0))
        m.record(record(time=0.0, full=0.0, saved=0.0))
        assert m.cost_saving_ratio() == 0.0

    def test_csr_denormal_costs_still_ratio(self):
        m = StreamMetrics()
        m.record(record(full=5e-324, saved=5e-324))
        assert m.cost_saving_ratio() == pytest.approx(1.0)

    def test_mean_time_last_window(self):
        m = StreamMetrics()
        for t in (1.0, 2.0, 3.0, 4.0):
            m.record(record(time=t))
        assert m.mean_time_last(2) == pytest.approx(3.5)
        assert m.mean_time() == pytest.approx(2.5)
        assert m.total_time() == pytest.approx(10.0)

    def test_mean_time_last_bad_n(self):
        with pytest.raises(ExperimentError):
            StreamMetrics().mean_time_last(0)

    def test_negative_costs_rejected(self):
        m = StreamMetrics()
        with pytest.raises(ExperimentError):
            m.record(record(full=-1.0))

    @pytest.mark.parametrize("costs", [
        dict(time=math.nan), dict(full=math.nan),
        dict(time=math.nan, full=math.nan),
    ])
    def test_nan_costs_rejected(self, costs):
        # With the invariant checks off nothing upstream stops a NaN, and
        # one accepted NaN turns the stream's CSR and mean time into NaN.
        previous = invariants.set_mode(invariants.OFF)
        try:
            m = StreamMetrics()
            with pytest.raises(ExperimentError):
                m.record(record(**costs))
            assert len(m) == 0
        finally:
            invariants.set_mode(previous)

    def test_total_pages(self):
        m = StreamMetrics()
        m.record(record(pages=3))
        m.record(record(pages=4))
        assert m.total_pages_read() == 7


@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        ),
        max_size=50,
    )
)
def test_csr_always_in_unit_interval(pairs):
    m = StreamMetrics()
    for full, fraction in pairs:
        m.record(record(full=full, saved=full * fraction))
    assert 0.0 <= m.cost_saving_ratio() <= 1.0


def _hot_manager(schema, engine):
    """A manager warmed by one pass of a 25-query hot stream, and the
    stream: every later pass only hits."""
    manager = ChunkCacheManager(
        schema, engine.space, engine, ChunkCache(4_000_000),
    )
    hot = QueryGenerator(schema, seed=5).stream(25, EQPR)
    for query in hot:
        manager.answer(query)
    return manager, hot


def test_answered_history_is_invisible_to_the_collector(
    small_schema, fresh_small_engine
):
    manager, hot = _hot_manager(small_schema, fresh_small_engine)
    answered = [repr(manager.answer(query).record) for query in hot]
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(20):
        for query in hot:
            manager.answer(query)
    gc.collect()
    # Records and traces kept as objects left ~3 500 more tracked
    # objects after these 500 answers.
    assert len(gc.get_objects()) - before < 50

    metrics = manager.metrics
    records = metrics.records
    assert len(records) == len(metrics) == 22 * len(hot)
    assert all(type(record) is QueryRecord for record in records)
    assert [repr(r) for r in records[len(hot):2 * len(hot)]] == answered
    full = sum(r.full_cost for r in records)
    tail = records[-100:]
    assert metrics.cost_saving_ratio() == (
        sum(r.saved_cost for r in records) / full
    )
    assert metrics.mean_time() == sum(r.time for r in records) / len(records)
    assert metrics.mean_time_last(100) == sum(r.time for r in tail) / len(tail)
    assert metrics.chunk_hit_ratio() == sum(
        r.chunks_hit + r.chunks_derived for r in records
    ) / sum(r.chunks_total for r in records)
    assert metrics.full_hit_ratio() == (
        sum(r.is_full_hit for r in records) / len(records)
    )
    assert metrics.total_pages_read() == sum(r.pages_read for r in records)


def test_a_hot_stream_retains_its_records_only(
    small_schema, fresh_small_engine
):
    # Every hit is recorded, so a stream's history grows with it; what
    # it keeps per answer is one flat tuple of the record's fields (and
    # the floats in it), never the answer's trace.  Stage tuples and
    # attribution kept beside each record cost 984 bytes per answer.
    manager, hot = _hot_manager(small_schema, fresh_small_engine)
    for _ in range(4):
        for query in hot:
            manager.answer(query)
    passes = 200
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(passes):
            for query in hot:
                manager.answer(query)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    answers = passes * len(hot)
    assert answers >= 5_000
    assert retained / answers <= 300
