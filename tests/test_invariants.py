"""Tests for repro.invariants — modes, checks, and subsystem wiring."""

import numpy as np
import pytest

from repro import invariants
from repro.chunks.ranges import DimensionChunking, desired_sizes_for_ratio
from repro.core.cache import ChunkCache
from repro.core.chunk import CachedChunk, ChunkKey
from repro.core.manager import ChunkCacheManager
from repro.core.query_cache import QueryCacheManager
from repro.exceptions import InvariantViolation
from repro.pipeline.trace import ExecutionTrace, StageTrace
from repro.query.model import StarQuery
from repro.schema.builder import build_dimension


@pytest.fixture()
def deep_mode():
    previous = invariants.set_mode("deep")
    invariants.reset_counters()
    yield
    invariants.set_mode(previous)


def make_chunk(number=0, payload=8, benefit=1.0):
    key = ChunkKey((1, 1), number, (("v", "sum"),), frozenset())
    rows = np.zeros(payload, dtype=np.int64)
    return CachedChunk(key=key, rows=rows, benefit=benefit)


class TestModes:
    def test_default_is_cheap(self):
        assert invariants._resolve(None) == invariants.CHEAP
        assert invariants._resolve("on") == invariants.CHEAP

    def test_aliases(self):
        assert invariants._resolve("full") == invariants.DEEP
        assert invariants._resolve("0") == invariants.OFF
        assert invariants._resolve("OFF") == invariants.OFF

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvariantViolation):
            invariants._resolve("sometimes")

    def test_set_mode_round_trip(self):
        previous = invariants.set_mode("off")
        try:
            assert not invariants.enabled()
            assert not invariants.deep()
        finally:
            invariants.set_mode(previous)

    def test_require(self):
        invariants.require(True, "fine")
        with pytest.raises(InvariantViolation, match="broken"):
            invariants.require(False, "broken")


class TestClosureCheck:
    def test_real_chunking_passes(self):
        dim = build_dimension("D", [4, 16, 64], fanout="random", seed=3)
        chunking = DimensionChunking(
            dim, desired_sizes_for_ratio(dim, 0.3)
        )
        invariants.check_closure(chunking)  # does not raise

    def test_corrupted_ranges_caught(self):
        dim = build_dimension("D", [4, 16])
        chunking = DimensionChunking(
            dim, desired_sizes_for_ratio(dim, 0.5)
        )
        # Tear a hole in the leaf level behind the class's back.
        leaf = chunking._ranges[2]
        chunking._ranges[2] = leaf[:-1]
        with pytest.raises(InvariantViolation):
            invariants.check_closure(chunking)


class TestPartitionCheck:
    @pytest.fixture()
    def analyzed_and_grid(self, small_schema, small_space):
        from repro.pipeline.stages import AnalyzedQuery

        query = StarQuery.build(small_schema, (1, 1), {"D0": (1, 4)})
        grid = small_space.grid(query.groupby)
        numbers = grid.chunk_numbers_for_selection(query.selections)
        return AnalyzedQuery.from_query(query, tuple(numbers)), grid

    def test_correct_partitions_pass(self, analyzed_and_grid):
        analyzed, grid = analyzed_and_grid
        invariants.check_partition(analyzed, grid)

    def test_missing_partition_caught(self, analyzed_and_grid):
        analyzed, grid = analyzed_and_grid
        from repro.pipeline.stages import AnalyzedQuery

        truncated = AnalyzedQuery.from_query(
            analyzed.query, analyzed.partitions[:-1]
        )
        with pytest.raises(InvariantViolation, match="count"):
            invariants.check_partition(truncated, grid)

    def test_duplicate_partition_caught(self, analyzed_and_grid):
        analyzed, grid = analyzed_and_grid
        from repro.pipeline.stages import AnalyzedQuery

        first = analyzed.partitions[0]
        doubled = AnalyzedQuery.from_query(
            analyzed.query, (first,) + analyzed.partitions[:-1]
        )
        with pytest.raises(InvariantViolation, match="ascending"):
            invariants.check_partition(doubled, grid)


class TestCacheAccountingCheck:
    def test_cheap_bounds(self):
        with pytest.raises(InvariantViolation, match="negative"):
            invariants.check_cache_accounting(-1, 100)
        with pytest.raises(InvariantViolation, match="exceeds"):
            invariants.check_cache_accounting(101, 100)

    def test_deep_byte_conservation(self):
        entry = make_chunk()
        invariants.check_cache_accounting(
            entry.size_bytes, 10**6, [entry]
        )
        with pytest.raises(InvariantViolation, match="conservation"):
            invariants.check_cache_accounting(
                entry.size_bytes + 1, 10**6, [entry]
            )

    def test_deep_benefit_validity(self):
        entry = make_chunk(benefit=float("nan"))
        with pytest.raises(InvariantViolation, match="benefit"):
            invariants.check_cache_accounting(
                entry.size_bytes, 10**6, [entry]
            )


class TestTraceConservationCheck:
    def make_pair(self, **overrides):
        from repro.core.metrics import QueryRecord

        trace = ExecutionTrace(
            stages=[StageTrace("resolve:backend", pages_read=5)],
            resolved_by={"backend": 2},
            partitions_total=2,
            backend_pages=5,
        )
        fields = dict(
            time=1.0, full_cost=2.0, saved_cost=0.0,
            chunks_total=2, chunks_hit=0, pages_read=5,
        )
        fields.update(overrides)
        return trace, QueryRecord(**fields)

    def test_conserved_pair_passes(self):
        trace, record = self.make_pair()
        invariants.check_trace_conservation(trace, record)

    def test_page_mismatch_caught(self):
        trace, record = self.make_pair(pages_read=4)
        with pytest.raises(InvariantViolation, match="pages"):
            invariants.check_trace_conservation(trace, record)

    def test_stage_page_mismatch_caught(self):
        trace, record = self.make_pair()
        trace.stages[0] = trace.stages[0]._replace(pages_read=4)
        with pytest.raises(InvariantViolation, match="stage pages_read"):
            invariants.check_trace_conservation(trace, record)

    def test_attribution_mismatch_caught(self):
        trace, record = self.make_pair()
        trace.resolved_by["backend"] = 1
        with pytest.raises(InvariantViolation, match="attribution"):
            invariants.check_trace_conservation(trace, record)

    def test_savings_above_full_cost_caught(self):
        trace, record = self.make_pair(saved_cost=3.0)
        with pytest.raises(InvariantViolation, match="saved_cost"):
            invariants.check_trace_conservation(trace, record)


class TestWiring:
    """The checks actually fire from inside the subsystems."""

    def test_chunk_cache_mutations_checked(self, deep_mode):
        cache = ChunkCache(10**6)
        entry = make_chunk()
        cache.put(entry)
        cache.invalidate(entry.key)
        assert invariants.counters()["deep"] >= 2

    def test_chunk_cache_detects_tampering(self, deep_mode):
        cache = ChunkCache(10**6)
        cache.put(make_chunk(number=0))
        cache._used_bytes += 1  # simulate an accounting bug
        with pytest.raises(InvariantViolation):
            cache.put(make_chunk(number=1))

    def test_chunking_checked_on_build(self, deep_mode):
        dim = build_dimension("D", [3, 12])
        DimensionChunking(dim, desired_sizes_for_ratio(dim, 0.4))
        assert invariants.counters()["deep"] >= 1

    def test_query_cache_checked(
        self, deep_mode, small_schema, fresh_small_engine
    ):
        manager = QueryCacheManager(
            small_schema, fresh_small_engine, capacity_bytes=2_000_000
        )
        manager.answer(StarQuery.build(small_schema, (1, 1)))
        counts = invariants.counters()
        assert counts["deep"] >= 1  # admit triggered deep accounting
        assert counts["cheap"] >= 1  # trace conservation in the executor

    def test_one_conservation_check_per_query(
        self, small_schema, fresh_small_engine
    ):
        # Default (cheap) mode: a warm query runs exactly the executor's
        # trace-conservation check; a cold one adds one accounting check
        # per admitted chunk.
        previous = invariants.set_mode("cheap")
        try:
            manager = ChunkCacheManager(
                small_schema,
                fresh_small_engine.space,
                fresh_small_engine,
                ChunkCache(2_000_000),
            )
            query = StarQuery.build(small_schema, (2, 2), {"D0": (0, 5)})
            invariants.reset_counters()
            chunks = manager.answer(query).record.chunks_total
            assert invariants.counters()["cheap"] == 1 + chunks
            manager.answer(query)
            assert invariants.counters()["cheap"] == 2 + chunks
        finally:
            invariants.set_mode(previous)

    def test_off_mode_skips_everything(self, small_schema):
        previous = invariants.set_mode("off")
        invariants.reset_counters()
        try:
            cache = ChunkCache(10**6)
            cache.put(make_chunk())
            assert invariants.counters() == {"cheap": 0, "deep": 0}
        finally:
            invariants.set_mode(previous)
