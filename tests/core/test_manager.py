"""Tests for repro.core.manager — the chunk cache manager pipeline."""

import numpy as np
import pytest

from repro.analysis.cost import CostModel
from repro.backend.engine import BackendEngine
from repro.chunks.grid import ChunkSpace
from repro.core.cache import ChunkCache
from repro.core.chunk import ChunkKey
from repro.core.manager import ChunkCacheManager
from repro.core.query_cache import QueryCacheManager
from repro.core.tiered import TieredChunkCache, chunk_token, encode_chunk
from repro.exceptions import CacheError
from repro.query.model import StarQuery
from repro.storage.chunklog import ChunkLog
from tests.conftest import canon_rows


@pytest.fixture()
def manager(small_schema, fresh_small_engine):
    cache = ChunkCache(2_000_000, "benefit")
    return ChunkCacheManager(
        small_schema,
        fresh_small_engine.space,
        fresh_small_engine,
        cache,
    )


def q(schema, groupby=(1, 1), selections=None, **kwargs):
    return StarQuery.build(schema, groupby, selections, **kwargs)


class TestAnswerCorrectness:
    @pytest.mark.parametrize(
        "groupby,selections",
        [
            ((1, 1), {"D0": (1, 4)}),
            ((2, 2), {"D0": (3, 9), "D1": (2, 6)}),
            ((1, 0), None),
            ((0, 2), {"D1": (1, 7)}),
            ((2, 1), {"D0": (0, 5)}),
        ],
    )
    def test_matches_backend_scan(self, small_schema, manager, groupby, selections):
        query = q(small_schema, groupby, selections)
        answer = manager.answer(query)
        expected, _ = manager.backend.answer(query, "scan")
        assert canon_rows(answer.rows) == canon_rows(expected)

    def test_correct_after_warm_cache(self, small_schema, manager):
        query = q(small_schema, (1, 1), {"D0": (0, 3)})
        first = manager.answer(query)
        second = manager.answer(query)
        assert canon_rows(first.rows) == canon_rows(second.rows)

    def test_correct_with_partial_overlap(self, small_schema, manager):
        manager.answer(q(small_schema, (2, 2), {"D0": (0, 5)}))
        overlapping = q(small_schema, (2, 2), {"D0": (3, 8)})
        answer = manager.answer(overlapping)
        expected, _ = manager.backend.answer(overlapping, "scan")
        assert canon_rows(answer.rows) == canon_rows(expected)


#: (group-by, selections, dim_filters) whose warm answer is assembled
#: from: one chunk as it is, one chunk trimmed, twelve chunks, no row.
OWNERSHIP_CASES = {
    "one chunk": ((1, 1), {"D0": (0, 1), "D1": (0, 1)}, None),
    "one chunk trimmed": ((2, 2), {"D0": (0, 1), "D1": (0, 1)}, None),
    "many chunks": ((2, 2), {"D0": (0, 5)}, None),
    "empty": ((2, 2), {"D0": (0, 2)}, {"D0": (5, 6)}),
}


class TestAnswersOwnTheirRows:
    @pytest.mark.parametrize("scheme", ["chunk", "query", "promoted"])
    @pytest.mark.parametrize("case", OWNERSHIP_CASES)
    def test_rows_never_alias_a_cached_payload(
        self, small_schema, fresh_small_engine, manager, scheme, case
    ):
        if scheme == "query":
            manager = QueryCacheManager(
                small_schema, fresh_small_engine, 2_000_000
            )
        groupby, selections, filters = OWNERSHIP_CASES[case]
        query = q(small_schema, groupby, selections, dim_filters=filters)
        if scheme == "promoted":
            # Every chunk of the answer starts in L2: ``cold`` below is
            # assembled from chunks promoted there and then, ``warm``
            # from the same read-only rows now resident in L1.
            manager.answer(query)
            log = ChunkLog()
            for key, entry in manager.cache.snapshot():
                log.put(chunk_token(key), encode_chunk(entry), entry.benefit)
            manager = ChunkCacheManager(
                small_schema, manager.space, fresh_small_engine,
                TieredChunkCache(ChunkCache(2_000_000, "benefit"), log),
            )
        cold, warm = manager.answer(query), manager.answer(query)
        assert warm.record.is_full_hit
        expected = warm.rows.tobytes()
        assert (len(warm.rows) == 0) == (case == "empty")
        if scheme == "query":
            payloads = [e.rows for _, e in manager._store.snapshot()]
        else:
            payloads = [e.rows for _, e in manager.cache.snapshot()]
        if scheme == "promoted":
            assert cold.record.is_full_hit
            assert manager.cache.tiers()["l2"]["promotes"] == len(payloads) > 0
            # Immutable once admitted: a view of the verified record copy.
            assert not any(
                rows.flags.writeable or rows.flags.owndata for rows in payloads
            )
        for answer in (cold, warm):
            assert not any(
                np.shares_memory(answer.rows, rows) for rows in payloads
            )
            answer.rows.view(np.uint8).fill(0xFF)
        assert manager.answer(query).rows.tobytes() == expected


class TestCachingBehaviour:
    def test_repeat_query_is_full_hit(self, small_schema, manager):
        query = q(small_schema, (1, 1), {"D0": (0, 3)})
        first = manager.answer(query)
        assert first.record.chunks_hit == 0
        second = manager.answer(query)
        assert second.record.chunks_hit == second.record.chunks_total
        assert second.record.pages_read == 0
        assert second.record.saved_cost == pytest.approx(
            second.record.full_cost
        )

    def test_overlap_partially_reuses(self, small_schema, manager):
        manager.answer(q(small_schema, (2, 2), {"D0": (0, 6)}))
        answer = manager.answer(q(small_schema, (2, 2), {"D0": (4, 9)}))
        assert 0 < answer.record.chunks_hit < answer.record.chunks_total

    def test_different_groupby_no_reuse(self, small_schema, manager):
        manager.answer(q(small_schema, (2, 2)))
        answer = manager.answer(q(small_schema, (1, 1)))
        assert answer.record.chunks_hit == 0

    def test_different_aggregates_no_reuse(self, small_schema, manager):
        manager.answer(q(small_schema, (1, 1), aggregates=[("v", "sum")]))
        answer = manager.answer(
            q(small_schema, (1, 1), aggregates=[("v", "count")])
        )
        assert answer.record.chunks_hit == 0

    def test_different_fixed_predicates_no_reuse(self, small_schema, manager):
        manager.answer(q(small_schema, (1, 1)))
        answer = manager.answer(
            q(small_schema, (1, 1), fixed_predicates=["price>5"])
        )
        assert answer.record.chunks_hit == 0

    def test_cached_chunks_cover_whole_chunk(self, small_schema, manager):
        """Boundary chunks are cached complete, not query-filtered."""
        query = q(small_schema, (2, 2), {"D0": (1, 2)})  # inside one chunk
        manager.answer(query)
        grid = manager.space.grid((2, 2))
        numbers = grid.chunk_numbers_for_selection(query.selections)
        key = ChunkKey((2, 2), numbers[0], query.aggregates)
        entry = manager.cache.peek(key)
        assert entry is not None
        cell = grid.cell_ranges(numbers[0])[0]
        stored_d0 = set(entry.rows["D0"].tolist())
        # The chunk region extends beyond the query's selection.
        assert stored_d0 - set(range(1, 2)), "chunk should hold extra rows"
        assert all(cell.lo <= v < cell.hi for v in stored_d0)

    def test_metrics_accumulate(self, small_schema, manager):
        manager.answer(q(small_schema, (1, 1)))
        manager.answer(q(small_schema, (1, 1)))
        assert len(manager.metrics) == 2
        assert manager.metrics.cost_saving_ratio() > 0

    def test_empty_region_query(self, small_schema, manager):
        """Queries over regions with no data return empty results."""
        # All data lives in leaf ordinals 0..9; the query engine still
        # answers structurally even when a chunk holds zero tuples.
        query = q(small_schema, (2, 2), {"D0": (9, 10), "D1": (7, 8)})
        answer = manager.answer(query)
        expected, _ = manager.backend.answer(query, "scan")
        assert canon_rows(answer.rows) == canon_rows(expected)

    def test_requires_chunked_backend(self, small_schema, small_records):
        space = ChunkSpace(small_schema, 0.25)
        random_engine = BackendEngine.build(
            small_schema, space, small_records, organization="random"
        )
        with pytest.raises(CacheError):
            ChunkCacheManager(
                small_schema, space, random_engine, ChunkCache(1000)
            )


class TestZeroCapacityCache:
    def test_still_correct(self, small_schema, fresh_small_engine):
        manager = ChunkCacheManager(
            small_schema,
            fresh_small_engine.space,
            fresh_small_engine,
            ChunkCache(0),
        )
        query = q(small_schema, (1, 1), {"D0": (0, 3)})
        first = manager.answer(query)
        second = manager.answer(query)
        assert canon_rows(first.rows) == canon_rows(second.rows)
        assert second.record.chunks_hit == 0  # nothing ever cached
        assert manager.cache.stats.rejected > 0


class TestExtensionFlagsAreReadOnly:
    """The resolver chain is built from the flags at construction, so an
    assignment afterwards would change nothing: it must raise instead."""

    @pytest.mark.parametrize(
        "flag", ["aggregate_in_cache", "prefetch_drilldown"]
    )
    def test_assignment_raises(self, manager, flag):
        names = [r.name for r in manager.pipeline.resolvers]
        with pytest.raises(AttributeError):
            setattr(manager, flag, True)
        assert getattr(manager, flag) is False
        assert [r.name for r in manager.pipeline.resolvers] == names

    def test_prefetch_implies_derivation(
        self, small_schema, fresh_small_engine
    ):
        manager = ChunkCacheManager(
            small_schema,
            fresh_small_engine.space,
            fresh_small_engine,
            ChunkCache(2_000_000),
            prefetch_drilldown=True,
        )
        assert manager.aggregate_in_cache and manager.prefetch_drilldown


class TestDerivation:
    """The Section 7 future-work extension: aggregate chunks in the cache."""

    @pytest.fixture()
    def deriving_manager(self, small_schema, fresh_small_engine):
        return ChunkCacheManager(
            small_schema,
            fresh_small_engine.space,
            fresh_small_engine,
            ChunkCache(4_000_000),
            aggregate_in_cache=True,
        )

    def test_derives_coarse_from_fine(self, small_schema, deriving_manager):
        fine = q(small_schema, (2, 2))  # caches every base-level chunk
        deriving_manager.answer(fine)
        coarse = q(small_schema, (1, 1))
        answer = deriving_manager.answer(coarse)
        assert answer.record.chunks_derived == answer.record.chunks_total
        assert answer.record.pages_read == 0
        expected, _ = deriving_manager.backend.answer(coarse, "scan")
        assert canon_rows(answer.rows) == canon_rows(expected)

    def test_partial_sources_fall_back_to_backend(
        self, small_schema, deriving_manager
    ):
        deriving_manager.answer(q(small_schema, (2, 2), {"D0": (0, 2)}))
        answer = deriving_manager.answer(q(small_schema, (1, 1)))
        # Not all fine chunks are cached, so some targets hit the backend.
        assert answer.record.chunks_derived < answer.record.chunks_total
        expected, _ = deriving_manager.backend.answer(
            q(small_schema, (1, 1)), "scan"
        )
        assert canon_rows(answer.rows) == canon_rows(expected)

    def test_avg_not_derivable(self, small_schema, deriving_manager):
        fine = q(small_schema, (2, 2), aggregates=[("v", "avg")])
        deriving_manager.answer(fine)
        coarse = q(small_schema, (1, 1), aggregates=[("v", "avg")])
        answer = deriving_manager.answer(coarse)
        assert answer.record.chunks_derived == 0
        expected, _ = deriving_manager.backend.answer(coarse, "scan")
        assert canon_rows(answer.rows) == canon_rows(expected)

    def test_derived_chunks_enter_cache(self, small_schema, deriving_manager):
        deriving_manager.answer(q(small_schema, (2, 2)))
        deriving_manager.answer(q(small_schema, (1, 1)))
        repeat = deriving_manager.answer(q(small_schema, (1, 1)))
        assert repeat.record.chunks_hit == repeat.record.chunks_total


class TestCostAccounting:
    def test_full_cost_stable_across_cache_state(self, small_schema, manager):
        query = q(small_schema, (1, 1), {"D0": (0, 4)})
        first = manager.answer(query)
        second = manager.answer(query)
        assert first.record.full_cost == pytest.approx(
            second.record.full_cost
        )

    def test_miss_time_reflects_io(self, small_schema, fresh_small_engine):
        model = CostModel(io_page_cost=1.0, cpu_tuple_cost=0.0,
                          cache_tuple_cost=0.0)
        manager = ChunkCacheManager(
            small_schema,
            fresh_small_engine.space,
            fresh_small_engine,
            ChunkCache(2_000_000),
            cost_model=model,
        )
        answer = manager.answer(q(small_schema, (1, 1)))
        assert answer.record.time == pytest.approx(
            float(answer.record.pages_read)
        )
