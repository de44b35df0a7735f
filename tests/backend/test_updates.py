"""Tests for the update path: delta appends, reorganize, invalidation."""

import numpy as np
import pytest

from repro.backend.engine import BackendEngine
from repro.chunks.grid import ChunkSpace
from repro.core.cache import ChunkCache
from repro.core.manager import ChunkCacheManager
from repro.core.query_cache import QueryCacheManager
from repro.exceptions import BackendError
from repro.query.model import StarQuery
from repro.storage.record import fact_record_format
from repro.workload.data import generate_fact_table
from tests.conftest import answer_from_chunks, canon_rows


@pytest.fixture()
def engine(small_schema, small_records):
    space = ChunkSpace(small_schema, 0.25)
    return BackendEngine.build(
        small_schema, space, small_records, page_size=1024,
        buffer_pool_pages=16,
    )


def new_tuples(schema, n=50, seed=99):
    return generate_fact_table(schema, n, seed=seed)


class TestAppend:
    def test_answers_include_delta_everywhere(self, small_schema, engine):
        extra = new_tuples(small_schema)
        engine.append_records(extra)
        query = StarQuery.build(small_schema, (1, 1), {"D0": (0, 4)})
        scan_rows, _ = engine.answer(query, "scan")
        bitmap_rows, _ = engine.answer(query, "bitmap")
        chunk_rows, _ = answer_from_chunks(engine, query)
        assert canon_rows(scan_rows) == canon_rows(bitmap_rows)
        assert canon_rows(scan_rows) == canon_rows(chunk_rows)
        # And the counts reflect the appended tuples.
        count_query = StarQuery.build(
            small_schema, (0, 0), aggregates=[("v", "count")]
        )
        rows, _ = answer_from_chunks(engine, count_query)
        assert int(rows["count_v"][0]) == 5000 + len(extra)

    def test_affected_chunks_reported(self, small_schema, engine):
        fmt = fact_record_format(small_schema)
        one = fmt.empty(1)
        one["D0"] = 0
        one["D1"] = 0
        one["v"] = 1.0
        affected = engine.append_records(one)
        assert affected == [0]

    def test_empty_append_noop(self, small_schema, engine):
        fmt = fact_record_format(small_schema)
        assert engine.append_records(fmt.empty(0)) == []

    def test_append_drops_materialized(self, small_schema, engine):
        engine.materialize((1, 1))
        engine.append_records(new_tuples(small_schema))
        assert not engine.materialized

    def test_wrong_dtype_rejected(self, small_schema, engine):
        with pytest.raises(BackendError):
            engine.append_records(np.zeros(1, dtype=[("x", "i8")]))

    def test_out_of_range_ordinal_rejected_before_anything_is_stored(
        self, small_schema, engine
    ):
        extra = new_tuples(small_schema)
        extra["D0"][3] = -1
        pages = engine.disk.num_pages
        with pytest.raises(BackendError, match="'D0'"):
            engine.append_records(extra)
        assert engine.delta_file is None
        assert engine.disk.num_pages == pages

    def test_random_organization_rejected(self, small_schema, small_records):
        space = ChunkSpace(small_schema, 0.25)
        random_engine = BackendEngine.build(
            small_schema, space, small_records, organization="random"
        )
        with pytest.raises(BackendError):
            random_engine.append_records(new_tuples(small_schema))

    def test_multiple_appends_accumulate(self, small_schema, engine):
        engine.append_records(new_tuples(small_schema, 20, seed=1))
        engine.append_records(new_tuples(small_schema, 30, seed=2))
        count_query = StarQuery.build(
            small_schema, (0, 0), aggregates=[("v", "count")]
        )
        rows, _ = engine.answer(count_query, "scan")
        assert int(rows["count_v"][0]) == 5050


class TestReorganize:
    def test_reorganize_preserves_answers(self, small_schema, engine):
        engine.append_records(new_tuples(small_schema))
        query = StarQuery.build(small_schema, (2, 1), {"D0": (2, 7)})
        before, _ = engine.answer(query, "scan")
        engine.reorganize()
        assert engine.delta_file is None
        after_scan, _ = engine.answer(query, "scan")
        after_chunk, _ = answer_from_chunks(engine, query)
        after_bitmap, _ = engine.answer(query, "bitmap")
        assert canon_rows(before) == canon_rows(after_scan)
        assert canon_rows(before) == canon_rows(after_chunk)
        assert canon_rows(before) == canon_rows(after_bitmap)

    def test_reorganize_restores_clustering(self, small_schema, engine):
        engine.append_records(new_tuples(small_schema, 500))
        engine.reorganize()
        from repro.storage.chunkedfile import tuple_chunk_numbers

        stored = engine.chunked_file.read_all()
        numbers = tuple_chunk_numbers(
            engine.space.base_grid, stored, ("D0", "D1")
        )
        assert np.all(np.diff(numbers) >= 0)

    def test_reorganize_without_delta_noop(self, small_schema, engine):
        engine.reorganize()  # must not raise

    def test_reorganize_builds_bitmaps_after_an_empty_load(
        self, small_schema, small_records
    ):
        engine = BackendEngine.build(
            small_schema, ChunkSpace(small_schema, 0.25), small_records[:0],
            page_size=1024,
        )
        assert not engine.bitmaps
        engine.append_records(new_tuples(small_schema))
        engine.reorganize()
        query = StarQuery.build(small_schema, (2, 1), {"D0": (2, 7)})
        scan_rows, _ = engine.answer(query, "scan")
        bitmap_rows, _ = engine.answer(query, "bitmap")
        assert len(scan_rows)
        assert canon_rows(bitmap_rows) == canon_rows(scan_rows)
        _, auto = engine.answer(query)
        assert auto.access_path == "bitmap"


class TestChunkCacheInvalidation:
    def test_stale_chunks_dropped_and_answers_correct(
        self, small_schema, engine
    ):
        manager = ChunkCacheManager(
            small_schema, engine.space, engine, ChunkCache(2_000_000)
        )
        query = StarQuery.build(small_schema, (1, 1))
        first = manager.answer(query)
        assert manager.answer(query).record.chunks_hit > 0

        affected = engine.append_records(new_tuples(small_schema, 40))
        removed = manager.invalidate_base_chunks(affected)
        assert removed > 0

        fresh = manager.answer(query)
        expected, _ = engine.answer(query, "scan")
        assert canon_rows(fresh.rows) == canon_rows(expected)
        # Without invalidation the old (stale) answer would differ.
        assert canon_rows(fresh.rows) != canon_rows(first.rows)

    def test_unrelated_chunks_survive(self, small_schema, engine):
        manager = ChunkCacheManager(
            small_schema, engine.space, engine, ChunkCache(2_000_000)
        )
        left = StarQuery.build(small_schema, (2, 2), {"D0": (0, 2)})
        manager.answer(left)
        resident_before = len(manager.cache)
        # Append a tuple far away from the cached region (D0 leaf 9).
        fmt = fact_record_format(small_schema)
        one = fmt.empty(1)
        one["D0"] = 9
        one["D1"] = 7
        affected = engine.append_records(one)
        removed = manager.invalidate_base_chunks(affected)
        assert removed < resident_before
        answer = manager.answer(left)
        expected, _ = engine.answer(left, "scan")
        assert canon_rows(answer.rows) == canon_rows(expected)

    def test_empty_invalidation(self, small_schema, engine):
        manager = ChunkCacheManager(
            small_schema, engine.space, engine, ChunkCache(2_000_000)
        )
        assert manager.invalidate_base_chunks([]) == 0


class TestQueryCacheInvalidation:
    def test_stale_results_dropped(self, small_schema, engine):
        manager = QueryCacheManager(small_schema, engine, 2_000_000)
        query = StarQuery.build(small_schema, (1, 1))
        manager.answer(query)
        assert manager.answer(query).record.chunks_hit == 1

        affected = engine.append_records(new_tuples(small_schema, 30))
        removed = manager.invalidate_base_chunks(affected)
        assert removed > 0

        fresh = manager.answer(query)
        assert fresh.record.chunks_hit == 0  # recomputed
        expected, _ = engine.answer(query, "scan")
        assert canon_rows(fresh.rows) == canon_rows(expected)

    def test_disjoint_results_survive(self, small_schema, engine):
        manager = QueryCacheManager(small_schema, engine, 2_000_000)
        left = StarQuery.build(small_schema, (2, 2), {"D0": (0, 2)})
        manager.answer(left)
        fmt = fact_record_format(small_schema)
        one = fmt.empty(1)
        one["D0"] = 9
        one["D1"] = 7
        affected = engine.append_records(one)
        manager.invalidate_base_chunks(affected)
        assert manager.answer(left).record.chunks_hit == 1
