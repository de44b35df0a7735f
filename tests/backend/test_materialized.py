"""Tests for materialized (precomputed) aggregate tables at the backend.

Section 2.4 of the paper: "Our solution can be easily adapted to the
case where we have precomputed aggregate tables at the backend.  These
tables will also be stored in a chunked format."
"""

import numpy as np
import pytest

from repro.backend.aggregate import (
    finalize_partials,
    partials_format_aggregates,
)
from repro.backend.engine import BackendEngine
from repro.chunks.grid import ChunkSpace
from repro.core.cache import ChunkCache
from repro.core.manager import ChunkCacheManager
from repro.exceptions import BackendError
from repro.query.model import StarQuery
from tests.conftest import canon_rows


class TestFinalizePartials:
    def test_all_aggregates_from_partials(
        self, small_schema, small_records, fresh_small_engine
    ):
        from repro.backend.aggregate import aggregate_records

        stored = partials_format_aggregates(small_schema)
        fine = aggregate_records(
            small_schema, small_records, (2, 2), stored,
            fresh_small_engine.mapper,
        )
        requested = [
            ("v", "sum"), ("v", "count"), ("v", "min"),
            ("v", "max"), ("v", "avg"),
        ]
        merged = finalize_partials(
            small_schema, fine, (2, 2), (1, 1), requested,
            fresh_small_engine.mapper,
        )
        direct = aggregate_records(
            small_schema, small_records, (1, 1), requested,
            fresh_small_engine.mapper,
        )
        assert canon_rows(merged) == canon_rows(direct)


class TestMaterialize:
    def test_materialized_after_an_append_holds_the_delta(
        self, small_schema, fresh_small_engine
    ):
        """A table materialized while appended tuples wait in the delta
        region counts them, as the base table path does."""
        from repro.workload.data import generate_fact_table

        engine = fresh_small_engine
        engine.append_records(generate_fact_table(small_schema, 500, seed=2))
        engine.materialize((1, 1))
        assert engine._choose_source((1, 0), None) is not None
        aggregates = [("v", "count"), ("v", "min"), ("v", "max")]
        numbers = list(range(engine.space.grid((1, 0)).num_chunks))
        derived, _ = engine.compute_chunks((1, 0), numbers, aggregates)
        base, _ = engine.compute_chunks(
            (1, 0), numbers, aggregates, prefer_base=True
        )
        for number in numbers:
            assert derived[number].tobytes() == base[number].tobytes()

    def test_materialize_and_answer(self, small_schema, fresh_small_engine):
        fresh_small_engine.materialize((2, 1))
        assert (2, 1) in fresh_small_engine.materialized
        query = StarQuery.build(small_schema, (1, 1), {"D0": (0, 3)})
        rows, report = fresh_small_engine.answer(query, "chunk")
        expected, _ = fresh_small_engine.answer(query, "scan")
        assert canon_rows(rows) == canon_rows(expected)

    def test_materialized_source_cuts_io(self, small_schema, small_records):
        space = ChunkSpace(small_schema, 0.25)
        engine = BackendEngine.build(
            small_schema, space, small_records, page_size=1024,
            buffer_pool_pages=8,
        )
        query = StarQuery.build(small_schema, (1, 1))
        engine.buffer_pool.flush()
        _, before = engine.answer(query, "chunk")
        engine.materialize((1, 1))
        engine.buffer_pool.flush()
        _, after = engine.answer(query, "chunk")
        assert after.pages_read < before.pages_read
        assert after.tuples_scanned < before.tuples_scanned

    def test_estimates_follow_source(self, small_schema, small_records):
        space = ChunkSpace(small_schema, 0.25)
        engine = BackendEngine.build(
            small_schema, space, small_records, page_size=1024
        )
        grid = space.grid((1, 1))
        numbers = list(range(grid.num_chunks))
        pages_before, tuples_before = engine.estimate_chunk_work(
            (1, 1), numbers
        )
        engine.materialize((1, 1))
        pages_after, tuples_after = engine.estimate_chunk_work(
            (1, 1), numbers
        )
        assert tuples_after < tuples_before
        assert pages_after <= pages_before

    def test_avg_from_materialized(self, small_schema, fresh_small_engine):
        fresh_small_engine.materialize((2, 1))
        query = StarQuery.build(
            small_schema, (1, 0), aggregates=[("v", "avg")]
        )
        rows, _ = fresh_small_engine.answer(query, "chunk")
        expected, _ = fresh_small_engine.answer(query, "scan")
        assert canon_rows(rows) == canon_rows(expected)

    def test_leaf_filters_force_base(self, small_schema, fresh_small_engine):
        fresh_small_engine.materialize((2, 1))
        query = StarQuery.build(
            small_schema, (1, 1), dim_filters={"D1": (2, 6)}
        )
        rows, _ = fresh_small_engine.answer(query, "chunk")
        expected, _ = fresh_small_engine.answer(query, "scan")
        assert canon_rows(rows) == canon_rows(expected)

    def test_incompatible_groupby_not_used(self, small_schema, fresh_small_engine):
        fresh_small_engine.materialize((1, 2))
        # (2, 1) is not a rollup of (1, 2): base must be used, and stay
        # correct.
        query = StarQuery.build(small_schema, (2, 1))
        rows, _ = fresh_small_engine.answer(query, "chunk")
        expected, _ = fresh_small_engine.answer(query, "scan")
        assert canon_rows(rows) == canon_rows(expected)
        assert fresh_small_engine._choose_source((2, 1), None) is None

    def test_picks_cheapest_source(self, small_schema, fresh_small_engine):
        fresh_small_engine.materialize((2, 1))
        fresh_small_engine.materialize((1, 1))
        chosen = fresh_small_engine._choose_source((1, 0), None)
        assert chosen is not None
        assert chosen[0] == (1, 1)  # fewer rows than (2, 1)

    def test_errors(self, small_schema, fresh_small_engine):
        with pytest.raises(BackendError):
            fresh_small_engine.materialize(small_schema.base_groupby)
        fresh_small_engine.materialize((1, 1))
        with pytest.raises(BackendError):
            fresh_small_engine.materialize((1, 1))

    def test_random_organization_rejected(self, small_schema, small_records):
        space = ChunkSpace(small_schema, 0.25)
        engine = BackendEngine.build(
            small_schema, space, small_records, organization="random"
        )
        with pytest.raises(BackendError):
            engine.materialize((1, 1))


class TestManagerWithMaterialized:
    def test_cache_answers_stay_correct(self, small_schema, fresh_small_engine):
        fresh_small_engine.materialize((2, 1))
        manager = ChunkCacheManager(
            small_schema,
            fresh_small_engine.space,
            fresh_small_engine,
            ChunkCache(2_000_000),
        )
        for selections in (None, {"D0": (0, 3)}, {"D1": (1, 3)}):
            query = StarQuery.build(small_schema, (1, 1), selections)
            answer = manager.answer(query)
            expected, _ = fresh_small_engine.answer(query, "scan")
            assert canon_rows(answer.rows) == canon_rows(expected)
