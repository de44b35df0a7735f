"""Tests for pre-aggregation dimension filters (non-group-by selections).

Section 5.2.1 condition 3: selections on non-group-by attributes are
folded in before aggregation and must match exactly for cache reuse.
"""

import pytest

from repro.core.cache import ChunkCache
from repro.core.manager import ChunkCacheManager
from repro.exceptions import QueryError
from repro.query.model import StarQuery
from tests.conftest import brute_force_aggregate, canon_rows


def filtered_brute_force(schema, records, query):
    filters = query.effective_dim_filters(schema)
    mask = [True] * len(records)
    kept = records
    import numpy as np

    keep = np.ones(len(records), dtype=bool)
    for dim, interval in zip(schema.dimensions, filters):
        if interval is None:
            continue
        column = records[dim.name]
        keep &= (column >= interval[0]) & (column < interval[1])
    kept = records[keep]
    return brute_force_aggregate(
        schema, kept, query.groupby, list(query.aggregates),
        selections=query.selections,
    )


class TestStarQueryFilters:
    def test_filters_normalized_and_tagged(self, small_schema):
        q = StarQuery.build(
            small_schema, (1, 0), dim_filters={"D1": (2, 6)}
        )
        assert q.dim_filters == (None, (2, 6))
        assert any("D1.leaf" in tag for tag in q.fixed_predicates)

    def test_full_domain_filter_dropped(self, small_schema):
        q = StarQuery.build(
            small_schema, (1, 0), dim_filters={"D1": (0, 8)}
        )
        assert q.dim_filters == (None, None)
        assert q.fixed_predicates == frozenset()

    def test_filters_affect_compatibility(self, small_schema):
        a = StarQuery.build(small_schema, (1, 0), dim_filters={"D1": (2, 6)})
        b = StarQuery.build(small_schema, (1, 0))
        assert a.shape_key() != b.shape_key()

    def test_leaf_selection_intersects(self, small_schema):
        q = StarQuery.build(
            small_schema, (1, 1),
            selections={"D1": (0, 2)},   # level-1 members 0..1
            dim_filters={"D1": (1, 5)},  # leaf members 1..4
        )
        leaf = q.leaf_selection(small_schema)
        d1 = small_schema.dimensions[1]
        mapped = d1.map_range(1, (0, 2), 2)
        assert leaf[1] == (max(mapped[0], 1), min(mapped[1], 5))

    def test_disjoint_selection_and_filter_raise(self, small_schema):
        q = StarQuery.build(
            small_schema, (1, 1),
            selections={"D1": (0, 1)},
            dim_filters={"D1": (6, 8)},
        )
        with pytest.raises(QueryError):
            q.leaf_selection(small_schema)

    def test_from_values_filters(self, small_schema):
        q = StarQuery.from_values(
            small_schema,
            {"D0": 1},
            value_filters={"D1": (1, "D1/L1/1", "D1/L1/2")},
        )
        d1 = small_schema.dimensions[1]
        expected = d1.map_range(1, (1, 3), 2)
        assert q.dim_filters[1] == expected


class TestFilteredExecution:
    @pytest.mark.parametrize("path", ["scan", "bitmap", "chunk"])
    def test_engine_paths_agree_with_brute_force(
        self, small_schema, fresh_small_engine, small_records, path
    ):
        query = StarQuery.build(
            small_schema, (1, 0),
            selections={"D0": (1, 4)},
            dim_filters={"D1": (2, 6)},
        )
        rows, _ = fresh_small_engine.answer(query, path)
        assert canon_rows(rows) == filtered_brute_force(
            small_schema, small_records, query
        )

    def test_filter_on_grouped_dim_finer_than_group(
        self, small_schema, fresh_small_engine, small_records
    ):
        """A leaf filter can further restrict a grouped dimension."""
        query = StarQuery.build(
            small_schema, (1, 1),
            dim_filters={"D0": (0, 5)},
        )
        rows, _ = fresh_small_engine.answer(query, "chunk")
        assert canon_rows(rows) == filtered_brute_force(
            small_schema, small_records, query
        )


class TestFilteredCaching:
    def test_manager_answers_and_keys_by_filter(
        self, small_schema, fresh_small_engine, small_records
    ):
        manager = ChunkCacheManager(
            small_schema,
            fresh_small_engine.space,
            fresh_small_engine,
            ChunkCache(2_000_000),
        )
        filtered = StarQuery.build(
            small_schema, (1, 1), dim_filters={"D1": (0, 4)}
        )
        unfiltered = StarQuery.build(small_schema, (1, 1))

        a1 = manager.answer(filtered)
        assert canon_rows(a1.rows) == filtered_brute_force(
            small_schema, small_records, filtered
        )
        # The unfiltered query must NOT reuse filtered chunks.
        a2 = manager.answer(unfiltered)
        assert a2.record.chunks_hit == 0
        # Re-asking the filtered query is a full hit.
        a3 = manager.answer(filtered)
        assert a3.record.chunks_hit == a3.record.chunks_total
        assert canon_rows(a3.rows) == canon_rows(a1.rows)
