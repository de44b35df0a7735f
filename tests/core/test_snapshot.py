"""The typed Snapshot tree and its canonical JSON rendering.

``manager.snapshot()`` exposes cache composition and stream aggregates
as a typed frozen tree; ``to_json()`` renders it with a pinned key
order and pinned numeric types (the order the pre-snapshot report
dictionaries used).
"""

import json

import pytest

from repro.core.cache import ChunkCache
from repro.core.manager import ChunkCacheManager
from repro.core.query_cache import QueryCacheManager
from repro.core.snapshot import (
    ChunkCacheSnapshot,
    QueryCacheSnapshot,
    Snapshot,
)
from repro.query.model import StarQuery


def _queries(schema):
    return [
        StarQuery.build(schema, (1, 1), {}),
        StarQuery.build(schema, (1, 1), {"D0": (0, 3)}),
        StarQuery.build(schema, (2, 1), {}),
        StarQuery.build(schema, (1, 1), {}),
    ]


@pytest.fixture()
def chunk_manager(small_schema, small_engine):
    manager = ChunkCacheManager(
        small_schema,
        small_engine.space,
        small_engine,
        ChunkCache(1 << 18, "benefit"),
        aggregate_in_cache=True,
    )
    for query in _queries(small_schema):
        manager.answer(query)
    return manager


@pytest.fixture()
def query_manager(small_schema, small_engine):
    manager = QueryCacheManager(small_schema, small_engine, 1 << 18)
    for query in _queries(small_schema):
        manager.answer(query)
    return manager


class TestChunkScheme:
    def test_legacy_key_order_and_types(self, chunk_manager):
        rendered = chunk_manager.snapshot().to_json()["cache"]
        # Insertion order is part of the contract.
        assert list(rendered) == [
            "used_bytes", "capacity_bytes", "entries", "hit_ratio",
            "evictions", "per_groupby", "stages", "resolved_by", "faults",
        ]
        for bucket in rendered["per_groupby"]:
            assert type(bucket["chunks"]) is int
            assert type(bucket["bytes"]) is int
            assert type(bucket["benefit"]) is float

    def test_typed_tree_matches_the_dict(self, chunk_manager):
        snapshot = chunk_manager.snapshot()
        assert snapshot.kind == "chunk"
        cache = snapshot.cache
        assert isinstance(cache, ChunkCacheSnapshot)
        rendered = snapshot.to_json()["cache"]
        assert cache.used_bytes == rendered["used_bytes"]
        assert cache.entries == rendered["entries"]
        assert cache.hit_ratio == rendered["hit_ratio"]
        assert len(cache.per_groupby) == len(rendered["per_groupby"])
        # Stable ordering: descending bytes.
        sizes = [usage.bytes for usage in cache.per_groupby]
        assert sizes == sorted(sizes, reverse=True)
        # The stream's per-stage totals, kept as stage_summary() made them.
        assert cache.stages == chunk_manager.metrics.stage_summary()
        assert rendered["stages"] == cache.stages
        assert cache.contention is None and cache.tiers is None

    def test_to_json_is_serializable_and_canonical(self, chunk_manager):
        payload = chunk_manager.snapshot().to_json()
        round_tripped = json.loads(json.dumps(payload, sort_keys=True))
        assert round_tripped["kind"] == "chunk"
        assert round_tripped["cache"]["entries"] == len(
            chunk_manager.cache
        )

    def test_fault_stats_match_legacy_faults_entry(self, chunk_manager):
        snapshot = chunk_manager.snapshot()
        faults = snapshot.cache.fault_stats()
        rendered = snapshot.to_json()["cache"]["faults"]
        assert list(rendered) == list(vars(faults))
        assert faults.poisoned_puts == rendered["poisoned_puts"]
        assert faults.retries == rendered["retries"]
        assert faults.degraded == rendered["degraded"]


class TestQueryScheme:
    def test_typed_tree_shape(self, query_manager):
        snapshot = query_manager.snapshot()
        assert snapshot.kind == "query"
        cache = snapshot.cache
        assert isinstance(cache, QueryCacheSnapshot)
        rendered = snapshot.to_json()["cache"]
        assert cache.redundancy_ratio == rendered["redundancy_ratio"]
        assert len(cache.per_shape) == len(rendered["per_shape"])
        for usage in cache.per_shape:
            assert type(usage.results) is int
            assert type(usage.bytes) is int

    def test_to_json_is_serializable(self, query_manager):
        payload = query_manager.snapshot().to_json()
        assert json.loads(json.dumps(payload))["kind"] == "query"


class TestProtocol:
    def test_snapshot_is_a_protocol_member(
        self, chunk_manager, query_manager
    ):
        from repro.pipeline.protocol import QueryAnswerer

        for manager in (chunk_manager, query_manager):
            assert isinstance(manager, QueryAnswerer)
            assert isinstance(manager.snapshot(), Snapshot)
