"""Tests for repro.core.cache and repro.core.chunk."""

import json
import pickle
import zlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import ChunkCache
from repro.core.chunk import (
    CachedChunk,
    CachedQuery,
    ChunkKey,
    entry_size_bytes,
)
from repro.core.tiered import TieredChunkCache, chunk_token, token_key
from repro.exceptions import CacheError
from repro.serve import ShardedChunkCache, stable_key_hash
from repro.storage.chunklog import ChunkLog


def make_chunk(number=0, rows=4, benefit=1.0, groupby=(1, 1)):
    data = np.zeros(rows, dtype=[("D0", "i4"), ("sum_v", "f8")])
    key = ChunkKey(groupby, number, (("v", "sum"),))
    return CachedChunk(key=key, rows=data, benefit=benefit)


@dataclass(frozen=True)
class DataclassChunkKey:
    """The reference: ``ChunkKey`` as it was before keys became
    ``(shape, number)`` tuples, copied verbatim but for its name and its
    one method, which ``ChunkKey.shape`` replaced."""

    groupby: tuple[int, ...]
    number: int
    aggregates: tuple[tuple[str, str], ...]
    fixed_predicates: frozenset[str] = frozenset()


def reference_token(key):
    """``chunk_token`` as it was: one JSON document per key."""
    return json.dumps(
        {
            "a": [list(pair) for pair in key.aggregates],
            "g": list(key.groupby),
            "n": key.number,
            "p": sorted(key.fixed_predicates),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def reference_hash(key):
    """``stable_key_hash`` as it was: CRC-32 of the whole rendering."""
    canonical = (
        key.groupby, key.number, key.aggregates,
        tuple(sorted(key.fixed_predicates)),
    )
    return zlib.crc32(repr(canonical).encode("utf-8"))


#: Small alphabets, so two drawn keys often share components.
_NAMES = st.sampled_from(["v", "w", "é"]) | st.text(max_size=3)
KEY_PARTS = st.tuples(
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.integers(-2, 2) | st.integers(-(10**12), 10**12),
    st.lists(
        st.tuples(_NAMES, st.sampled_from(["sum", "count"])), max_size=2
    ).map(tuple),
    st.frozensets(st.sampled_from(["p", "q=1"]) | st.text(max_size=3),
                  max_size=3),
)


class TestChunkKey:
    @settings(max_examples=300, deadline=None)
    @given(a=KEY_PARTS, b=KEY_PARTS)
    def test_identity_is_the_dataclass_identity(self, a, b):
        key, other = ChunkKey(*a), ChunkKey(*b)
        reference = DataclassChunkKey(*a)
        assert (key == other) == (reference == DataclassChunkKey(*b))
        assert (key.shape is other.shape) == (
            (a[0], a[2], a[3]) == (b[0], b[2], b[3])
        )
        if key == other:
            assert hash(key) == hash(other)
        parts = (key.groupby, key.number, key.aggregates,
                 key.fixed_predicates)
        assert parts == a
        # The components are the interned ones: equal to the arguments,
        # but a predicate set equal to one interned earlier may iterate
        # (and print) in that set's order.
        assert repr(key) == repr(DataclassChunkKey(*parts)).replace(
            "DataclassChunkKey(", "ChunkKey(", 1
        )
        clone = pickle.loads(pickle.dumps(key))
        assert type(clone) is ChunkKey and clone == key
        assert clone.shape is key.shape
        assert chunk_token(key) == reference_token(reference)
        assert token_key(chunk_token(key)) == key
        assert stable_key_hash(key) == reference_hash(reference)

    def test_nothing_orders_keys(self):
        # Keys of two shapes do not compare at all.  The tiered store's
        # benefit rankings (L2 budget eviction, reopen) break ties on
        # spill sequence numbers, which are unique, so they never reach
        # the key: equal benefits across shapes rank without a TypeError.
        with pytest.raises(TypeError):
            ChunkKey((1, 1), 0, (("v", "sum"),)) < ChunkKey(
                (1, 0), 0, (("v", "sum"),)
            )
        chunks = [
            make_chunk(number=n, groupby=groupby)
            for n in range(4)
            for groupby in ((1, 1), (1, 0), (0, 1))
        ]
        size = chunks[0].size_bytes
        log = ChunkLog(page_size=256)
        tiered = TieredChunkCache(
            ChunkCache(size), log, l2_budget_bytes=6 * size
        )
        for chunk in chunks:
            tiered.put(chunk)
        seqs = [live.seq for live in tiered._l2.values()]
        assert len(seqs) > 1 and len(set(seqs)) == len(seqs)
        assert tiered.tiers()["l2"]["evictions"] > 0
        reopened = TieredChunkCache(
            ChunkCache(2 * size), log, l2_budget_bytes=3 * size
        )
        assert reopened.reopen() > 0
        seqs = [live.seq for live in reopened._l2.values()]
        assert len(set(seqs)) == len(seqs)

    def test_hashable(self):
        key = ChunkKey((1, 0), 3, (("v", "sum"),), frozenset({"p"}))
        assert key in {key}


class TestEntrySize:
    def test_includes_overhead(self):
        chunk = make_chunk(rows=0)
        assert chunk.size_bytes == entry_size_bytes(chunk.rows)
        assert chunk.size_bytes > 0  # empty chunks still cost something

    def test_grows_with_rows(self):
        assert make_chunk(rows=10).size_bytes > make_chunk(rows=1).size_bytes

    def test_cached_query_size(self, small_schema):
        from repro.query.model import StarQuery

        query = StarQuery.build(small_schema, (1, 1))
        entry = CachedQuery(
            query=query, rows=np.zeros(3, dtype="f8"), benefit=2.0
        )
        assert entry.size_bytes == entry_size_bytes(entry.rows)
        assert entry.num_rows == 3


class TestChunkCache:
    def test_get_miss_then_hit(self):
        cache = ChunkCache(10_000)
        chunk = make_chunk()
        assert cache.get(chunk.key) is None
        cache.put(chunk)
        assert cache.get(chunk.key) is chunk
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_peek_does_not_touch_stats(self):
        cache = ChunkCache(10_000)
        chunk = make_chunk()
        cache.put(chunk)
        cache.peek(chunk.key)
        assert cache.stats.lookups == 0

    def test_budget_respected(self):
        cache = ChunkCache(1_000)
        for number in range(100):
            cache.put(make_chunk(number=number, rows=8))
            assert cache.used_bytes <= cache.capacity_bytes
        assert cache.stats.evictions > 0

    def test_oversized_entry_rejected(self):
        cache = ChunkCache(100)
        assert not cache.put(make_chunk(rows=1000))
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_reinsert_refreshes(self):
        cache = ChunkCache(10_000)
        cache.put(make_chunk(number=1, rows=2))
        bigger = make_chunk(number=1, rows=6)
        cache.put(bigger)
        assert len(cache) == 1
        assert cache.peek(bigger.key).num_rows == 6
        assert cache.used_bytes == bigger.size_bytes

    def test_refresh_larger_than_budget_drops_stale_entry(self):
        """Regression: an over-budget refresh must not leave the old
        payload resident (it would silently serve stale data)."""
        cache = ChunkCache(1_000)
        small = make_chunk(number=1, rows=2)
        assert cache.put(small)
        huge = make_chunk(number=1, rows=10_000)
        assert huge.size_bytes > cache.capacity_bytes
        assert not cache.put(huge)
        assert cache.stats.rejected == 1
        assert cache.peek(huge.key) is None
        assert len(cache) == 0
        assert cache.used_bytes == 0
        assert len(cache.policy) == 0

    def test_refresh_updates_policy_weight(self):
        """A refresh re-enters replacement state at the new benefit, not
        the stale weight of the original insert."""
        cache = ChunkCache(10_000, "benefit")
        cache.put(make_chunk(number=1, rows=2, benefit=1.0))
        refreshed = make_chunk(number=1, rows=2, benefit=9.0)
        cache.put(refreshed)
        node = cache.policy._ring.node(refreshed.key)
        assert node.initial_weight == 9.0

    def test_refresh_counts_as_single_insertion(self):
        cache = ChunkCache(10_000)
        cache.put(make_chunk(number=1, rows=2))
        cache.put(make_chunk(number=1, rows=6))
        assert cache.stats.insertions == 1

    def test_refresh_never_evicts_itself(self):
        """A refresh that fits the budget survives, even when it must
        evict everything else to do so."""
        cache = ChunkCache(300)
        cache.put(make_chunk(number=1, rows=2))
        cache.put(make_chunk(number=2, rows=2))
        bigger = make_chunk(number=1, rows=18)
        assert bigger.size_bytes <= cache.capacity_bytes
        assert cache.put(bigger)
        assert cache.peek(bigger.key) is not None
        assert cache.peek(bigger.key).num_rows == 18

    def test_evict_from_empty_cache_raises(self):
        cache = ChunkCache(1_000)
        with pytest.raises(CacheError):
            cache._evict_one(1.0)

    def test_snapshot_single_pass(self):
        cache = ChunkCache(10_000)
        chunks = [make_chunk(number=n) for n in range(3)]
        for chunk in chunks:
            cache.put(chunk)
        snapshot = cache.snapshot()
        assert [key for key, _ in snapshot] == [c.key for c in chunks]
        assert [entry for _, entry in snapshot] == chunks
        assert cache.stats.lookups == 0  # stats untouched

    def test_invalidate(self):
        cache = ChunkCache(10_000)
        chunk = make_chunk()
        cache.put(chunk)
        assert cache.invalidate(chunk.key)
        assert not cache.invalidate(chunk.key)
        assert cache.used_bytes == 0
        assert len(cache.policy) == 0

    def test_clear(self):
        cache = ChunkCache(10_000)
        for number in range(5):
            cache.put(make_chunk(number=number))
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_keys_snapshot(self):
        cache = ChunkCache(10_000)
        chunk = make_chunk()
        cache.put(chunk)
        assert cache.keys() == [chunk.key]

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            ChunkCache(-1)

    def test_policy_by_name(self):
        for name in ("lru", "clock", "benefit"):
            cache = ChunkCache(1000, name)
            cache.put(make_chunk())
            assert len(cache) == 1

    def test_hit_ratio(self):
        cache = ChunkCache(10_000)
        chunk = make_chunk()
        cache.put(chunk)
        cache.get(chunk.key)
        cache.get(ChunkKey((1, 1), 99, (("v", "sum"),)))
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_hit_ratio_is_zero_at_zero_lookups(self):
        # Pinned: an untouched cache reports 0.0, never a ZeroDivision
        # and never NaN — serving reports aggregate this per shard, and
        # freshly-built shards legitimately have no lookups yet.
        from repro.core.cache import ChunkCacheStats

        stats = ChunkCacheStats()
        assert stats.lookups == 0
        assert repr(stats.hit_ratio) == "0.0"
        assert repr(ChunkCache(1000).stats.hit_ratio) == "0.0"


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(100, 5000),
    ops=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 40)), max_size=80
    ),
    policy=st.sampled_from(["lru", "clock", "benefit"]),
)
def test_cache_invariants_under_churn(capacity, ops, policy):
    """used_bytes tracks entries exactly and never exceeds the budget."""
    cache = ChunkCache(capacity, policy)
    for number, rows in ops:
        cache.put(make_chunk(number=number, rows=rows, benefit=number + 0.5))
        assert cache.used_bytes <= capacity
        expected = sum(
            cache.peek(key).size_bytes for key in cache.keys()
        )
        assert cache.used_bytes == expected
        assert len(cache.policy) == len(cache)


#: One factory per chunk store, each over a byte budget.
STORES = {
    "plain": ChunkCache,
    "sharded": lambda capacity: ShardedChunkCache(capacity, num_shards=3),
    "tiered": lambda capacity: TieredChunkCache(
        ChunkCache(capacity), ChunkLog(page_size=256)
    ),
}


@pytest.mark.parametrize("make_store", STORES.values(), ids=list(STORES))
def test_every_store_takes_its_hooks_as_attributes(make_store):
    store = make_store(4 * make_chunk().size_bytes)
    evicted = []
    store.evict_hook = evicted.append
    store.fault_hook = lambda entry: ("poison", 0)
    assert store.put(make_chunk(number=0)) is False
    assert store.stats.poisoned == 1
    store.fault_hook = None
    for number in range(20):
        assert store.put(make_chunk(number=number)) is True
    assert 0 < len(evicted) == store.stats.evictions
    seen = len(evicted)
    store.evict_hook = None
    for number in range(20, 40):
        store.put(make_chunk(number=number))
    assert store.stats.evictions > seen == len(evicted)
