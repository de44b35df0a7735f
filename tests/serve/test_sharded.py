"""Tests for repro.serve.sharded — the lock-striped chunk cache."""

import random
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import invariants
from repro.core.cache import ChunkCache, ChunkStore
from repro.core.chunk import CachedChunk, ChunkKey
from repro.core.replacement import make_policy
from repro.exceptions import InvariantViolation, ServeError
from repro.serve import CacheShard, ShardedChunkCache, stable_key_hash


def make_chunk(number=0, rows=4, benefit=1.0, groupby=(1, 1)):
    data = np.zeros(rows, dtype=[("D0", "i4"), ("sum_v", "f8")])
    key = ChunkKey(groupby, number, (("v", "sum"),))
    return CachedChunk(key=key, rows=data, benefit=benefit)


class TestStableKeyHash:
    def test_is_crc32_of_canonical_rendering(self):
        key = ChunkKey((2, 1), 7, (("v", "sum"),), frozenset({"b", "a"}))
        canonical = repr(((2, 1), 7, (("v", "sum"),), ("a", "b")))
        assert stable_key_hash(key) == zlib.crc32(canonical.encode("utf-8"))

    @given(
        groupby=st.lists(st.integers(0, 9), max_size=5).map(tuple),
        number=st.integers(-(10**12), 10**12),
        aggregates=st.lists(
            st.tuples(st.text(max_size=4), st.text(max_size=4)), max_size=3
        ).map(tuple),
        predicates=st.frozensets(st.text(max_size=6), max_size=4),
    )
    def test_incremental_form_equals_the_repr_form(
        self, groupby, number, aggregates, predicates
    ):
        # The reference: render the whole key, encode it, checksum it.
        key = ChunkKey(groupby, number, aggregates, predicates)
        canonical = repr(
            (groupby, number, aggregates, tuple(sorted(predicates)))
        )
        assert stable_key_hash(key) == zlib.crc32(canonical.encode("utf-8"))

    def test_predicate_set_order_does_not_matter(self):
        # frozensets built in different orders are equal, but the point
        # is the canonicalisation sorts them before hashing.
        a = ChunkKey((1, 1), 0, (("v", "sum"),), frozenset(["x", "y", "z"]))
        b = ChunkKey((1, 1), 0, (("v", "sum"),), frozenset(["z", "y", "x"]))
        assert stable_key_hash(a) == stable_key_hash(b)

    def test_stable_across_hash_randomization(self):
        # builtin hash() of strings changes with PYTHONHASHSEED; shard
        # placement must not.  Compute the hash in two subprocesses with
        # different seeds and require the same answer.
        program = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.core.chunk import ChunkKey\n"
            "from repro.serve import stable_key_hash\n"
            "key = ChunkKey((3, 2), 11, (('v', 'sum'),),"
            " frozenset({'p', 'q'}))\n"
            "print(stable_key_hash(key))\n"
        )
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                cwd="/root/repo",
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
                check=True,
            )
            outputs.append(proc.stdout.strip())
        assert outputs[0] == outputs[1]
        key = ChunkKey((3, 2), 11, (("v", "sum"),), frozenset({"p", "q"}))
        assert outputs[0] == str(stable_key_hash(key))

    def test_spreads_keys_over_shards(self):
        cache = ShardedChunkCache(1_000_000, num_shards=4)
        hit = {
            cache._shard_for(make_chunk(number=n).key).index
            for n in range(64)
        }
        assert len(hit) > 1  # routing is not degenerate


class TestConstruction:
    def test_rejects_zero_shards(self):
        with pytest.raises(ServeError):
            ShardedChunkCache(1000, num_shards=0)

    def test_rejects_shared_policy_instance_across_shards(self):
        with pytest.raises(ServeError):
            ShardedChunkCache(1000, make_policy("benefit"), num_shards=2)

    def test_policy_instance_fine_for_single_shard(self):
        cache = ShardedChunkCache(1000, make_policy("benefit"), num_shards=1)
        assert cache.num_shards == 1

    def test_policy_factory_builds_one_instance_per_shard(self):
        built = []

        def factory():
            policy = make_policy("benefit")
            built.append(policy)
            return policy

        ShardedChunkCache(1000, factory, num_shards=3)
        assert len(built) == 3
        assert len({id(p) for p in built}) == 3

    def test_budget_split_sums_to_capacity(self):
        cache = ShardedChunkCache(10, num_shards=3)
        capacities = [
            shard["capacity_bytes"]
            for shard in cache.contention()["per_shard"]
        ]
        assert capacities == [4, 3, 3]
        assert sum(capacities) == cache.capacity_bytes

    def test_satisfies_chunk_store_protocol(self):
        assert isinstance(ShardedChunkCache(1000), ChunkStore)
        assert isinstance(ChunkCache(1000), ChunkStore)


class TestSingleShardBitIdentity:
    """num_shards=1 must behave exactly like a plain ChunkCache."""

    def test_randomized_op_trace_matches_plain_cache(self):
        chunk_size = make_chunk().size_bytes
        budget = chunk_size * 5 + 3  # forces evictions
        plain = ChunkCache(budget)
        sharded = ShardedChunkCache(budget, num_shards=1)
        rng = random.Random(1998)
        chunks = [
            make_chunk(number=n, benefit=rng.uniform(0.1, 2.0))
            for n in range(16)
        ]
        for step in range(400):
            chunk = rng.choice(chunks)
            op = rng.randrange(4)
            if op == 0:
                assert plain.put(chunk) == sharded.put(chunk)
            elif op == 1:
                a, b = plain.get(chunk.key), sharded.get(chunk.key)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a is b  # both caches hold the same object
            elif op == 2:
                assert plain.invalidate(chunk.key) == sharded.invalidate(
                    chunk.key
                )
            else:
                assert (chunk.key in plain) == (chunk.key in sharded)
            assert plain.used_bytes == sharded.used_bytes
            assert len(plain) == len(sharded)
            assert plain.keys() == sharded.keys()
        assert repr(plain.stats) == repr(sharded.stats)
        plain_snap = plain.snapshot()
        sharded_snap = sharded.snapshot()
        assert [k for k, _ in plain_snap] == [k for k, _ in sharded_snap]
        assert all(
            a is b
            for (_, a), (_, b) in zip(plain_snap, sharded_snap, strict=True)
        )

    def test_clear_matches(self):
        plain = ChunkCache(100_000)
        sharded = ShardedChunkCache(100_000, num_shards=1)
        for n in range(6):
            chunk = make_chunk(number=n)
            plain.put(chunk)
            sharded.put(chunk)
        plain.clear()
        sharded.clear()
        assert len(sharded) == 0
        assert sharded.used_bytes == 0
        assert repr(plain.stats) == repr(sharded.stats)


class TestMultiShard:
    def test_routing_is_stable_and_retrievable(self):
        cache = ShardedChunkCache(1_000_000, num_shards=8)
        chunks = [make_chunk(number=n) for n in range(32)]
        for chunk in chunks:
            assert cache.put(chunk)
        for chunk in chunks:
            assert cache.get(chunk.key) is chunk
            assert chunk.key in cache
        assert len(cache) == 32
        assert cache.used_bytes == sum(c.size_bytes for c in chunks)
        assert sorted(map(repr, cache.keys())) == sorted(
            repr(c.key) for c in chunks
        )

    def test_admission_control_is_per_shard(self):
        # Four shards of 1000 bytes each: an entry bigger than its
        # shard's slice is rejected even though the global budget would
        # fit it — exactly the unsharded admission rule, per shard.
        cache = ShardedChunkCache(4000, num_shards=4)
        big = make_chunk(number=99, rows=100)
        assert 1000 < big.size_bytes < cache.capacity_bytes
        assert not cache.put(big)
        assert cache.stats.rejected == 1
        assert big.key not in cache

    def test_used_bytes_tracks_across_shards_after_churn(self):
        chunk_size = make_chunk().size_bytes
        cache = ShardedChunkCache(chunk_size * 6, num_shards=3)
        rng = random.Random(7)
        for step in range(300):
            number = rng.randrange(20)
            if rng.random() < 0.7:
                cache.put(make_chunk(number=number))
            else:
                cache.invalidate(make_chunk(number=number).key)
        resident = sum(e.size_bytes for _, e in cache.snapshot())
        assert cache.used_bytes == resident
        cache.check_conservation()

    def test_stats_sum_over_shards(self):
        cache = ShardedChunkCache(1_000_000, num_shards=4)
        for n in range(10):
            cache.put(make_chunk(number=n))
        for n in range(10):
            assert cache.get(make_chunk(number=n).key) is not None
        cache.get(make_chunk(number=77).key)
        stats = cache.stats
        assert stats.insertions == 10
        assert stats.hits == 10
        assert stats.misses == 1
        assert stats.lookups == 11


class TestConservation:
    def test_check_passes_in_deep_mode(self):
        cache = ShardedChunkCache(100_000, num_shards=4)
        for n in range(12):
            cache.put(make_chunk(number=n))
        previous = invariants.set_mode(invariants.DEEP)
        try:
            cache.check_conservation()
        finally:
            invariants.set_mode(previous)

    def test_catches_global_counter_tampering(self):
        cache = ShardedChunkCache(100_000, num_shards=4)
        for n in range(8):
            cache.put(make_chunk(number=n))
        cache._used_bytes += 1
        with pytest.raises(InvariantViolation):
            cache.check_conservation()

    def test_catches_shard_overcharge_tampering(self):
        cache = ShardedChunkCache(100_000, num_shards=2)
        cache.put(make_chunk())
        shard = cache._shards[0]
        shard.cache._used_bytes = shard.cache.capacity_bytes + 1
        with pytest.raises(InvariantViolation):
            cache.check_conservation()


class TestContention:
    def test_counters_shape(self):
        cache = ShardedChunkCache(100_000, num_shards=4)
        for n in range(8):
            cache.put(make_chunk(number=n))
            cache.get(make_chunk(number=n).key)
        report = cache.contention()
        assert report["num_shards"] == 4
        assert report["lock_acquisitions"] > 0
        assert report["lock_wait_seconds"] >= 0.0
        assert report["hit_skew"] >= 1.0
        per_shard = report["per_shard"]
        assert len(per_shard) == 4
        assert {entry["shard"] for entry in per_shard} == {0, 1, 2, 3}
        for entry in per_shard:
            assert entry["lock_acquisitions"] >= 0
            assert entry["used_bytes"] <= entry["capacity_bytes"]

    def test_skew_zero_before_any_lookup(self):
        report = ShardedChunkCache(1000, num_shards=2).contention()
        assert repr(report["hit_skew"]) == "0.0"

    def test_shard_held_counts_acquisitions(self):
        shard = CacheShard(0, 1000, "benefit")
        with shard.held() as cache:
            assert isinstance(cache, ChunkCache)
        assert shard.lock_acquisitions == 1
        assert not shard.lock.locked()


class TestHitSkewPinning:
    """Pin ``hit_skew`` under a deliberately skewed key workload.

    Baseline for the shard-rebalancing work tracked in ROADMAP: the
    metric must be exactly busiest-shard lookups over the per-shard
    mean, so a rebalancer can be judged against a pinned number.
    """

    def _keys_by_shard(self, cache, count=64):
        by_shard: dict[int, list] = {}
        for n in range(count):
            key = make_chunk(number=n).key
            by_shard.setdefault(cache._shard_for(key).index, []).append(key)
        return by_shard

    def test_skewed_lookups_pin_the_exact_ratio(self):
        cache = ShardedChunkCache(100_000, num_shards=4)
        by_shard = self._keys_by_shard(cache)
        # CRC-32 routing spreads 64 keys over all four shards.
        assert set(by_shard) == {0, 1, 2, 3}
        # 9 lookups hammer one shard, 3 go to another: 12 lookups over
        # 4 shards -> mean 3, busiest 9 -> skew exactly 3.0.
        for _ in range(9):
            cache.get(by_shard[0][0])
        for _ in range(3):
            cache.get(by_shard[1][0])
        report = cache.contention()
        assert repr(report["hit_skew"]) == "3.0"

    def test_uniform_lookups_pin_skew_one(self):
        cache = ShardedChunkCache(100_000, num_shards=4)
        by_shard = self._keys_by_shard(cache)
        for keys in by_shard.values():
            for _ in range(5):
                cache.get(keys[0])
        assert repr(cache.contention()["hit_skew"]) == "1.0"

    def test_misses_count_as_lookups(self):
        # Skew tracks traffic, not hit rate: pure-miss traffic must
        # still register (9+3 misses -> same 3.0 ratio as above).
        cache = ShardedChunkCache(100_000, num_shards=4)
        by_shard = self._keys_by_shard(cache)
        hot, cold = by_shard[0][0], by_shard[1][0]
        assert cache.get(hot) is None
        for _ in range(8):
            cache.get(hot)
        for _ in range(3):
            cache.get(cold)
        per_shard = cache.contention()["per_shard"]
        traffic = sorted(
            entry["hits"] + entry["misses"] for entry in per_shard
        )
        assert traffic == [0, 0, 3, 9]
