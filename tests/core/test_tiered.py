"""Tests for repro.core.tiered — the two-tier chunk cache."""

import json
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import ChunkCache
from repro.core.chunk import CachedChunk, ChunkKey
from repro.core import tiered as tiered_module
from repro.core.tiered import (
    FAILURE_LIMIT,
    TieredChunkCache,
    chunk_token,
    decode_chunk,
    encode_chunk,
    token_key,
)
from repro.exceptions import (
    CacheError,
    ChunkLogError,
    DiskFault,
    InvariantViolation,
)
from repro.storage.chunklog import ChunkLog
from repro.storage.record import groupby_record_format

PAGE = 256


def make_chunk(number=0, rows=4, benefit=1.0, groupby=(1, 1), fill=0):
    data = np.zeros(rows, dtype=[("D0", "i4"), ("sum_v", "f8")])
    data["D0"] = fill
    data["sum_v"] = fill * 0.5
    key = ChunkKey(groupby, number, (("v", "sum"),))
    return CachedChunk(
        key=key, rows=data, benefit=benefit, compute_pages=float(rows)
    )


def wedged(page_id):
    raise DiskFault("wedged", page_id=page_id, transient=False)


def make_tiered(capacity=1_000, demote_min_benefit=0.0):
    l1 = ChunkCache(capacity)
    log = ChunkLog(page_size=PAGE)
    return TieredChunkCache(l1, log, demote_min_benefit=demote_min_benefit)


def l2_only_keys(tiered):
    """The keys live in the log and not resident in L1."""
    return [key for key in tiered.keys() if tiered._l1.peek(key) is None]


class TestTokenCodec:
    def test_token_roundtrip(self):
        key = ChunkKey((2, 1), 17, (("v", "sum"), ("v", "count")),
                       frozenset({"p=3", "q=1"}))
        assert token_key(chunk_token(key)) == key

    def test_equal_keys_equal_tokens(self):
        a = ChunkKey((1, 1), 0, (("v", "sum"),), frozenset({"x", "y"}))
        b = ChunkKey((1, 1), 0, (("v", "sum"),), frozenset({"y", "x"}))
        assert chunk_token(a) == chunk_token(b)

    @given(
        groupby=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        aggregates=st.lists(
            st.sampled_from(["sum", "count", "min", "max", "avg"]),
            min_size=1, max_size=5, unique=True,
        ),
        swapped=st.booleans(),
        strided=st.booleans(),
        fill=st.binary(min_size=0, max_size=400),
        benefit=st.floats(allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunk_roundtrip_is_exact(
        self, small_schema, groupby, aggregates, swapped, strided, fill,
        benefit,
    ):
        dtype = groupby_record_format(
            small_schema, groupby, [("v", agg) for agg in aggregates]
        ).dtype
        if swapped:
            dtype = dtype.newbyteorder(">")
        count = len(fill) // dtype.itemsize  # 0 rows included
        rows = np.frombuffer(fill[: count * dtype.itemsize], dtype=dtype)
        if strided:
            rows = np.repeat(rows, 2)[::2]  # same rows, not contiguous
        entry = CachedChunk(make_chunk().key, rows, benefit, 0.1)
        restored = decode_chunk(entry.key, encode_chunk(entry))
        assert restored.key == entry.key
        assert (restored.benefit, restored.compute_pages) == (benefit, 0.1)
        assert restored.rows.dtype == dtype
        assert restored.rows.tobytes() == rows.tobytes()
        assert not restored.rows.flags.writeable


def raw_payload(descriptor=b'"<f8"', count=2, descriptor_len=None):
    """A payload assembled by hand, field by field (docs/TIERING.md),
    around two all-zero ``<f8`` rows."""
    if descriptor_len is None:
        descriptor_len = len(descriptor)
    header = struct.pack(
        "<4sddIH", b"PK1\xff", 1.0, 1.0, count, descriptor_len
    )
    return header + descriptor + bytes(16)


#: What a build before the packed payload wrote: u32 meta length +
#: canonical-JSON meta (hex floats, dtype spec, shape) + row bytes.
OLD_LAYOUT_META = b'{"b":"0x1p+0","c":"0x1p+0","d":"<f8","s":[2]}'
OLD_LAYOUT = (
    struct.pack("<I", len(OLD_LAYOUT_META)) + OLD_LAYOUT_META + bytes(16)
)


class TestPayloadCodecEdges:
    def test_layout_is_pinned(self):
        # tag | benefit | compute_pages | row count | descriptor len |
        # descriptor | rows
        entry = make_chunk(rows=2, benefit=0.1 + 0.2, fill=3)
        assert encode_chunk(entry) == (
            b"PK1\xff" b"433333\xd3?" b"\x00\x00\x00\x00\x00\x00\x00@"
            b"\x02\x00\x00\x00" b"\x1e\x00"
            b'[["D0","<i4"],["sum_v","<f8"]]'
            b"\x03\x00\x00\x00" b"\x00\x00\x00\x00\x00\x00\xf8?"
            b"\x03\x00\x00\x00" b"\x00\x00\x00\x00\x00\x00\xf8?"
        )

    def test_plain_dtype_roundtrip(self):
        restored = decode_chunk(make_chunk().key, raw_payload())
        assert restored.rows.dtype == np.dtype("<f8")
        assert encode_chunk(restored) == raw_payload()

    def test_subarray_field_roundtrip(self):
        rows = np.zeros(3, dtype=[("v", "<f8", (2,)), ("n", "<i4")])
        rows["v"] = [[1, 2], [3, 4], [5, 6]]
        entry = CachedChunk(
            key=make_chunk().key, rows=rows, benefit=1.0, compute_pages=1.0
        )
        restored = decode_chunk(entry.key, encode_chunk(entry))
        assert restored.rows.dtype == rows.dtype
        assert restored.rows.tobytes() == rows.tobytes()

    def test_truncated_payload_rejected(self):
        with pytest.raises(ChunkLogError):
            decode_chunk(make_chunk().key, raw_payload()[:25])

    def test_descriptor_extending_past_the_record_rejected(self):
        with pytest.raises(ChunkLogError):
            decode_chunk(make_chunk().key, raw_payload(descriptor_len=100))

    def test_unparseable_descriptor_rejected(self):
        with pytest.raises(ChunkLogError):
            decode_chunk(make_chunk().key, raw_payload(b"not json at all"))

    def test_malformed_dtype_spec_rejected(self):
        with pytest.raises(ChunkLogError):
            decode_chunk(make_chunk().key, raw_payload(b"5"))

    def test_row_bytes_must_match_the_row_count(self):
        with pytest.raises(ChunkLogError):
            decode_chunk(make_chunk().key, raw_payload(count=3))

    def test_older_layout_is_rejected_not_reinterpreted(self):
        with pytest.raises(ChunkLogError):
            decode_chunk(make_chunk().key, OLD_LAYOUT)
        # ... and an older decoder, reading this build's tag as its
        # meta length, finds it past the end of any record.
        (as_meta_len,) = struct.unpack_from("<I", raw_payload())
        assert as_meta_len > 0xFFFFFFFF - 2**24


class TestJsonIsPaidOncePerKeyAndDtype:
    """Deterministic cost guard: which tier operations serialise JSON.

    A token's JSON is serialised once per chunk shape, when
    ``ChunkShape`` interns it, so keys cost none here; a dtype
    descriptor is serialised once per dtype."""

    def test_steady_state_cycle_makes_no_json_call(self, monkeypatch):
        calls = []
        counted = types.SimpleNamespace(
            dumps=lambda *a, **k: calls.append("dumps") or json.dumps(*a, **k),
            loads=lambda *a, **k: calls.append("loads") or json.loads(*a, **k),
        )
        monkeypatch.setattr(tiered_module, "json", counted)

        def spent():
            made = sorted(calls)
            calls.clear()
            return made

        tiered = make_tiered(capacity=make_chunk().size_bytes)
        first, second = make_chunk(number=0), make_chunk(number=1, fill=1)
        tiered.put(first)
        tiered.put(second)  # first spill of 0
        assert tiered.get(first.key) is not None  # first spill of 1
        spent()
        for key in (second.key, first.key, second.key):
            assert tiered.get(key) is not None  # promote, spill the other back
        assert spent() == []
        tiered.put(make_chunk(number=2, fill=2))
        assert tiered.get(first.key) is not None  # first spill of a new key:
        # its token is the shape's text around the number
        assert spent() == []
        odd = np.zeros(2, dtype=[("D0", "<i4"), ("only_in_this_test", "<f8")])
        tiered.put(CachedChunk(make_chunk(number=3).key, odd, 1.0))
        assert tiered.get(first.key) is not None  # new key *and* new dtype:
        # the descriptor, vetted by parsing it back
        assert spent() == ["dumps", "loads"]
        tiered_module._dtype_of.cache_clear()  # what a restart forgets
        for expected in (["loads", "loads"], []):  # two dtypes, seen once
            assert tiered.get(make_chunk(number=3).key).rows.dtype == odd.dtype
            assert tiered.get(first.key) is not None
            assert spent() == expected
        assert tiered.tiers()["l2"]["quarantined"] == 0


class TestSpillAndPromote:
    def test_eviction_spills_to_l2(self):
        tiered = make_tiered(capacity=2 * make_chunk().size_bytes)
        first, second, third = (
            make_chunk(number=n, fill=n) for n in range(3)
        )
        assert tiered.put(first)
        assert tiered.put(second)
        assert tiered.put(third)  # evicts one victim into the log
        assert tiered.tiers()["l2"]["spills"] == 1
        assert len(tiered.log) == 1
        assert len(tiered) == 3  # both tiers counted, no double count

    def test_l2_hit_promotes_back_to_l1(self):
        tiered = make_tiered(capacity=2 * make_chunk().size_bytes)
        chunks = [make_chunk(number=n, fill=n) for n in range(3)]
        for chunk in chunks:
            tiered.put(chunk)
        (victim_key,) = l2_only_keys(tiered)
        victim = next(c for c in chunks if c.key == victim_key)
        got = tiered.get(victim_key)
        assert got is not None
        assert got.rows.tobytes() == victim.rows.tobytes()
        assert tiered._l1.peek(victim_key) is not None  # resident again
        l2 = tiered.tiers()["l2"]
        assert l2["promotes"] == 1
        assert l2["hits"] == 1

    def test_promotion_counts_as_store_hit(self):
        tiered = make_tiered(capacity=2 * make_chunk().size_bytes)
        for n in range(3):
            tiered.put(make_chunk(number=n, fill=n))
        (victim_key,) = l2_only_keys(tiered)
        before = tiered.stats
        assert tiered.get(victim_key) is not None
        after = tiered.stats
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_true_miss_counts_as_miss(self):
        tiered = make_tiered()
        before = tiered.stats
        assert tiered.get(make_chunk(number=99).key) is None
        after = tiered.stats
        assert after.misses == before.misses + 1
        assert tiered.tiers()["l2"]["misses"] == 1

    def test_peek_never_promotes_or_charges(self):
        tiered = make_tiered(capacity=2 * make_chunk().size_bytes)
        for n in range(3):
            tiered.put(make_chunk(number=n, fill=n))
        (victim_key,) = l2_only_keys(tiered)
        reads_before = tiered.log.disk.stats.reads
        assert tiered.peek(victim_key) is not None
        assert tiered._l1.peek(victim_key) is None  # still L2-only
        assert tiered.log.disk.stats.reads == reads_before
        assert tiered.tiers()["l2"]["promotes"] == 0


class TestDemotionThreshold:
    @pytest.mark.parametrize("threshold", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("benefit", [0.5, 1.0, 4.9, 5.0])
    def test_matrix(self, threshold, benefit):
        tiered = make_tiered(
            capacity=make_chunk().size_bytes, demote_min_benefit=threshold
        )
        tiered.put(make_chunk(number=0, benefit=benefit))
        tiered.put(make_chunk(number=1, benefit=benefit))  # evicts 0
        l2 = tiered.tiers()["l2"]
        if benefit >= threshold:
            assert (l2["spills"], l2["spill_skipped"]) == (1, 0)
        else:
            assert (l2["spills"], l2["spill_skipped"]) == (0, 1)

    def test_negative_threshold_rejected(self):
        with pytest.raises(CacheError):
            make_tiered(demote_min_benefit=-1.0)


class TestCostAttribution:
    def test_spill_and_promote_pages_attributed_to_l2(self):
        tiered = make_tiered(capacity=2 * make_chunk(rows=64).size_bytes)
        for n in range(3):
            tiered.put(make_chunk(number=n, fill=n, rows=64))
        (victim_key,) = l2_only_keys(tiered)
        assert tiered.get(victim_key) is not None
        l2 = tiered.tiers()["l2"]
        stats = tiered.log.stats
        disk = tiered.log.disk.stats
        assert l2["pages_written"] == disk.writes == stats.append_pages
        assert l2["pages_read"] == disk.reads == stats.read_pages
        assert stats.append_pages >= 1  # the spill did real charged work
        assert stats.read_pages >= 1  # so did the promotion

    def test_exact_page_conservation(self):
        tiered = make_tiered(capacity=2 * make_chunk(rows=64).size_bytes)
        for n in range(6):
            tiered.put(make_chunk(number=n, fill=n, rows=64))
        for n in range(6):
            tiered.get(make_chunk(number=n).key)
        tiered.invalidate(make_chunk(number=0).key)
        tiered.clear()
        stats = tiered.log.stats
        disk = tiered.log.disk.stats
        assert disk.writes == (
            stats.append_pages + stats.tombstone_pages + stats.clear_pages
        )
        assert disk.reads == stats.read_pages + stats.scan_pages
        tiered.check_conservation()  # the invariant checker agrees

    def test_conservation_violation_raises(self):
        phantom_page, phantom_byte = make_tiered(), make_tiered()
        phantom_page.log.stats.append_pages += 1
        phantom_byte.log._live_bytes += 1
        for tiered in (phantom_page, phantom_byte):
            with pytest.raises(InvariantViolation):
                tiered.check_conservation()

    def test_a_record_put_into_the_log_is_live_to_the_tier(self):
        # The log's manifest is the tier's only table of L2: a record
        # put behind the tier's back is a member, and a get promotes it.
        tiered = make_tiered()
        entry = make_chunk(fill=4)
        tiered.log.put(chunk_token(entry.key), encode_chunk(entry), 1.0)
        assert entry.key in tiered
        assert len(tiered) == 1 and tiered.keys() == [entry.key]
        got = tiered.get(entry.key)
        assert got is not None and got.rows.tobytes() == entry.rows.tobytes()
        assert tiered._l1.peek(entry.key) is not None
        assert tiered.tiers()["l2"]["promotes"] == 1
        assert len(tiered) == 1  # resident in both tiers, counted once
        tiered.check_conservation()


class TestInvalidateAndClear:
    def test_invalidate_drops_both_tiers(self):
        tiered = make_tiered(capacity=make_chunk().size_bytes)
        tiered.put(make_chunk(number=0))
        tiered.put(make_chunk(number=1))  # 0 spills to L2
        key = make_chunk(number=0).key
        assert key in tiered
        assert tiered.invalidate(key) is True
        assert key not in tiered
        assert tiered.get(key) is None
        assert tiered.log.stats.tombstones == 1

    def test_clear_drops_both_tiers(self):
        tiered = make_tiered(capacity=make_chunk().size_bytes)
        tiered.put(make_chunk(number=0))
        tiered.put(make_chunk(number=1))
        tiered.clear()
        assert len(tiered) == 0
        assert len(tiered.log) == 0

    def test_faulted_tombstone_still_invalidates(self):
        tiered = make_tiered(capacity=make_chunk().size_bytes)
        tiered.put(make_chunk(number=0))
        tiered.put(make_chunk(number=1))  # 0 spilled
        key = make_chunk(number=0).key
        tiered.log.disk.write_hook = wedged
        assert tiered.invalidate(key) is True
        tiered.log.disk.write_hook = None
        # The tombstone never landed, but the key is dead to this
        # process either way.
        assert key not in tiered
        assert tiered.tiers()["l2"]["spill_faults"] == 1
        tiered.check_conservation()

    @pytest.mark.parametrize("drop", ["invalidate", "clear", "evict"])
    def test_a_faulted_tombstone_leaves_no_live_record(self, drop):
        size = len(encode_chunk(make_chunk()))
        tiered = TieredChunkCache(
            ChunkCache(make_chunk().size_bytes),
            ChunkLog(page_size=PAGE),
            l2_budget_bytes=3 * size,
        )
        for n in range(4):
            tiered.put(make_chunk(number=n, fill=n))  # 0, 1, 2 spilled
        assert len(tiered.log) == 3
        disk = tiered.log.disk

        def wedge_once(page_id):  # the tombstone / clear-all record
            disk.write_hook = None
            wedged(page_id)

        disk.write_hook = wedge_once
        if drop == "invalidate":
            tiered.invalidate(make_chunk(number=0).key)
        elif drop == "clear":
            tiered.clear()
        else:
            tiered.put(make_chunk(number=0, fill=0))  # spills 3: evicts 0
        assert disk.write_hook is None  # the fault fired
        l2 = tiered.tiers()["l2"]
        assert l2["spill_faults"] == 1
        # The dropped record is dead in the log, and the budget sees
        # exactly the bytes of what is left.
        left = {"invalidate": 2, "clear": 0, "evict": 3}[drop]
        assert len(tiered.log) == l2["entries"] == left
        assert chunk_token(make_chunk(number=0).key) not in tiered.log
        assert tiered.log.live_bytes == l2["entries"] * size
        tiered.check_conservation()

    def test_faulted_clear_still_clears_the_manifest(self):
        tiered = make_tiered(capacity=make_chunk().size_bytes)
        tiered.put(make_chunk(number=0))
        tiered.put(make_chunk(number=1))
        tiered.log.disk.write_hook = wedged
        tiered.clear()
        tiered.log.disk.write_hook = None
        assert len(tiered) == 0
        assert make_chunk(number=0).key not in tiered
        assert tiered.tiers()["l2"]["spill_faults"] == 1
        tiered.check_conservation()


class TestStoreSurfaces:
    def test_capacity_is_the_l1_budget(self):
        assert make_tiered(capacity=4_096).capacity_bytes == 4_096

    def test_membership_and_peek_prefer_l1(self):
        tiered = make_tiered()
        entry = make_chunk(fill=3)
        tiered.put(entry)
        assert entry.key in tiered
        resident = tiered.peek(entry.key)
        assert resident is not None
        assert resident.rows["D0"][0] == 3
        assert tiered.peek(make_chunk(number=9).key) is None

    def test_snapshot_spans_both_tiers(self):
        tiered = make_tiered(capacity=2 * make_chunk().size_bytes)
        for n in range(3):
            tiered.put(make_chunk(number=n, fill=n))
        pairs = tiered.snapshot()
        assert len(pairs) == 3  # two resident + one decoded from the log
        assert {key.number for key, _ in pairs} == {0, 1, 2}
        tiered.check_conservation()  # snapshot decodes are uncharged

    def test_stale_manifest_entry_is_a_miss(self):
        tiered = make_tiered(capacity=make_chunk().size_bytes)
        tiered.put(make_chunk(number=0))
        tiered.put(make_chunk(number=1))  # 0 spilled
        key = make_chunk(number=0).key
        # Delete behind the tier's back: the log's manifest is the
        # tier's table, so the key is gone from both at once.
        tiered.log.delete(chunk_token(key))
        assert tiered.get(key) is None
        assert key not in tiered
        tiered.check_conservation()

    def test_respill_credits_the_existing_record(self):
        size = len(encode_chunk(make_chunk()))
        tiered = TieredChunkCache(
            ChunkCache(make_chunk().size_bytes),
            ChunkLog(page_size=PAGE),
            l2_budget_bytes=2 * size,
        )
        first, second = make_chunk(number=0), make_chunk(number=1, fill=1)
        tiered.put(first)
        tiered.put(second)  # spill 0
        tiered.put(first)   # spill 1
        tiered.put(second)  # re-spill 0: replaced in place, no eviction
        l2 = tiered.tiers()["l2"]
        assert l2["spills"] == 3
        assert l2["evictions"] == 0
        assert l2["budget_skipped"] == 0
        tiered.check_conservation()

    def test_budget_evicts_lowest_benefit_first(self):
        size = len(encode_chunk(make_chunk(number=0, benefit=5.0)))
        tiered = TieredChunkCache(
            ChunkCache(make_chunk().size_bytes),
            ChunkLog(page_size=PAGE),
            l2_budget_bytes=2 * size,
        )
        chunks = [
            make_chunk(number=n, benefit=benefit, fill=n)
            for n, benefit in enumerate([5.0, 1.0, 3.0, 4.0])
        ]
        for chunk in chunks:  # 1-chunk L1: each put spills its elder
            tiered.put(chunk)
        # Spilled in order: benefits 5.0, 1.0, then 3.0 — which needs
        # room, so the lowest-benefit resident (1.0) is evicted.
        assert chunk_token(chunks[0].key) in tiered.log
        assert chunk_token(chunks[1].key) not in tiered.log
        assert chunk_token(chunks[2].key) in tiered.log
        assert tiered.tiers()["l2"]["evictions"] == 1
        assert tiered.log.live_bytes <= 2 * size
        tiered.check_conservation()

    def test_oversized_record_is_skipped_not_wedged(self):
        size = len(encode_chunk(make_chunk(number=0)))
        tiered = TieredChunkCache(
            ChunkCache(make_chunk().size_bytes),
            ChunkLog(page_size=PAGE),
            l2_budget_bytes=size - 1,
        )
        tiered.put(make_chunk(number=0, fill=0))
        tiered.put(make_chunk(number=1, fill=1))  # spill cannot ever fit
        l2 = tiered.tiers()["l2"]
        assert (l2["budget_skipped"], l2["evictions"]) == (1, 0)
        assert len(tiered.log) == 0
        tiered.check_conservation()

    def test_budget_eviction_survives_a_faulted_tombstone(self):
        size = len(encode_chunk(make_chunk()))
        tiered = TieredChunkCache(
            ChunkCache(make_chunk().size_bytes),
            ChunkLog(page_size=PAGE),
            l2_budget_bytes=size,
        )
        first, second = make_chunk(number=0), make_chunk(number=1, fill=1)
        tiered.put(first)
        tiered.put(second)  # spill 0, exactly filling the budget
        tiered.log.disk.write_hook = wedged
        tiered.put(first)  # spill 1: budget-evicts 0 (tombstone faults),
        tiered.log.disk.write_hook = None  # then its own append faults
        l2 = tiered.tiers()["l2"]
        assert l2["evictions"] == 1
        assert l2["spill_faults"] == 2
        tiered.check_conservation()

    def test_unparseable_token_is_quarantined_on_rebuild(self):
        log = ChunkLog(page_size=PAGE)
        log.put("not-json", b"payload", 1.0)
        tiered = TieredChunkCache(ChunkCache(1_000), log)
        assert tiered.tiers()["l2"]["quarantined"] == 1
        assert len(tiered) == 0
        assert "not-json" not in log

    def test_degraded_tier_hides_l2_keys(self):
        tiered = make_tiered(capacity=make_chunk().size_bytes)
        tiered.put(make_chunk(number=0))
        tiered.put(make_chunk(number=1))  # 0 spilled cleanly
        tiered.log.disk.write_hook = wedged
        for n in range(2, 2 + FAILURE_LIMIT):
            tiered.put(make_chunk(number=n))  # each spill faults
        tiered.log.disk.write_hook = None
        assert tiered.tiers()["l2"]["degraded"] is True
        # The spilled key survives in the log but is invisible now.
        assert len(tiered.keys()) == len(tiered._l1.keys())
        assert len(tiered) == 1


class TestDegrade:
    def test_torn_record_reads_as_absent(self):
        # A spill whose CRC fails is quarantined by an uncharged peek
        # exactly as by a charged get: absent, never an error.
        tiered = make_tiered(capacity=make_chunk().size_bytes)
        tiered.log.torn_hook = lambda token: True
        for n in range(3):
            tiered.put(make_chunk(number=n, fill=n))  # 0 and 1 torn
        tiered.log.torn_hook = None
        torn = [make_chunk(number=n).key for n in (0, 1)]
        assert tiered.peek(torn[0]) is None
        assert tiered.get(torn[1]) is None
        l2 = tiered.tiers()["l2"]
        assert (l2["quarantined"], l2["entries"], l2["hits"]) == (2, 0, 0)
        assert all(key not in tiered for key in torn)
        tiered.check_conservation()

    def test_snapshot_and_reopen_quarantine_a_torn_record(self):
        # The uncharged reads quarantine as the charged one does: a torn
        # record leaves the live set at its first read, is verified
        # once, and never makes len() and snapshot() disagree.
        tiered = make_tiered(capacity=make_chunk().size_bytes)
        torn = {chunk_token(make_chunk(number=n).key) for n in (0, 1)}
        tiered.log.torn_hook = torn.__contains__
        for n in range(5):
            tiered.put(make_chunk(number=n, fill=n))  # 0-3 spilled
        tiered.log.torn_hook = None
        assert len(tiered) == len(tiered.keys()) == 5
        assert len(tiered.snapshot()) == 3
        assert len(tiered) == len(tiered.keys()) == 3
        assert tiered.tiers()["l2"]["quarantined"] == 2
        assert tiered.log.stats.crc_failures == 2
        assert len(tiered.snapshot()) == 3
        tiered.reopen()
        assert tiered.log.stats.crc_failures == 2

        reopened = make_tiered(capacity=make_chunk().size_bytes)
        reopened.log.torn_hook = torn.__contains__
        for n in range(5):
            reopened.put(make_chunk(number=n, fill=n))
        reopened.log.torn_hook = None
        reopened.reopen()
        assert reopened.tiers()["l2"]["quarantined"] == 2
        assert len(reopened) == len(reopened.snapshot()) == 3
        reopened.check_conservation()

    def test_corrupt_payload_quarantines(self):
        # Garbage, and a healthy record of an older build's layout: both
        # are misses that are counted, never decoded.
        tiered = make_tiered()
        keys = [make_chunk(number=n).key for n in (5, 6)]
        for key, payload in zip(keys, (b"not-a-chunk-payload", OLD_LAYOUT)):
            tiered.log.put(chunk_token(key), payload, 1.0)
        assert tiered.get(keys[0]) is None
        assert tiered.peek(keys[1]) is None
        l2 = tiered.tiers()["l2"]
        assert (l2["quarantined"], l2["entries"], l2["hits"]) == (2, 0, 0)
        assert len(tiered.log) == 0  # dropped from the manifest

    def test_failure_streak_disables_l2(self):
        tiered = make_tiered(capacity=make_chunk().size_bytes)
        tiered.put(make_chunk(number=0))
        tiered.put(make_chunk(number=1))  # 0 spilled
        key = make_chunk(number=0).key

        def hook(page_id):
            raise DiskFault("dead", page_id=page_id, transient=False)

        tiered.log.disk.read_hook = hook
        for _strike in range(FAILURE_LIMIT - 1):
            assert tiered.get(key) is None
        assert tiered.tiers()["l2"]["degraded"] is False
        assert tiered.get(key) is None  # the last strike
        tiered.log.disk.read_hook = None
        l2 = tiered.tiers()["l2"]
        assert l2["degraded"] is True
        assert l2["promote_faults"] == FAILURE_LIMIT
        # Degraded tier is invisible: membership and lookups are L1-only.
        assert key not in tiered
        assert tiered.get(key) is None
        # L1 keeps serving.
        resident = make_chunk(number=1)
        assert tiered.get(resident.key) is not None

    def test_transient_fault_retries_once(self):
        tiered = make_tiered(capacity=make_chunk().size_bytes)
        tiered.put(make_chunk(number=0, fill=7))
        tiered.put(make_chunk(number=1))
        key = make_chunk(number=0).key
        calls = []

        def hook(page_id):
            calls.append(page_id)
            if len(calls) == 1:
                raise DiskFault("blip", page_id=page_id, transient=True)
            return 0.0

        tiered.log.disk.read_hook = hook
        got = tiered.get(key)
        tiered.log.disk.read_hook = None
        assert got is not None
        assert got.rows["D0"][0] == 7
        assert tiered.tiers()["l2"]["promote_faults"] == 0
        tiered.check_conservation()  # the aborted read's page reconciles


class TestReopen:
    def test_warm_start_loads_highest_benefit_first(self):
        size = make_chunk().size_bytes
        log = ChunkLog(page_size=PAGE)
        for n, benefit in enumerate([0.5, 3.0, 2.0, 1.0]):
            entry = make_chunk(number=n, benefit=benefit, fill=n)
            log.put(chunk_token(entry.key), encode_chunk(entry), benefit)
        fresh = TieredChunkCache(ChunkCache(2 * size), log)
        loaded = fresh.reopen()
        assert loaded == 2
        assert fresh.tiers()["l2"]["warm_loaded"] == 2
        # The two highest-benefit entries are resident, budget-bounded.
        assert fresh._l1.peek(make_chunk(number=1).key) is not None
        assert fresh._l1.peek(make_chunk(number=2).key) is not None
        assert fresh._l1.peek(make_chunk(number=0).key) is None
        # The rest stay reachable through promotion.
        assert fresh.get(make_chunk(number=3).key) is not None

    def test_warm_start_does_not_respill(self):
        size = make_chunk().size_bytes
        log = ChunkLog(page_size=PAGE)
        for n in range(4):
            entry = make_chunk(number=n, benefit=1.0 + n)
            log.put(chunk_token(entry.key), encode_chunk(entry), 1.0 + n)
        fresh = TieredChunkCache(ChunkCache(2 * size), log)
        writes_before = log.disk.stats.writes
        fresh.reopen()
        # Warm filling must not cascade eviction spills back into the log.
        assert log.disk.stats.writes == writes_before
        assert fresh.tiers()["l2"]["spills"] == 0


class TestL2BudgetValidation:
    def test_negative_budget_rejected(self):
        with pytest.raises(CacheError):
            TieredChunkCache(
                ChunkCache(1_000), ChunkLog(page_size=PAGE),
                l2_budget_bytes=-1,
            )

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5])
    def test_out_of_range_compact_threshold_rejected(self, threshold):
        with pytest.raises(CacheError):
            TieredChunkCache(
                ChunkCache(1_000), ChunkLog(page_size=PAGE),
                compact_threshold=threshold,
            )

    def test_unbounded_budget_never_evicts(self):
        size = make_chunk().size_bytes
        tiered = TieredChunkCache(ChunkCache(size), ChunkLog(page_size=PAGE))
        for n in range(6):
            tiered.put(make_chunk(number=n, fill=n))
        l2 = tiered.tiers()["l2"]
        assert l2["evictions"] == 0
        assert l2["budget_skipped"] == 0
        assert l2["budget_bytes"] is None
        assert len(tiered.log) == 5


class TestBudgetReopen:
    """Warm start under ``l2_budget_bytes``: the recovered live set is
    the strict benefit-ranked prefix that fits the budget."""

    @staticmethod
    def fill_log(entries):
        log = ChunkLog(page_size=PAGE)
        sizes = {}
        for number, rows, benefit in entries:
            entry = make_chunk(number=number, rows=rows, benefit=benefit)
            payload = encode_chunk(entry)
            log.put(chunk_token(entry.key), payload, benefit)
            sizes[number] = len(payload)
        return log, sizes

    def test_reopen_keeps_the_benefit_ranked_prefix(self):
        log, sizes = self.fill_log(
            [(0, 4, 3.0), (1, 4, 1.0), (2, 4, 2.0)]
        )
        tiered = TieredChunkCache(
            ChunkCache(1 << 20), log, l2_budget_bytes=2 * sizes[0]
        )
        tiered.reopen()
        assert chunk_token(make_chunk(number=0).key) in log
        assert chunk_token(make_chunk(number=2).key) in log
        assert chunk_token(make_chunk(number=1).key) not in log
        assert tiered.tiers()["l2"]["evictions"] == 1
        assert log.live_bytes <= 2 * sizes[0]
        tiered.check_conservation()

    def test_zero_budget_drops_everything(self):
        log, _sizes = self.fill_log([(0, 4, 3.0), (1, 4, 1.0)])
        tiered = TieredChunkCache(
            ChunkCache(1 << 20), log, l2_budget_bytes=0
        )
        loaded = tiered.reopen()
        assert loaded == 0
        assert len(log) == 0
        assert log.stats.tombstones == 2  # charged, durable drops
        tiered.check_conservation()

    def test_single_oversized_record_is_dropped_even_alone(self):
        log, sizes = self.fill_log([(0, 16, 5.0)])
        tiered = TieredChunkCache(
            ChunkCache(1 << 20), log, l2_budget_bytes=sizes[0] - 1
        )
        assert tiered.reopen() == 0
        assert len(log) == 0
        tiered.check_conservation()

    def test_ranking_stops_at_the_first_record_that_does_not_fit(self):
        # A (big, benefit 5) fits; B (big, benefit 4) does not; C
        # (small, benefit 3) *would* fit — but the prefix is strict, so
        # everything ranked below the first non-fit is dropped too.
        log, sizes = self.fill_log(
            [(0, 16, 5.0), (1, 16, 4.0), (2, 4, 3.0)]
        )
        assert sizes[2] < sizes[0]
        tiered = TieredChunkCache(
            ChunkCache(1 << 20), log, l2_budget_bytes=sizes[0] + sizes[2]
        )
        tiered.reopen()
        assert [token for token, _, _ in log.scan_keys()] == [
            chunk_token(make_chunk(number=0).key)
        ]
        assert tiered.tiers()["l2"]["evictions"] == 2
        tiered.check_conservation()


class TestCompactionTrigger:
    def test_crossing_the_dead_space_ratio_compacts(self):
        size = make_chunk().size_bytes
        tiered = TieredChunkCache(
            ChunkCache(size), ChunkLog(page_size=PAGE),
            compact_threshold=0.5,
        )
        tiered.put(make_chunk(number=0, fill=0))
        tiered.put(make_chunk(number=1, fill=1))  # spills #0
        tiered.invalidate(make_chunk(number=0).key)  # all L2 pages dead
        l2 = tiered.tiers()["l2"]
        assert l2["compactions"] == 1
        assert l2["dead_pages"] == 0
        assert l2["reclaimed_pages"] > 0
        tiered.check_conservation()

    def test_no_threshold_never_compacts(self):
        size = make_chunk().size_bytes
        tiered = TieredChunkCache(ChunkCache(size), ChunkLog(page_size=PAGE))
        tiered.put(make_chunk(number=0, fill=0))
        tiered.put(make_chunk(number=1, fill=1))
        tiered.invalidate(make_chunk(number=0).key)
        l2 = tiered.tiers()["l2"]
        assert l2["compactions"] == 0
        assert l2["dead_pages"] > 0

    def test_faulted_compaction_counts_but_does_not_degrade(self):
        size = make_chunk().size_bytes
        tiered = TieredChunkCache(
            ChunkCache(size), ChunkLog(page_size=PAGE),
            compact_threshold=0.5,
        )
        for n in range(3):
            tiered.put(make_chunk(number=n, fill=n))  # spills #0, #1
        tiered.log.compact_hook = lambda index: True
        tiered.invalidate(make_chunk(number=0).key)  # ratio hits 0.5
        tiered.log.compact_hook = None
        l2 = tiered.tiers()["l2"]
        assert l2["compact_faults"] == 1
        assert l2["compactions"] == 0
        assert l2["degraded"] is False
        assert l2["dead_pages"] > 0  # the abort left the log untouched
        tiered.check_conservation()

    def test_tiers_surface_the_space_gauges(self):
        tiered = make_tiered()
        l2 = tiered.tiers()["l2"]
        for gauge in (
            "live_pages", "dead_pages", "compactions", "reclaimed_pages",
            "compact_faults", "evictions", "budget_skipped", "budget_bytes",
        ):
            assert gauge in l2


class TestInfiniteL1Equivalence:
    """With an L1 that never evicts, the tier machinery is inert: a
    2-tier stack must be bit-identical to the plain cache."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "invalidate"]),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=1, max_value=16),
                st.floats(
                    min_value=0.01, max_value=10.0,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_two_tier_with_infinite_l1_matches_one_tier(self, ops):
        plain = ChunkCache(1 << 30)
        tiered = TieredChunkCache(ChunkCache(1 << 30), ChunkLog(page_size=PAGE))
        for op, number, rows, benefit in ops:
            if op == "put":
                entry = make_chunk(
                    number=number, rows=rows, benefit=benefit, fill=number
                )
                assert plain.put(entry) == tiered.put(
                    make_chunk(
                        number=number, rows=rows, benefit=benefit, fill=number
                    )
                )
            elif op == "get":
                key = make_chunk(number=number).key
                a, b = plain.get(key), tiered.get(key)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.rows.tobytes() == b.rows.tobytes()
                    assert a.benefit == b.benefit
            else:
                key = make_chunk(number=number).key
                assert plain.invalidate(key) == tiered.invalidate(key)
        assert plain.stats == tiered.stats
        assert sorted(map(chunk_token, plain.keys())) == sorted(
            map(chunk_token, tiered.keys())
        )
        assert tiered.tiers()["l2"]["spills"] == 0
        assert tiered.log.disk.stats.writes == 0


class TestOneTable:
    """The log's manifest is the tier's only table of L2: whatever the
    operations, faults included, the tier's counts, keys, snapshot and
    answers agree with it and with each other."""

    # Puts drive spills, so they come up most often.
    OPS = (
        "put", "put", "put", "torn_put", "torn_put", "get", "get", "peek",
        "invalidate", "wedged_invalidate", "clear", "wedged_clear",
        "reopen", "compact",
    )

    @given(
        ops=st.lists(
            st.tuples(  # (operation, key number, snapshot after it)
                st.sampled_from(OPS), st.integers(0, 3), st.booleans()
            ),
            max_size=60,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_every_view_agrees_with_the_log(self, ops):
        size = len(encode_chunk(make_chunk()))
        tiered = TieredChunkCache(
            ChunkCache(make_chunk().size_bytes),  # every new key spills
            ChunkLog(page_size=PAGE),
            l2_budget_bytes=3 * size,
            compact_threshold=0.5,
        )
        log = tiered.log
        last_put = {}  # number -> row bytes of the key's last put
        for step, (op, number, snapshot) in enumerate(ops):
            key = make_chunk(number=number).key
            torn, op = op.startswith("torn_"), op.removeprefix("torn_")
            log.torn_hook = (lambda token: True) if torn else None
            wedge, op = op.startswith("wedged_"), op.removeprefix("wedged_")
            log.disk.write_hook = wedged if wedge else None
            if op == "put":
                entry = make_chunk(number=number, fill=step)
                assert tiered.put(entry)
                last_put[number] = entry.rows.tobytes()
            elif op in ("get", "peek"):
                got = getattr(tiered, op)(key)
                if got is not None:
                    assert got.rows.tobytes() == last_put.get(number)
            elif op == "invalidate":
                tiered.invalidate(key)
                last_put.pop(number, None)
            elif op == "clear":
                tiered.clear()
                last_put.clear()
            elif op == "reopen":
                tiered.reopen()
            else:
                log.compact()
            log.torn_hook = log.disk.write_hook = None
            assert len(tiered) == len(set(tiered.keys()))
            assert tiered.tiers()["l2"]["entries"] == len(log)
            log.check_conservation()
            tiered.check_conservation()
            if snapshot:
                assert len(tiered.snapshot()) == len(tiered)
