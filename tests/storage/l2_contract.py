"""The executable half of the L2 backend contract.

:class:`~repro.storage.l2.L2Backend` states the protocol; this module
makes it enforceable.  :class:`L2ContractBattery` is a conformance
battery every L2 backend must pass — round-trip semantics, canonical
page accounting, torn-write quarantine, restart recovery, fault
retry/degrade behind the tiered cache, and budget eviction order.  It
is deliberately *not* collected directly: a test module subclasses it,
provides :meth:`L2ContractBattery.make_backend`, and pytest runs the
whole battery against that implementation
(``tests/storage/test_l2_conformance.py`` does so for the in-tree
:class:`~repro.storage.chunklog.ChunkLog`; ``docs/TIERING.md``
§Backends explains how another backend would earn a seat).

Every assertion here goes through the protocol only; page charges are
checked against :func:`~repro.storage.l2.record_length`, the statement
of the framing that is independent of the store.
"""

from __future__ import annotations

import pytest

from repro.core.cache import ChunkCache
from repro.core.tiered import TieredChunkCache, chunk_token, encode_chunk
from repro.exceptions import ChunkLogCorruption, ChunkLogError, DiskFault
from repro.storage.l2 import L2Backend, check_l2_conservation, record_length

from tests.core.test_tiered import make_chunk

PAGE = 256


def ceil_pages(length: int) -> int:
    return max(1, -(-length // PAGE))


def always_fault(page_id: int) -> float:
    raise DiskFault("injected", page_id=page_id, transient=True)


class L2ContractBattery:
    """Subclass me with ``make_backend`` to conformance-test a backend."""

    def make_backend(self, path: str | None = None) -> L2Backend:
        raise NotImplementedError("conformance subclasses build the backend")

    # ------------------------------------------------------------------
    # Protocol shape

    def test_satisfies_the_structural_protocol(self):
        backend = self.make_backend()
        assert isinstance(backend, L2Backend)

    def test_fresh_backend_is_empty_with_clean_recovery(self):
        backend = self.make_backend()
        assert len(backend) == 0
        assert backend.recovery.live_entries == 0
        assert backend.recovery.header_reset is False
        assert backend.disk.page_size == PAGE

    # ------------------------------------------------------------------
    # Round-trip semantics

    def test_put_get_roundtrip(self):
        backend = self.make_backend()
        pages = backend.put("a", b"payload-a", 3.5)
        assert pages == ceil_pages(record_length("a", b"payload-a"))
        assert backend.get("a") == b"payload-a"
        assert backend.benefit("a") == 3.5
        assert backend.pages_for("a") == pages
        assert "a" in backend
        assert len(backend) == 1

    def test_last_write_wins(self):
        backend = self.make_backend()
        backend.put("a", b"old", 1.0)
        backend.put("a", b"new", 2.0)
        assert backend.get("a") == b"new"
        assert backend.benefit("a") == 2.0
        assert len(backend) == 1

    def test_missing_token_raises(self):
        backend = self.make_backend()
        with pytest.raises(ChunkLogError):
            backend.get("ghost")
        with pytest.raises(ChunkLogError):
            backend.benefit("ghost")
        with pytest.raises(ChunkLogError):
            backend.pages_for("ghost")

    def test_empty_and_oversized_tokens_rejected(self):
        backend = self.make_backend()
        with pytest.raises(ChunkLogError):
            backend.put("", b"x", 1.0)
        with pytest.raises(ChunkLogError):
            backend.put("t" * 70_000, b"x", 1.0)

    def test_delete_is_durable_and_reports_liveness(self):
        backend = self.make_backend()
        backend.put("a", b"x", 1.0)
        assert backend.delete("a") is True
        assert backend.delete("a") is False
        assert "a" not in backend
        assert backend.stats.tombstones == 1

    def test_drop_is_memory_only(self):
        backend = self.make_backend()
        backend.put("a", b"x", 1.0)
        writes_before = backend.disk.stats.writes
        assert backend.drop("a") is True
        assert backend.drop("a") is False
        assert "a" not in backend
        assert backend.disk.stats.writes == writes_before

    def test_clear_drops_everything(self):
        backend = self.make_backend()
        backend.put("a", b"x", 1.0)
        backend.put("b", b"y", 2.0)
        assert backend.clear() == 2
        assert len(backend) == 0
        assert backend.stats.clears == 1

    def test_scan_keys_in_reinsertion_order(self):
        backend = self.make_backend()
        backend.put("b", b"1", 1.0)
        backend.put("a", b"22", 2.0)
        backend.put("b", b"333", 3.0)  # re-insert moves b last
        assert backend.tokens() == ("a", "b")
        assert backend.scan_keys() == (("a", 2.0, 2), ("b", 3.0, 3))
        assert backend.live_bytes == 5

    def test_peek_is_uncharged(self):
        backend = self.make_backend()
        backend.put("a", b"payload", 1.0)
        reads_before = backend.disk.stats.reads
        assert backend.peek("a") == b"payload"
        assert backend.disk.stats.reads == reads_before
        assert backend.stats.reads == 0

    def test_a_held_payload_outlives_later_writes(self):
        backend = self.make_backend()
        backend.put("a", b"payload", 1.0)
        held = [backend.get("a"), backend.peek("a")]
        backend.put("a", b"superseded", 1.0)  # a pinned buffer would raise
        backend.clear()
        for payload in held:
            assert bytes(payload) == b"payload"
            assert isinstance(payload, bytes) or payload.readonly

    def test_peek_missing_token_raises(self):
        backend = self.make_backend()
        with pytest.raises(ChunkLogError):
            backend.peek("ghost")

    def test_space_gauges_sum_over_the_live_set(self):
        backend = self.make_backend()
        backend.put("a", b"x" * PAGE, 1.0)
        backend.put("b", b"y", 2.0)
        assert backend.live_pages == sum(
            backend.pages_for(token) for token in backend.tokens()
        )

    def test_close_is_idempotent_and_blocks_operations(self):
        backend = self.make_backend()
        backend.put("a", b"x", 1.0)
        backend.close()
        backend.close()
        with pytest.raises(ChunkLogError):
            backend.put("b", b"y", 1.0)
        with pytest.raises(ChunkLogError):
            backend.get("a")

    def test_reopen_revives_a_closed_backend(self):
        backend = self.make_backend()
        backend.put("a", b"x", 1.0)
        backend.close()
        recovery = backend.reopen()
        assert recovery.live_entries == 1
        assert backend.get("a") == b"x"
        backend.put("b", b"y", 2.0)
        assert len(backend) == 2

    # ------------------------------------------------------------------
    # Accounting: the canonical charging currency and conservation

    def test_pages_charged_match_the_canonical_framing(self):
        # A backend charges ceil(record_length / page_size) pages
        # regardless of its physical layout — record_length states the
        # framing independently of the store.
        backend = self.make_backend()
        shapes = [("t", b""), ("tok", b"x" * 40),
                  ("long-token", b"y" * PAGE), ("z", b"z" * (3 * PAGE + 1))]
        for token, payload in shapes:
            pages = backend.put(token, payload, 1.0)
            assert pages == ceil_pages(record_length(token, payload)), (
                token, len(payload)
            )

    def test_conservation_across_mixed_operations(self):
        backend = self.make_backend()
        backend.put("a", b"x" * (3 * PAGE), 1.0)
        backend.put("b", b"y", 2.0)
        backend.get("a")
        backend.delete("b")
        backend.put("a", b"x" * 2, 3.0)
        backend.clear()
        check_l2_conservation(backend)

    def test_faulted_put_charges_partial_pages_only(self):
        backend = self.make_backend()
        backend.put("warm", b"w", 1.0)
        fail_on = {backend.disk.num_pages + 1}  # 2nd page of next record

        def hook(page_id: int) -> float:
            if page_id in fail_on:
                raise DiskFault("boom", page_id=page_id, transient=True)
            return 0.0

        backend.write_hook = hook
        with pytest.raises(DiskFault):
            backend.put("a", b"x" * (3 * PAGE), 2.0)
        backend.write_hook = None
        # The aborted put left the store unchanged...
        assert "a" not in backend
        # ...but pages charged before the fault stay charged, and the
        # logical counters still reconcile with the disk exactly.
        check_l2_conservation(backend)
        assert backend.stats.appends == 1  # only the pre-fault record
        # The store is fully usable afterwards.
        backend.put("a", b"x" * (3 * PAGE), 2.0)
        assert backend.get("a") == b"x" * (3 * PAGE)
        check_l2_conservation(backend)

    def test_faulted_get_conserves_and_record_survives(self):
        backend = self.make_backend()
        backend.put("a", b"x" * (2 * PAGE), 1.0)
        backend.read_hook = always_fault
        with pytest.raises(DiskFault):
            backend.get("a")
        backend.read_hook = None
        check_l2_conservation(backend)
        assert backend.get("a") == b"x" * (2 * PAGE)

    # ------------------------------------------------------------------
    # Torn-write quarantine

    def test_torn_put_is_detected_at_read(self):
        backend = self.make_backend()
        backend.torn_hook = lambda token: token == "torn"
        backend.put("clean", b"ok", 1.0)
        backend.put("torn", b"doomed", 2.0)
        backend.torn_hook = None
        assert backend.stats.torn_writes == 1
        assert backend.get("clean") == b"ok"
        with pytest.raises(ChunkLogCorruption):
            backend.get("torn")
        assert backend.stats.crc_failures == 1
        check_l2_conservation(backend)

    def test_torn_record_survives_restart_until_read(self, tmp_path):
        path = str(tmp_path / "l2.store")
        backend = self.make_backend(path)
        backend.torn_hook = lambda token: True
        backend.put("torn", b"doomed", 2.0)
        backend.torn_hook = None
        backend.close()
        reopened = self.make_backend(path)
        # Well-formed framing: the restart scan keeps the record; the
        # CRC catches the corruption at first access — quarantine, not
        # a wrong answer, and never scan-time rejection.
        assert "torn" in reopened
        with pytest.raises(ChunkLogCorruption):
            reopened.get("torn")

    # ------------------------------------------------------------------
    # Restart recovery

    def test_restart_rebuilds_the_live_set(self, tmp_path):
        path = str(tmp_path / "l2.store")
        backend = self.make_backend(path)
        backend.put("a", b"x" * 10, 1.5)
        backend.put("b", b"y" * 20, 2.5)
        backend.delete("a")
        backend.close()
        reopened = self.make_backend(path)
        assert reopened.recovery.live_entries == 1
        assert reopened.tokens() == ("b",)
        assert reopened.get("b") == b"y" * 20
        assert reopened.benefit("b") == 2.5
        # The restart scan was charged: one read per record page.
        assert reopened.stats.scan_pages >= 1
        check_l2_conservation(reopened)

    def test_inplace_reopen_preserves_records(self):
        # In-memory stores must survive reopen() too: their live state
        # doubles as the durable bytes.
        backend = self.make_backend()
        backend.put("a", b"x" * 10, 1.5)
        backend.put("b", b"y", 2.5)
        backend.delete("b")
        scans_before = backend.stats.scan_pages
        recovery = backend.reopen()
        assert recovery.live_entries == 1
        assert backend.get("a") == b"x" * 10
        assert backend.stats.scan_pages > scans_before
        check_l2_conservation(backend)

    def test_clear_survives_restart(self, tmp_path):
        path = str(tmp_path / "l2.store")
        backend = self.make_backend(path)
        backend.put("a", b"x", 1.0)
        backend.clear()
        backend.put("b", b"y", 2.0)
        backend.close()
        reopened = self.make_backend(path)
        assert reopened.tokens() == ("b",)

    def test_unreadable_durable_state_resets_to_empty(self, tmp_path):
        path = str(tmp_path / "l2.store")
        with open(path, "wb") as handle:
            handle.write(b"NOPE" + b"\x00" * 40)
        backend = self.make_backend(path)
        assert backend.recovery.header_reset is True
        assert len(backend) == 0
        # The reset store is immediately usable and durable again.
        backend.put("a", b"x", 1.0)
        backend.close()
        assert self.make_backend(path).tokens() == ("a",)

    # ------------------------------------------------------------------
    # Compaction

    def test_compact_on_empty_store_is_a_noop(self):
        backend = self.make_backend()
        assert backend.compact() == 0
        assert backend.counters()["dead_pages"] == 0

    def test_compact_leaves_no_dead_space_and_keeps_every_payload(self):
        backend = self.make_backend()
        backend.put("a", b"x" * (2 * PAGE), 1.0)
        backend.put("b", b"y" * 8, 2.0)
        backend.put("a", b"z" * 4, 3.0)  # supersede
        backend.delete("b")
        counters = backend.counters()
        assert counters["dead_pages"] > 0
        reclaimed = backend.compact()
        assert reclaimed == counters["dead_pages"]
        assert backend.stats.compactions == 1
        assert backend.stats.reclaimed_pages == reclaimed
        after = backend.counters()
        assert after["dead_pages"] == 0
        assert backend.tokens() == ("a",)
        assert backend.get("a") == b"z" * 4
        assert backend.benefit("a") == 3.0
        check_l2_conservation(backend)

    def test_compacted_state_is_durable(self, tmp_path):
        path = str(tmp_path / "l2.store")
        backend = self.make_backend(path)
        backend.put("a", b"x" * PAGE, 1.0)
        backend.put("a", b"y" * 8, 2.0)
        backend.put("b", b"z" * 8, 3.0)
        backend.compact()
        backend.close()
        reopened = self.make_backend(path)
        assert reopened.tokens() == ("a", "b")
        assert reopened.get("a") == b"y" * 8
        assert reopened.get("b") == b"z" * 8
        assert reopened.counters()["dead_pages"] == 0

    # ------------------------------------------------------------------
    # Fault retry/degrade behind the tiered cache

    def _tiered_over(self, backend, capacity_chunks=1, **kwargs):
        capacity = capacity_chunks * make_chunk().size_bytes
        return TieredChunkCache(ChunkCache(capacity), backend, **kwargs)

    def test_spill_write_fault_drops_the_copy_not_the_truth(self):
        backend = self.make_backend()
        tiered = self._tiered_over(backend)
        backend.write_hook = always_fault
        tiered.put(make_chunk(number=0, fill=0))
        tiered.put(make_chunk(number=1, fill=1))  # evicts #0; spill faults
        backend.write_hook = None
        l2 = tiered.tiers()["l2"]
        assert (l2["spills"], l2["spill_faults"]) == (0, 1)
        assert len(backend) == 0
        assert tiered.get(make_chunk(number=1).key) is not None
        tiered.check_conservation()

    def test_repeated_spill_faults_degrade_the_tier(self):
        backend = self.make_backend()
        tiered = self._tiered_over(backend, failure_limit=2)
        backend.write_hook = always_fault
        for n in range(4):
            tiered.put(make_chunk(number=n, fill=n))
        backend.write_hook = None
        l2 = tiered.tiers()["l2"]
        assert l2["degraded"] is True
        assert l2["spill_faults"] == 2  # strikes stop once disabled
        tiered.check_conservation()

    def test_promote_read_fault_is_a_miss_not_a_loss(self):
        backend = self.make_backend()
        tiered = self._tiered_over(backend)
        tiered.put(make_chunk(number=0, fill=0))
        tiered.put(make_chunk(number=1, fill=1))  # #0 spilled to L2
        key = make_chunk(number=0).key
        backend.read_hook = always_fault
        assert tiered.get(key) is None
        backend.read_hook = None
        l2 = tiered.tiers()["l2"]
        assert l2["promote_faults"] == 1
        assert l2["degraded"] is False
        # The record survived the faulted promotion.
        got = tiered.get(key)
        assert got is not None and got.rows["D0"][0] == 0
        tiered.check_conservation()

    # ------------------------------------------------------------------
    # Budget eviction order

    def test_budget_evicts_lowest_benefit_first(self):
        backend = self.make_backend()
        size = len(encode_chunk(make_chunk(number=0, benefit=5.0)))
        tiered = self._tiered_over(backend, l2_budget_bytes=2 * size)
        chunks = [
            make_chunk(number=0, benefit=5.0, fill=0),
            make_chunk(number=1, benefit=1.0, fill=1),
            make_chunk(number=2, benefit=3.0, fill=2),
            make_chunk(number=3, benefit=4.0, fill=3),
        ]
        for chunk in chunks:  # 1-chunk L1: each put spills its elder
            tiered.put(chunk)
        # Spilled in order: benefits 5.0, 1.0, then 3.0 — which needs
        # room, so the lowest-benefit resident (1.0) is evicted.
        assert chunk_token(chunks[0].key) in backend
        assert chunk_token(chunks[1].key) not in backend
        assert chunk_token(chunks[2].key) in backend
        l2 = tiered.tiers()["l2"]
        assert l2["evictions"] == 1
        assert backend.live_bytes <= 2 * size
        tiered.check_conservation()

    def test_oversized_record_is_skipped_not_wedged(self):
        backend = self.make_backend()
        size = len(encode_chunk(make_chunk(number=0)))
        tiered = self._tiered_over(backend, l2_budget_bytes=size - 1)
        tiered.put(make_chunk(number=0, fill=0))
        tiered.put(make_chunk(number=1, fill=1))  # spill cannot ever fit
        l2 = tiered.tiers()["l2"]
        assert l2["budget_skipped"] == 1
        assert l2["evictions"] == 0
        assert len(backend) == 0
        tiered.check_conservation()
