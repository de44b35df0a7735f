"""Compaction crash-safety: every write boundary is a safe kill point.

The contract under test (``ChunkLog.compact``): live records are
rewritten into a sidecar and atomically swapped in; until the swap the
old file is the truth, and a fault at *any* point — any record index,
any sidecar page, any append page — leaves a state from which reopen
recovers the exact pre-crash live set, with page conservation intact.

The op sequences are Hypothesis-generated; the kill points are then
enumerated *exhaustively* for each sequence (every compact record
index, every compact write page, every append page), because "crash-safe
at every write boundary" is a universal claim, not a sampled one.
"""

import os
import tempfile
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ChunkLogCorruption, DiskFault
from repro.storage.chunklog import COMPACT_SUFFIX, ChunkLog

PAGE = 256

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=0, max_value=3 * PAGE),
    ),
    min_size=1,
    max_size=12,
)


def apply_ops(log, ops):
    for kind, token, size in ops:
        if kind == "put":
            log.put(token, bytes([ord(token)]) * size, float(size))
        else:
            log.delete(token)


def live_set(log):
    return {token: log.peek(token) for token, _, _ in log.scan_keys()}


def fault_on_nth_write(n):
    """A write hook that faults on its ``n``-th page, then passes."""
    state = {"count": 0}

    def hook(page_id):
        index = state["count"]
        state["count"] += 1
        if index == n:
            raise DiskFault("boom", page_id=page_id, transient=True)
        return 0.0

    return hook


class TestCompactionCrashPoints:
    @settings(max_examples=25, deadline=None)
    @given(ops=ops_strategy)
    def test_abort_at_every_record_index_recovers_the_live_set(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.bin")
            with closing(ChunkLog(path, page_size=PAGE)) as log:
                apply_ops(log, ops)
                expected = live_set(log)
                # Kill the compaction at record 0, then 1, ... until it
                # finally runs to completion: every abort must leave the
                # log byte-identical and reconciled.
                index = 0
                while True:
                    log.compact_hook = lambda i, k=index: i == k
                    try:
                        reclaimed = log.compact()
                    except DiskFault:
                        log.compact_hook = None
                        assert not os.path.exists(path + COMPACT_SUFFIX)
                        assert live_set(log) == expected
                        log.check_conservation()
                        # The durable state is untouched too: a restart
                        # recovers the same live set.
                        log.reopen()
                        assert live_set(log) == expected
                        log.check_conservation()
                        index += 1
                        continue
                    break
                log.compact_hook = None
                assert log.counters()["dead_pages"] == 0
                if reclaimed > 0:
                    assert log.stats.compactions == 1
                assert live_set(log) == expected
                log.check_conservation()
                # The compacted file is itself a valid, complete log.
                log.reopen()
                assert live_set(log) == expected
                log.check_conservation()

    @settings(max_examples=25, deadline=None)
    @given(ops=ops_strategy)
    def test_fault_at_every_compact_write_page_recovers(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.bin")
            with closing(ChunkLog(path, page_size=PAGE)) as log:
                apply_ops(log, ops)
                expected = live_set(log)
                page = 0
                while True:
                    log.write_hook = fault_on_nth_write(page)
                    try:
                        log.compact()
                    except DiskFault:
                        log.write_hook = None
                        assert not os.path.exists(path + COMPACT_SUFFIX)
                        assert live_set(log) == expected
                        log.check_conservation()
                        log.reopen()
                        assert live_set(log) == expected
                        page += 1
                        continue
                    break
                log.write_hook = None
                assert log.counters()["dead_pages"] == 0
                assert live_set(log) == expected
                log.check_conservation()

    @settings(max_examples=25, deadline=None)
    @given(
        ops=ops_strategy,
        pages=st.integers(min_value=2, max_value=4),
    )
    def test_fault_at_every_append_page_recovers(self, ops, pages):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.bin")
            with closing(ChunkLog(path, page_size=PAGE)) as log:
                apply_ops(log, ops)
                expected = live_set(log)
                payload = b"\xab" * (pages * PAGE - 64)
                for page in range(pages):
                    log.write_hook = fault_on_nth_write(page)
                    with pytest.raises(DiskFault):
                        log.put("victim", payload, 9.0)
                    log.write_hook = None
                    assert "victim" not in log
                    assert live_set(log) == expected
                    log.check_conservation()
                    # A crash here recovers the pre-put live set exactly.
                    log.reopen()
                    assert live_set(log) == expected
                    log.check_conservation()
                # With the fault gone the same put lands cleanly.
                log.put("victim", payload, 9.0)
                assert log.peek("victim") == payload
                log.check_conservation()


class TestCompactionCrashArtifacts:
    def test_stale_partial_sidecar_is_discarded_on_open(self, tmp_path):
        # Simulate a process killed mid-compaction, after the sidecar
        # was partially written but before the atomic swap: the next
        # open must ignore and remove the sidecar, never replay it.
        path = str(tmp_path / "log.bin")
        log = ChunkLog(path, page_size=PAGE)
        log.put("a", b"x" * 10, 1.0)
        log.put("b", b"y" * 10, 2.0)
        log.close()
        with open(path + COMPACT_SUFFIX, "wb") as handle:
            handle.write(b"RCLG\x01\x00")  # torn mid-header
        with closing(ChunkLog(path, page_size=PAGE)) as reopened:
            assert not os.path.exists(path + COMPACT_SUFFIX)
            assert live_set(reopened) == {"a": b"x" * 10, "b": b"y" * 10}

    def test_torn_record_stays_torn_through_compaction(self, tmp_path):
        # Compaction copies records verbatim: a torn-but-framed record
        # keeps its bad CRC, so the quarantine policy survives both the
        # rewrite and a restart of the rewritten log.
        path = str(tmp_path / "log.bin")
        log = ChunkLog(path, page_size=PAGE)
        log.torn_hook = lambda token: token == "torn"
        log.put("torn", b"doomed", 1.0)
        log.torn_hook = None
        log.put("stale", b"old", 1.0)
        log.put("stale", b"new", 2.0)  # dead space so compact runs
        assert log.compact() > 0
        with pytest.raises(ChunkLogCorruption):
            log.get("torn")
        log.close()
        with closing(ChunkLog(path, page_size=PAGE)) as reopened:
            assert "torn" in reopened
            with pytest.raises(ChunkLogCorruption):
                reopened.get("torn")
            assert reopened.peek("stale") == b"new"

    def test_in_memory_log_compacts_without_a_sidecar(self):
        log = ChunkLog(page_size=PAGE)
        log.put("a", b"x" * PAGE, 1.0)
        log.put("a", b"y" * 4, 2.0)
        assert log.compact() > 0
        assert log.counters()["dead_pages"] == 0
        assert log.peek("a") == b"y" * 4
        log.reopen()
        assert log.peek("a") == b"y" * 4
        log.check_conservation()
