"""Tests for repro.storage.chunklog — the persistent L2 tier."""

import builtins
import dataclasses
import gc
import os
import struct
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ChunkLogCorruption, ChunkLogError, DiskFault
from repro.storage import chunklog
from repro.storage.chunklog import (
    CHUNKLOG_MAGIC,
    CHUNKLOG_VERSION,
    ChunkLog,
    L2Recovery,
)
from repro.storage.disk import DEFAULT_PAGE_SIZE

PAGE = 256


@pytest.fixture()
def make_log():
    """``make_log(path=None)`` opens a log that is closed (file handle
    released) when the test ends, however the test left it."""
    opened = []

    def open_log(path=None):
        opened.append(ChunkLog(path, page_size=PAGE))
        return opened[-1]

    yield open_log
    for log in opened:
        log.close()


def tokens(log):
    """Live tokens in (re-)insertion order."""
    return [token for token, _benefit, _size in log.scan_keys()]


def space(log):
    """``(live_pages, dead_pages)`` of a log."""
    counters = log.counters()
    return counters["live_pages"], counters["dead_pages"]


class TestChunkLogBasics:
    def test_append_read_roundtrip(self, make_log):
        log = make_log()
        pages = log.put("a", b"payload-a", 3.5)
        assert pages >= 1
        assert log.get("a") == b"payload-a"
        assert log.scan_keys() == (("a", 3.5, 9),)
        assert "a" in log
        assert len(log) == 1

    def test_last_write_wins(self, make_log):
        log = make_log()
        log.put("a", b"old", 1.0)
        log.put("a", b"new", 2.0)
        assert log.get("a") == b"new"
        assert log.scan_keys() == (("a", 2.0, 3),)

    def test_empty_token_rejected(self, make_log):
        log = make_log()
        with pytest.raises(ChunkLogError):
            log.put("", b"x", 1.0)

    def test_missing_token_raises(self, make_log):
        log = make_log()
        with pytest.raises(ChunkLogError):
            log.get("ghost")
        with pytest.raises(ChunkLogError):
            log.peek("ghost")

    def test_delete_tombstones(self, make_log):
        log = make_log()
        log.put("a", b"x", 1.0)
        assert log.delete("a") is True
        assert log.delete("a") is False
        assert "a" not in log
        assert log.stats.tombstones == 1

    def test_clear_drops_everything(self, make_log):
        log = make_log()
        log.put("a", b"x", 1.0)
        log.put("b", b"y", 2.0)
        assert log.clear() == 2
        assert len(log) == 0
        assert log.stats.clears == 1

    def test_drop_is_memory_only(self, make_log):
        log = make_log()
        log.put("a", b"x", 1.0)
        writes_before = log.disk.stats.writes
        assert log.drop("a") is True
        assert log.drop("a") is False
        assert "a" not in log
        assert log.disk.stats.writes == writes_before

    @pytest.mark.parametrize("drop", ["delete", "clear"])
    def test_a_faulted_drop_kills_the_records_it_could_not_tombstone(
        self, make_log, tmp_path, drop
    ):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.put("a", b"x" * 300, 1.0)  # two pages
        log.put("b", b"y", 2.0)  # one page
        _live, dead_before = space(log)

        def wedged(page_id):
            raise DiskFault("wedged", page_id=page_id, transient=False)

        log.disk.write_hook = wedged
        with pytest.raises(DiskFault):
            log.delete("a") if drop == "delete" else log.clear()
        log.disk.write_hook = None
        # The records left the manifest before the tombstone was charged.
        assert tokens(log) == ([] if drop == "clear" else ["b"])
        assert log.live_bytes == (0 if drop == "clear" else 1)
        dropped_pages = 3 if drop == "clear" else 2
        assert space(log)[1] == dead_before + dropped_pages
        log.check_conservation()
        # No tombstone reached the file: a restart resurrects them.
        log.close()
        assert tokens(make_log(path)) == ["a", "b"]

    def test_tokens_and_entries_in_insertion_order(self, make_log):
        log = make_log()
        log.put("b", b"1", 1.0)
        log.put("a", b"22", 2.0)
        log.put("b", b"333", 3.0)  # re-insert moves b last
        assert log.scan_keys() == (("a", 2.0, 2), ("b", 3.0, 3))
        assert log.live_bytes == 5

    def test_a_held_payload_outlives_later_writes(self, make_log):
        log = make_log()
        log.put("a", b"payload", 1.0)
        held = [log.get("a"), log.peek("a")]
        log.put("a", b"superseded", 1.0)  # a pinned buffer would raise
        log.clear()
        for payload in held:
            assert bytes(payload) == b"payload"
            assert payload.readonly

    def test_close_is_idempotent_and_blocks_writes(self, make_log):
        log = make_log()
        log.put("a", b"x", 1.0)
        log.close()
        log.close()
        with pytest.raises(ChunkLogError):
            log.put("b", b"y", 1.0)
        with pytest.raises(ChunkLogError):
            log.get("a")
        # Introspection still works after close (job summaries run then).
        assert len(log) == 1
        assert log.live_bytes == 1

    def test_oversized_token_rejected(self, make_log):
        log = make_log()
        with pytest.raises(ChunkLogError):
            log.put("t" * 70_000, b"x", 1.0)

    def test_in_memory_log_has_no_recovery(self, make_log):
        log = make_log()
        assert log.recovery == L2Recovery()
        assert len(log) == 0


class TestChunkLogAccounting:
    def test_page_conservation(self, make_log):
        log = make_log()
        log.put("a", b"x" * (3 * PAGE), 1.0)
        log.put("b", b"y", 2.0)
        log.get("a")
        log.delete("b")
        log.put("a", b"x" * 2, 3.0)
        log.clear()
        stats = log.stats
        assert log.disk.stats.writes == (
            stats.append_pages + stats.tombstone_pages + stats.clear_pages
        )
        assert log.disk.stats.reads == stats.read_pages + stats.scan_pages
        log.check_conservation()

    def test_multi_page_record_charges_ceil(self, make_log):
        log = make_log()
        pages = log.put("a", b"x" * (PAGE + 1), 1.0)
        assert pages == log.counters()["live_pages"]
        assert pages >= 2

    def test_peek_is_uncharged(self, make_log):
        log = make_log()
        log.put("a", b"payload", 1.0)
        reads_before = log.disk.stats.reads
        assert log.peek("a") == b"payload"
        assert log.disk.stats.reads == reads_before
        assert log.stats.reads == 0

    def test_faulted_append_charges_partial_pages_only(self, make_log):
        log = make_log()
        log.put("warm", b"w", 1.0)
        fail_on = {log.disk.num_pages + 1}  # second page of next record

        def hook(page_id):
            if page_id in fail_on:
                raise DiskFault("boom", page_id=page_id, transient=True)
            return 0.0

        log.disk.write_hook = hook
        with pytest.raises(DiskFault):
            log.put("a", b"x" * (3 * PAGE), 2.0)
        log.disk.write_hook = None
        # The aborted append reached the manifest and file not at all...
        assert "a" not in log
        # ...but the one page written before the fault stays charged,
        # and the logical counters reconcile with the disk exactly.
        stats = log.stats
        assert log.disk.stats.writes == (
            stats.append_pages + stats.tombstone_pages + stats.clear_pages
        )
        assert stats.appends == 1  # only the pre-fault record completed
        log.check_conservation()
        # The log is fully usable afterwards.
        log.put("a", b"x" * (3 * PAGE), 2.0)
        assert log.get("a") == b"x" * (3 * PAGE)

    def test_faulted_read_charges_partial_pages_only(self, make_log):
        log = make_log()
        log.put("a", b"x" * (3 * PAGE), 1.0)
        seen = []

        def hook(page_id):
            seen.append(page_id)
            if len(seen) == 2:
                raise DiskFault("boom", page_id=page_id, transient=True)
            return 0.0

        log.disk.read_hook = hook
        with pytest.raises(DiskFault):
            log.get("a")
        log.disk.read_hook = None
        stats = log.stats
        assert stats.reads == 0  # the read never completed
        assert log.disk.stats.reads == stats.read_pages + stats.scan_pages
        assert log.get("a") == b"x" * (3 * PAGE)


class TestTornWrites:
    def test_torn_hook_corrupts_payload_under_valid_framing(self, make_log):
        log = make_log()
        log.torn_hook = lambda token: token == "torn"
        log.put("clean", b"ok", 1.0)
        log.put("torn", b"doomed", 2.0)
        assert log.stats.torn_writes == 1
        assert log.get("clean") == b"ok"
        with pytest.raises(ChunkLogCorruption):
            log.get("torn")
        assert log.stats.crc_failures == 1

    def test_torn_record_survives_restart_until_read(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.torn_hook = lambda token: True
        log.put("torn", b"doomed", 2.0)
        log.close()
        reopened = make_log(path)
        # Valid framing: the scan keeps it; the CRC catches it at read.
        assert "torn" in reopened
        with pytest.raises(ChunkLogCorruption):
            reopened.get("torn")


class TestRestartRecovery:
    def test_clean_replay(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.put("a", b"x" * 10, 1.5)
        log.put("b", b"y" * 20, 2.5)
        log.delete("a")
        log.close()
        reopened = make_log(path)
        assert reopened.recovery.records == 3
        assert reopened.recovery.live_entries == 1
        assert reopened.recovery.truncated_bytes == 0
        assert reopened.scan_keys() == (("b", 2.5, 20),)
        assert reopened.get("b") == b"y" * 20
        # The scan charged one read per record page; the read("b")
        # above added its own pages on top.
        assert reopened.stats.scan_records == 3
        assert reopened.disk.stats.reads == (
            reopened.stats.read_pages + reopened.stats.scan_pages
        )

    def test_clear_survives_restart(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.put("a", b"x", 1.0)
        log.clear()
        log.put("b", b"y", 2.0)
        log.close()
        reopened = make_log(path)
        assert tokens(reopened) == ["b"]

    def test_reopen_revives_a_closed_log(self, make_log):
        log = make_log()
        log.put("a", b"x", 1.0)
        log.close()
        recovery = log.reopen()
        assert recovery.live_entries == 1
        assert log.get("a") == b"x"
        log.put("b", b"y", 2.0)
        assert len(log) == 2

    def test_truncated_tail_is_cut(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.put("a", b"x" * 10, 1.0)
        log.put("b", b"y" * 10, 2.0)
        log.close()
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[:-4])  # tear the last record's tail
        reopened = make_log(path)
        assert reopened.recovery.truncated_bytes > 0
        assert reopened.recovery.header_reset is False
        assert tokens(reopened) == ["a"]
        assert reopened.get("a") == b"x" * 10
        # The cut is durable: the next open sees a clean log.
        reopened.close()
        again = make_log(path)
        assert again.recovery.truncated_bytes == 0
        assert tokens(again) == ["a"]

    def test_corrupt_header_resets_to_fresh_log(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        with open(path, "wb") as handle:
            handle.write(b"NOPE" + b"\x00" * 40)
        log = make_log(path)
        assert log.recovery.header_reset is True
        assert len(log) == 0
        log.put("a", b"x", 1.0)
        log.close()
        assert tokens(make_log(path)) == ["a"]

    def test_short_file_resets(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        with open(path, "wb") as handle:
            handle.write(b"RC")
        log = make_log(path)
        assert log.recovery.header_reset is True
        assert len(log) == 0

    def test_unframeable_garbage_cuts_tail(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.put("a", b"x", 1.0)
        log.close()
        with open(path, "ab") as handle:
            handle.write(b"\xff" * 64)
        reopened = make_log(path)
        assert reopened.recovery.truncated_bytes == 64
        assert tokens(reopened) == ["a"]

    def test_non_utf8_token_bytes_cut_tail(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.put("a", b"x", 1.0)
        log.close()
        # A well-framed PUT whose token bytes are not UTF-8: the scan
        # treats it as the start of a corrupt tail.
        bogus = struct.Struct("<BHIdI").pack(1, 2, 0, 1.0, 0) + b"\xff\xfe"
        with open(path, "ab") as handle:
            handle.write(bogus)
        reopened = make_log(path)
        assert reopened.recovery.truncated_bytes == len(bogus)
        assert tokens(reopened) == ["a"]

    def test_newer_version_refused(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        header = struct.Struct("<4sHI6x").pack(
            CHUNKLOG_MAGIC, CHUNKLOG_VERSION + 1, PAGE
        )
        with open(path, "wb") as handle:
            handle.write(header)
        with pytest.raises(ChunkLogError, match="not supported"):
            make_log(path)

    def test_page_size_mismatch_refused(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        make_log(path).close()
        with pytest.raises(ChunkLogError, match="page_size"):
            ChunkLog(path, page_size=2 * PAGE)


def file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def store_bytes(log):
    """The bytes of an in-memory log's anonymous file."""
    fd = log._store.fileno()
    return os.pread(fd, os.fstat(fd).st_size, 0)


class TestOpenInPlace:
    """Opening an existing log never empties it: a kill during any
    open or reopen leaves the file's valid prefix on disk."""

    def test_no_truncating_mode_on_an_existing_log(
        self, make_log, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.put("a", b"x" * 10, 1.0)
        log.close()
        modes = []

        def spy(file, mode="r", *args, **kwargs):
            if file == path:
                modes.append(mode)
            return builtins.open(file, mode, *args, **kwargs)

        monkeypatch.setattr(chunklog, "open", spy, raising=False)
        reopened = make_log(path)
        reopened.reopen()
        reopened.put("b", b"y", 2.0)
        reopened.compact()  # nothing dead: no swap
        reopened.close()
        reopened.reopen()
        assert len(modes) == 3
        assert not [mode for mode in modes if "w" in mode]

    def test_open_and_close_leave_a_clean_log_unchanged(
        self, make_log, tmp_path
    ):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.put("a", b"x" * 10, 1.0)
        log.put("a", b"y" * 20, 2.0)
        log.close()
        before = file_bytes(path)
        again = make_log(path)
        again.reopen()
        again.close()
        assert file_bytes(path) == before
        assert os.path.getsize(path) == len(before)

    def test_a_torn_tail_is_cut_to_exactly_the_valid_prefix(
        self, make_log, tmp_path
    ):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.put("a", b"x" * 10, 1.0)
        log.close()
        prefix = file_bytes(path)
        log.reopen()
        log.put("b", b"y" * 300, 2.0)
        log.close()
        with open(path, "r+b") as handle:
            handle.truncate(len(file_bytes(path)) - 7)
        inode = os.stat(path).st_ino
        reopened = make_log(path)
        assert reopened.recovery.truncated_bytes == 19 + 1 + 300 - 7
        assert file_bytes(path) == prefix
        assert os.stat(path).st_ino == inode

    def test_reads_on_a_closed_file_backed_log_are_refused(
        self, make_log, tmp_path
    ):
        log = make_log(str(tmp_path / "log.bin"))
        log.put("a", b"x", 1.0)
        log.close()
        with pytest.raises(ChunkLogError, match="closed"):
            log.get("a")
        with pytest.raises(ChunkLogError, match="closed"):
            log.peek("a")


#: One operation on a log: a put (clean or torn), a delete, a clear, a
#: compaction, or a close followed by a reopen.
log_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["put", "torn"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=3 * PAGE),
        ),
        st.tuples(st.just("delete"), st.sampled_from(["a", "b", "c"])),
        st.tuples(st.sampled_from(["clear", "compact", "reopen"])),
    ),
    max_size=25,
)


def run_op(log, op):
    kind = op[0]
    if kind in ("put", "torn"):
        _kind, token, size = op
        log.torn_hook = (lambda _token: True) if kind == "torn" else None
        log.put(token, bytes([ord(token)]) * size, float(size))
        log.torn_hook = None
    elif kind == "delete":
        log.delete(op[1])
    elif kind == "clear":
        log.clear()
    elif kind == "compact":
        log.compact()
    else:
        log.close()
        log.reopen()


def observed(log):
    """Everything a log exposes: manifest, gauges, counters, recovery."""
    return (
        log.scan_keys(),
        log.counters(),
        dataclasses.asdict(log.stats),
        dataclasses.asdict(log.disk.stats),
        log.recovery,
    )


class TestFileAndMemoryAgree:
    """A file-backed and an in-memory log share one code path: the same
    operations leave the same bytes, manifest and counters."""

    @settings(max_examples=40, deadline=None)
    @given(ops=log_ops)
    def test_same_operations_same_bytes_and_counters(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.bin")
            on_file = ChunkLog(path, page_size=PAGE)
            in_memory = ChunkLog(page_size=PAGE)
            try:
                for op in ops:
                    run_op(on_file, op)
                    run_op(in_memory, op)
                    assert observed(on_file) == observed(in_memory)
                assert file_bytes(path) == store_bytes(in_memory)
                for log in (on_file, in_memory):
                    log.check_conservation()
            finally:
                on_file.close()
                in_memory.close()


class TestInMemoryStore:
    def test_records_survive_reopen_and_collection_closes_the_file(self):
        log = ChunkLog(page_size=PAGE)
        log.put("a", b"x" * (2 * PAGE), 1.0)
        log.put("b", b"y", 2.0)
        log.put("b", b"z", 3.0)
        log.close()
        assert log.reopen().live_entries == 2
        assert log.get("a") == b"x" * (2 * PAGE)
        assert log.get("b") == b"z"
        before = log._store
        assert log.compact() > 0
        assert before.closed  # the replaced store is closed at once
        log.close()
        log.reopen()
        assert tokens(log) == ["a", "b"]
        store = log._store
        del log  # never closed: collection closes the anonymous file
        gc.collect()
        assert store.closed


class TestRunChargeEqualsPageCharge:
    """With no hook installed the disk charges a record's pages as one
    run; with one, page by page.  Pass-through hooks change nothing."""

    @settings(max_examples=40, deadline=None)
    @given(ops=log_ops)
    def test_pass_through_hooks_leave_the_same_log(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("hooked", "plain")]
            hooked, plain = (ChunkLog(path, page_size=PAGE) for path in paths)
            hooked.read_hook = hooked.write_hook = lambda _page_id: 0.0
            try:
                for op in ops:
                    run_op(hooked, op)
                    run_op(plain, op)
                    assert observed(hooked) == observed(plain)
                    assert hooked._manifest == plain._manifest
                    assert hooked.disk._pages == plain.disk._pages
                assert file_bytes(paths[0]) == file_bytes(paths[1])
                for log in (hooked, plain):
                    log.check_conservation()
            finally:
                hooked.close()
                plain.close()


class TestMemory:
    def test_the_python_heap_stays_small_beside_a_large_log(self, tmp_path):
        # 128 tokens of 256 KiB, each written twice: 32 MiB live, 64 MiB
        # in the file.  The file is the only copy of those bytes.
        path = str(tmp_path / "log.bin")
        payload = b"\x5a" * (256 * 1024)
        tokens = [f"t{index}" for index in range(128)]
        limit = 4 * 1024 * 1024
        tracemalloc.start()
        try:
            log = ChunkLog(path, page_size=DEFAULT_PAGE_SIZE)
            try:
                for token in tokens + tokens:
                    log.put(token, payload, 1.0)
                assert os.path.getsize(path) > 64 * 1024 * 1024
                assert log.live_bytes == 32 * 1024 * 1024
                assert tracemalloc.get_traced_memory()[1] < limit
                assert log.compact() > 0
                assert tracemalloc.get_traced_memory()[1] < limit
                log.close()
                log.reopen()
                assert len(log) == len(tokens)
                for token in tokens:
                    assert log.get(token) == payload
                assert tracemalloc.get_traced_memory()[1] < limit
            finally:
                log.close()
        finally:
            tracemalloc.stop()


class TestSpaceCounters:
    def test_supersede_and_tombstone_grow_dead_pages(self, make_log):
        log = make_log()
        assert space(log) == (0, 0)
        first = log.put("a", b"x" * PAGE, 1.0)
        assert space(log) == (first, 0)
        second = log.put("a", b"y" * 4, 2.0)  # supersedes the old record
        assert space(log) == (second, first)
        log.delete("a")  # the record and its tombstone are both dead
        assert space(log) == (
            0, first + second + log.stats.tombstone_pages
        )

    def test_compact_resets_dead_space_and_reports_reclaimed(self, make_log):
        log = make_log()
        log.put("a", b"x" * PAGE, 1.0)
        log.put("a", b"y" * 4, 2.0)
        _live, dead = space(log)
        assert dead > 0
        assert log.compact() == dead
        assert space(log)[1] == 0
        assert log.counters()["compactions"] == 1
        assert log.counters()["reclaimed_pages"] == dead
        assert log.get("a") == b"y" * 4
        log.check_conservation()

    def test_compact_on_empty_log_is_a_noop(self, make_log):
        log = make_log()
        assert log.compact() == 0
        assert set(log.counters().values()) == {0}

    def test_space_gauges_are_recomputed_from_durable_bytes(
        self, make_log, tmp_path
    ):
        path = str(tmp_path / "log.bin")
        log = make_log(path)
        log.put("a", b"x" * PAGE, 1.0)
        log.put("a", b"y" * 4, 2.0)
        gauges = space(log)
        log.close()
        assert space(make_log(path)) == gauges


GOLDEN = __file__.rsplit("/", 1)[0] + "/golden/chunklog_v1.bin"

#: The v1 record frame, stated independently of the log: type u8 +
#: token_len u16 + payload_len u32 + benefit f64 + crc32 u32.  A record
#: charges ``ceil((frame + token + payload) / page_size)`` pages.
FRAME_BYTES = 19


def framed_pages(token, payload):
    length = FRAME_BYTES + len(token.encode("utf-8")) + len(payload)
    return max(1, -(-length // PAGE))


def write_golden_sequence(path):
    """The fixed record sequence pinned in ``golden/chunklog_v1.bin``."""
    log = ChunkLog(path, page_size=PAGE)
    log.put("alpha", b"alpha-payload", 1.5)
    log.put("beta", bytes(range(64)), 2.25)
    log.put("alpha", b"alpha-v2", 3.0)
    log.delete("beta")
    log.put("gamma", b"\x00\xff" * 8, 0.5)
    log.close()


class TestGoldenFormat:
    """The v1 on-disk format is a frozen artifact.

    If either test fails after an intentional format change, bump
    ``CHUNKLOG_VERSION``, regenerate the golden under a *new* file name
    (``chunklog_v2.bin``) and keep this v1 test refusing the old bytes —
    format drift must fail loudly, never reinterpret.
    """

    def test_writer_reproduces_golden_bytes(self, tmp_path):
        path = str(tmp_path / "log.bin")
        write_golden_sequence(path)
        with open(path, "rb") as handle:
            produced = handle.read()
        with open(GOLDEN, "rb") as handle:
            golden = handle.read()
        assert produced == golden

    def test_reader_replays_golden_bytes(self, make_log, tmp_path):
        path = str(tmp_path / "log.bin")
        with open(GOLDEN, "rb") as src, open(path, "wb") as dst:
            dst.write(src.read())
        log = make_log(path)
        assert log.recovery.records == 5
        assert log.scan_keys() == (("alpha", 3.0, 8), ("gamma", 0.5, 16))
        assert log.get("alpha") == b"alpha-v2"
        assert log.get("gamma") == b"\x00\xff" * 8

    def test_pages_charged_match_the_canonical_framing(self, make_log):
        log = make_log()
        shapes = [("t", b""), ("tok", b"x" * 40),
                  ("long-token", b"y" * PAGE), ("z", b"z" * (3 * PAGE + 1))]
        for token, payload in shapes:
            assert log.put(token, payload, 1.0) == framed_pages(
                token, payload
            ), (token, len(payload))

    def test_version_bump_refuses_golden_reinterpretation(
        self, make_log, tmp_path
    ):
        with open(GOLDEN, "rb") as handle:
            raw = bytearray(handle.read())
        struct.Struct("<H").pack_into(raw, 4, CHUNKLOG_VERSION + 1)
        path = str(tmp_path / "log.bin")
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        with pytest.raises(ChunkLogError, match="not supported"):
            make_log(path)
