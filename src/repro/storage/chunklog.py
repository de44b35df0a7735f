"""Persistent, checksummed append-only chunk log (the L2 cache tier).

:class:`ChunkLog` is the L2 half of the two-tier chunk cache
(``docs/TIERING.md``): the one store of the persistent tier, used
directly by :class:`~repro.core.tiered.TieredChunkCache`.  It stores
opaque ``(token, benefit, payload)`` records in an append-only file and
charges every record read and write through a private
:class:`~repro.storage.disk.SimulatedDisk`, so L2 traffic lands in the
same page-accounting currency as the backend's I/O — spills and
promotions have an exact, deterministic page cost.

The module is deliberately *key-agnostic*: tokens are caller-chosen
strings and payloads are caller-encoded bytes.  Encoding a
``CachedChunk`` into a record (and back) is the job of
:mod:`repro.core.tiered` — the storage layer sits below the caching
layers (R001) and must stay reusable without them.

On-disk format v1 (little-endian throughout)::

    header   : magic b"RCLG" | version u16 | page_size u32 | 6 pad bytes
    record   : type u8 | token_len u16 | payload_len u32 | benefit f64
               | crc32 u32 | token bytes | payload bytes
    type     : 1 = put, 2 = tombstone, 3 = clear-all

The CRC-32 covers the record's fixed fields (minus the CRC itself),
the token and the payload.  Each record occupies
``ceil(record_len / page_size)`` freshly allocated pages on the
accounting disk, charged as one run per record.

The backing file (an anonymous temporary file for an in-memory log)
is the log's only copy of its bytes: memory holds the manifest of live
extents.  The file is unbuffered and addressed by position: every read
is one ``os.pread`` of one record, every append one ``os.pwritev`` at
the end of the file.

**Durability: a process kill, not a power loss.**  An append is in the
kernel when its write returns, so a killed process loses at worst one
torn tail record, which the next open cuts.  Appends are never
fsynced; only compaction fsyncs its sidecar before the swap.  A power
loss or kernel crash may therefore drop or tear any record written
since the last compaction: that is not covered.

Because the log is append-only, superseded puts, tombstones, clear
records and the extents they killed all remain in the file as **dead
space**.  The log tracks the split exactly (``live_pages`` /
``dead_pages`` in :meth:`ChunkLog.counters`) and
:meth:`ChunkLog.compact` reclaims it: live records are copied
verbatim, each run of adjacent records at once, into a sidecar file
(``<path>.compact``), which is fsynced once and then atomically
replaces the log via ``os.replace``.  A crash at *any* write boundary
leaves either the complete old file or the complete new file — a
partial sidecar is removed on the next open, never replayed.

Recovery policy on open (see ``docs/TIERING.md`` §restart):

- a clean log replays fully (puts last-win, tombstones and clears
  apply in order), charging one scan read per record page;
- a truncated or unframeable tail is discarded — the file is cut back
  in place to the last well-framed record and the valid prefix
  survives (an open never rewrites or empties an existing file);
- a corrupt header (wrong magic / garbage) resets the file to a fresh
  empty log: the persist path is cache-owned state, so degrading to a
  cold start beats refusing to serve;
- a *newer* format version raises :class:`~repro.exceptions.ChunkLogError`
  — format drift must fail loudly, never reinterpret bytes.

Record CRCs are verified at :meth:`ChunkLog.get` time, not during the
scan: a torn record with valid framing survives restart in the
manifest and is quarantined on first access, exactly like in the
original process (``tests/integration/test_restart.py`` pins this).
"""

from __future__ import annotations

import os
import struct
import tempfile
import weakref
from dataclasses import dataclass
from typing import IO, Callable, NamedTuple, Sequence
from zlib import crc32

from repro.exceptions import (
    ChunkLogCorruption,
    ChunkLogError,
    DiskFault,
    InvariantViolation,
)
from repro.storage.disk import DEFAULT_PAGE_SIZE, SimulatedDisk

__all__ = [
    "CHUNKLOG_MAGIC",
    "CHUNKLOG_VERSION",
    "ChunkLog",
    "L2Recovery",
    "L2Stats",
]

CHUNKLOG_MAGIC = b"RCLG"
CHUNKLOG_VERSION = 1

_HEADER = struct.Struct("<4sHI6x")  # magic, version, page_size
_PREFIX = struct.Struct("<BHIdI")  # type, token_len, payload_len, benefit, crc
_CRC_FIELDS = struct.Struct("<BHId")  # prefix minus the crc itself

_PUT = 1
_TOMBSTONE = 2
_CLEAR = 3
_RECORD_TYPES = frozenset({_PUT, _TOMBSTONE, _CLEAR})

#: Sidecar suffix compaction rewrites into before the atomic swap.
COMPACT_SUFFIX = ".compact"

#: Bytes the replay scan reads per record: the prefix and, for any
#: token this long or shorter, the whole token in the same read.
_SCAN_READ = 512

#: Largest slice compaction holds in memory while it copies a run.
_COPY_SLICE = 1 << 20


@dataclass
class L2Stats:
    """Cumulative logical counters of a chunk log.

    Page counters count *successful* page transfers only, one per
    accounting-disk page actually charged — so they reconcile exactly
    with the disk even when a fault hook aborts an operation partway
    through a multi-page record (see :meth:`ChunkLog.check_conservation`).
    """

    appends: int = 0
    append_pages: int = 0
    reads: int = 0
    read_pages: int = 0
    tombstones: int = 0
    tombstone_pages: int = 0
    clears: int = 0
    clear_pages: int = 0
    scan_records: int = 0
    scan_pages: int = 0
    crc_failures: int = 0
    torn_writes: int = 0
    compactions: int = 0
    compact_read_pages: int = 0
    compact_write_pages: int = 0
    reclaimed_pages: int = 0


@dataclass(frozen=True)
class L2Recovery:
    """What a chunk log found (and discarded) while opening.

    Attributes:
        records: Well-framed records replayed from durable state.
        live_entries: Tokens live in the manifest after replay.
        truncated_bytes: Tail bytes discarded as torn/unframeable.
        header_reset: Durable state was unreadable and the log reset
            itself to a fresh empty store.
    """

    records: int = 0
    live_entries: int = 0
    truncated_bytes: int = 0
    header_reset: bool = False


class _Extent(NamedTuple):
    """Location of one live record: file offset plus its page run."""

    offset: int
    length: int
    payload_len: int
    benefit: float
    page_start: int
    pages: int


class ChunkLog:
    """File-backed, page-accounted append-only record store.

    Args:
        path: Backing file.  ``None`` keeps the log in an anonymous
            temporary file, which no other process can find (same
            accounting, no durability across processes) — used by
            tests and by 2-tier stacks that want spill/promote
            economics without a persist path.
        page_size: Page size of the private accounting disk.
    """

    def __init__(
        self, path: str | None = None, page_size: int = DEFAULT_PAGE_SIZE
    ) -> None:
        self.path = path
        self.disk = SimulatedDisk(page_size=page_size)
        self.stats = L2Stats()
        self._manifest: dict[str, _Extent] = {}
        self._closed = False
        # Fault-injection hooks (repro.faults installs them).
        # torn_hook: consulted per put with the record token; returning
        # True tears the stored payload while the CRC still covers the
        # original bytes.  compact_hook: consulted once per record a
        # compaction copies; returning True aborts the compaction at
        # that write boundary (the log is left untouched).
        self.torn_hook: Callable[[str], bool] | None = None
        self.compact_hook: Callable[[int], bool] | None = None
        self._live_pages = 0
        self._live_bytes = 0
        self._total_record_pages = 0
        # The log's one byte store, unbuffered and read and written by
        # position through ``_fd``: the backing file (opened by
        # ``_open``), or the anonymous file of an in-memory log, which
        # outlives close/reopen the way a named file does and is closed
        # when the log is collected.  ``_end`` is its length.
        self._store: IO[bytes] | None = None
        self._fd = -1
        self._release: weakref.finalize | None = None
        self._end = 0
        if path is None:
            self._use(tempfile.TemporaryFile(buffering=0))
        elif os.path.exists(path + COMPACT_SUFFIX):
            # A sidecar left behind by a compaction the process died
            # inside is garbage by construction (the swap is atomic).
            os.remove(path + COMPACT_SUFFIX)
        self.recovery = self._open()

    # ------------------------------------------------------------------
    # Open/replay

    def _use(self, store: IO[bytes]) -> None:
        """Make ``store`` the log's byte store.  An in-memory log's
        store is closed when the log is collected or its store is
        replaced; a named file's is closed by :meth:`close`."""
        self._store = store
        self._fd = store.fileno()
        if self.path is None:
            if self._release is not None:
                self._release()
            self._release = weakref.finalize(self, store.close)

    def _open(self) -> L2Recovery:
        """(Re)open the store and rebuild all in-memory state from it.

        An existing file is opened without truncation; a torn tail is
        cut in place and an empty or reset store gets a fresh header.
        """
        self._closed = True
        if self.path is not None:
            if self._store is not None:
                self._store.close()
            exists = os.path.exists(self.path)
            self._use(
                open(self.path, "r+b" if exists else "w+b", buffering=0)
            )
        try:
            recovery = self._replay()
        except BaseException:
            if self.path is not None and self._store is not None:
                self._store.close()
            raise
        if recovery.truncated_bytes:
            os.ftruncate(self._fd, self._end)
        if self._end == 0:
            header = _HEADER.pack(
                CHUNKLOG_MAGIC, CHUNKLOG_VERSION, self.disk.page_size
            )
            _write_at(self._fd, header, 0)
            self._end = _HEADER.size
        self._closed = False
        return recovery

    def _replay(self) -> L2Recovery:
        """Rebuild the manifest from the store's records, reading each
        one's prefix and token (one read, unless the token is long) and
        never its payload; charge scan reads."""
        self._end = 0
        self._manifest.clear()
        self._live_pages = 0
        self._live_bytes = 0
        self._total_record_pages = 0
        fd = self._fd
        size = os.fstat(fd).st_size
        if not size:
            return L2Recovery()
        header = os.pread(fd, _HEADER.size, 0)
        if len(header) < _HEADER.size:
            return L2Recovery(truncated_bytes=size, header_reset=True)
        magic, version, page_size = _HEADER.unpack(header)
        if magic != CHUNKLOG_MAGIC:
            return L2Recovery(truncated_bytes=size, header_reset=True)
        if version != CHUNKLOG_VERSION:
            raise ChunkLogError(
                f"chunk log format v{version} is not supported "
                f"(this build reads v{CHUNKLOG_VERSION}); refusing to "
                "reinterpret the file"
            )
        if page_size != self.disk.page_size:
            raise ChunkLogError(
                f"chunk log was written with page_size={page_size}, "
                f"opened with page_size={self.disk.page_size}"
            )
        offset = _HEADER.size
        records = 0
        while offset + _PREFIX.size <= size:  # else clean end or torn prefix
            head = os.pread(fd, _SCAN_READ, offset)
            rtype, token_len, payload_len, benefit, _crc = _PREFIX.unpack_from(
                head
            )
            if rtype not in _RECORD_TYPES:
                break  # unframeable: corrupt tail starts here
            end = offset + _PREFIX.size + token_len + payload_len
            if end > size:
                break  # torn record
            token_end = _PREFIX.size + token_len
            if token_end > len(head):
                head = os.pread(fd, token_end, offset)
            try:
                token = head[_PREFIX.size : token_end].decode("utf-8")
            except UnicodeDecodeError:
                break
            length = end - offset
            pages = self._pages_for(length)
            page_start = self.disk.allocate(pages)
            self._charge(
                self.disk.charge_reads, page_start, pages, "scan_pages"
            )
            records += 1
            self.stats.scan_records += 1
            self._total_record_pages += pages
            if rtype == _PUT:
                self._forget_extent(token)
                self._manifest[token] = _Extent(
                    offset=offset,
                    length=length,
                    payload_len=payload_len,
                    benefit=benefit,
                    page_start=page_start,
                    pages=pages,
                )
                self._live_pages += pages
                self._live_bytes += payload_len
            elif rtype == _TOMBSTONE:
                self._forget_extent(token)
            else:
                self._manifest.clear()
                self._live_pages = 0
                self._live_bytes = 0
            offset = end
        self._end = offset
        return L2Recovery(
            records=records,
            live_entries=len(self._manifest),
            truncated_bytes=size - offset,
        )

    def reopen(self) -> L2Recovery:
        """Simulated restart: rebuild everything from durable state.

        The backing file (or, for an in-memory log, its anonymous
        file — which survives :meth:`close` exactly like a file would) is
        re-replayed from scratch: manifest, live/dead split and torn
        tails are all rediscovered, charging one scan read per record
        page like the constructor does.  Also reopens a :meth:`close`-d
        log.  Returns what the replay found.
        """
        self.recovery = self._open()
        return self.recovery

    # ------------------------------------------------------------------
    # Writes

    def put(self, token: str, payload: bytes, benefit: float) -> int:
        """Store ``payload`` under ``token``; returns pages written.

        The record survives a kill of the process once ``put`` returns
        (it is in the kernel), but not a power loss: appends are never
        fsynced (see the module docstring).

        Last write wins: an existing live record for the same token is
        superseded (the old extent stays in the file as dead space).
        A :class:`~repro.exceptions.DiskFault` raised by the accounting
        disk's write hook aborts the put — the pages charged before
        the fault stay charged (a torn multi-page write did real work)
        but no bytes reach the backing file and the manifest is
        unchanged.
        """
        if not token:
            raise ChunkLogError("chunk log token must be non-empty")
        length, parts, torn = self._encode(_PUT, token, payload, benefit)
        self._ensure_open()
        pages = self._charge_write(length, "append_pages")
        self.stats.appends += 1
        if torn:
            self.stats.torn_writes += 1
        offset = self._end
        self._persist(parts, length)
        self._forget_extent(token)
        self._manifest[token] = _Extent(
            offset=offset,
            length=length,
            payload_len=len(payload),
            benefit=benefit,
            page_start=self.disk.num_pages - pages,
            pages=pages,
        )
        self._live_pages += pages
        self._live_bytes += len(payload)
        self._total_record_pages += pages
        return pages

    def delete(self, token: str) -> bool:
        """Tombstone a live record (charged); returns whether it was live.

        Like a put, the tombstone survives a process kill once this
        returns, not a power loss.  The record leaves the manifest
        *before* the tombstone is charged: a
        :class:`~repro.exceptions.DiskFault` from the write hook
        re-raises with the record dead in memory (its pages count as
        dead) but no tombstone in the file, so a restart scan
        resurrects it.
        """
        self._ensure_open()
        if not self._forget_extent(token):
            return False
        length, parts, _torn = self._encode(_TOMBSTONE, token, b"", 0.0)
        pages = self._charge_write(length, "tombstone_pages")
        self.stats.tombstones += 1
        self._persist(parts, length)
        self._total_record_pages += pages
        return True

    def clear(self) -> int:
        """Drop every live record via one clear-all record (charged).

        Like a put, the clear-all record survives a process kill once
        this returns, not a power loss.  As for :meth:`delete`, the
        manifest empties before the record is charged: a faulted clear
        re-raises with every record dead in memory, and a restart scan
        resurrects them.
        """
        self._ensure_open()
        dropped = len(self._manifest)
        self._manifest.clear()
        self._live_pages = 0
        self._live_bytes = 0
        length, parts, _torn = self._encode(_CLEAR, "", b"", 0.0)
        pages = self._charge_write(length, "clear_pages")
        self.stats.clears += 1
        self._persist(parts, length)
        self._total_record_pages += pages
        return dropped

    def drop(self, token: str) -> bool:
        """Quarantine: remove a token from the manifest, memory only.

        No tombstone is written — a torn record cannot be trusted to
        need one; the restart scan will re-surface it and the next read
        re-quarantines it.  (A :meth:`compact` run while the token is
        quarantined makes the quarantine durable: only manifest records
        are copied.)
        """
        return self._forget_extent(token)

    # ------------------------------------------------------------------
    # Compaction

    def compact(self) -> int:
        """Rewrite live records into a fresh log; returns pages reclaimed.

        The live manifest is copied *verbatim* (byte-for-byte, CRCs
        and all — a torn-but-framed record stays torn and still
        quarantines at read) from the store into a sidecar file, which
        is fsynced once and then atomically replaces the log via
        ``os.replace``.  Manifest order is file order, so each run of
        records adjacent in the file is copied with one read and one
        write per slice of at most ``_COPY_SLICE`` bytes.  Every copied
        record still charges its pages as a read and again as a write
        on the accounting disk (``compact_read_pages`` /
        ``compact_write_pages``), so compaction I/O is as visible as any
        other.

        Crash-safe at every write boundary: until the swap the old file
        is untouched, and a partial sidecar is deleted on the next
        open.  A :class:`~repro.exceptions.DiskFault` from the
        read/write hooks (or an armed ``compact_hook``) aborts the
        compaction with the log unchanged — charged pages stay
        charged, mirroring every other faulted operation.

        No-op (returns 0) when the log has no dead pages.
        """
        self._ensure_open()
        reclaimed = self._total_record_pages - self._live_pages
        if reclaimed <= 0:
            return 0
        store, path = self._store, self.path
        sidecar: IO[bytes] = (
            tempfile.TemporaryFile(buffering=0)
            if path is None
            else open(path + COMPACT_SUFFIX, "w+b", buffering=0)
        )
        source, target = self._fd, sidecar.fileno()
        buffer = memoryview(bytearray(min(self._end, _COPY_SLICE)))
        new_manifest: dict[str, _Extent] = {}
        # Only compaction charges the disk until it returns, so the
        # disk's own counters tell its pages, faulted runs included.
        disk = self.disk
        counted = disk.stats
        reads, writes = counted.reads, counted.writes
        try:
            offset = _write_at(
                target,
                _HEADER.pack(
                    CHUNKLOG_MAGIC, CHUNKLOG_VERSION, self.disk.page_size
                ),
                0,
            )
            # The run of adjacent records not yet copied: its start in
            # the store, its end, and where it lands in the sidecar.
            run_start = run_end = run_target = offset
            for index, (token, extent) in enumerate(
                self._manifest.items()
            ):
                if self.compact_hook is not None and self.compact_hook(
                    index
                ):
                    raise DiskFault(
                        "injected compaction abort at record "
                        f"{index} ({token!r})",
                        page_id=extent.page_start,
                        transient=True,
                        site="compact",
                    )
                pages = extent.pages
                disk.charge_reads(extent.page_start, pages)
                page_start = disk.allocate(pages)
                disk.charge_writes(page_start, pages)
                if extent.offset != run_end:
                    _copy(
                        source, target, run_start, run_end, run_target, buffer
                    )
                    run_start, run_target = extent.offset, offset
                run_end = extent.offset + extent.length
                new_manifest[token] = _Extent(
                    offset,
                    extent.length,
                    extent.payload_len,
                    extent.benefit,
                    page_start,
                    pages,
                )
                offset += extent.length
            _copy(source, target, run_start, run_end, run_target, buffer)
            if path is not None:
                os.fsync(target)
                sidecar.close()
                try:
                    os.replace(path + COMPACT_SUFFIX, path)
                except OSError as exc:
                    raise ChunkLogError(
                        f"compaction swap failed: {exc}"
                    ) from exc
        except BaseException:
            sidecar.close()
            if path is not None and os.path.exists(path + COMPACT_SUFFIX):
                os.remove(path + COMPACT_SUFFIX)
            raise
        finally:
            self.stats.compact_read_pages += counted.reads - reads
            self.stats.compact_write_pages += counted.writes - writes
        if path is not None:
            store.close()
            sidecar = open(path, "r+b", buffering=0)
        self._use(sidecar)
        self._end = offset
        self._manifest = new_manifest
        self._total_record_pages = self._live_pages
        self.stats.compactions += 1
        self.stats.reclaimed_pages += reclaimed
        return reclaimed

    # ------------------------------------------------------------------
    # Reads

    def get(self, token: str) -> memoryview:
        """Charged, verified read of a live record's payload.

        Returns a read-only view of the payload inside the record's
        bytes as read from the store — a private copy, so the view stays
        valid (and the log appendable) for as long as the caller holds
        it.  The CRC is verified on every call.

        Raises :class:`~repro.exceptions.ChunkLogError` for a token that
        is not live, :class:`~repro.exceptions.ChunkLogCorruption` when
        the stored CRC does not match the stored bytes, and re-raises
        any :class:`~repro.exceptions.DiskFault` from the accounting
        disk's read hook (pages read before the fault stay charged).
        """
        self._ensure_open()
        extent = self._manifest.get(token)
        if extent is None:
            raise ChunkLogError(f"token {token!r} is not live in the log")
        self._charge(
            self.disk.charge_reads,
            extent.page_start,
            extent.pages,
            "read_pages",
        )
        self.stats.reads += 1
        return self._verified_payload(token, extent)

    def peek(self, token: str) -> memoryview:
        """Uncharged, verified read (no disk counters, no fault hooks).

        Used by snapshot/warm-start paths that must not perturb the
        deterministic I/O accounting; still CRC-verified so corruption
        never decodes.  Like :meth:`get`, refused on a closed log.
        """
        self._ensure_open()
        extent = self._manifest.get(token)
        if extent is None:
            raise ChunkLogError(f"token {token!r} is not live in the log")
        return self._verified_payload(token, extent)

    # ------------------------------------------------------------------
    # Introspection

    def __contains__(self, token: str) -> bool:
        return token in self._manifest

    def __len__(self) -> int:
        return len(self._manifest)

    def scan_keys(self) -> tuple[tuple[str, float, int], ...]:
        """Live ``(token, benefit, payload_len)`` in (re-)insertion
        order — deterministic."""
        return tuple(
            (token, extent.benefit, extent.payload_len)
            for token, extent in self._manifest.items()
        )

    @property
    def live_bytes(self) -> int:
        """Total payload bytes across live records."""
        return self._live_bytes

    def counters(self) -> dict[str, int]:
        """Space gauges the tiered cache surfaces per tier: file pages
        of live (manifest) records, of superseded / tombstone / clear
        records, and the compaction totals."""
        return {
            "live_pages": self._live_pages,
            "dead_pages": self._total_record_pages - self._live_pages,
            "compactions": self.stats.compactions,
            "reclaimed_pages": self.stats.reclaimed_pages,
        }

    def check_conservation(self) -> None:
        """Exact page reconciliation between the log and its disk.

        Spills, promotions, tombstones, restart scans and compactions
        account for every page, including pages charged by operations a
        fault later aborted, and the running ``live_bytes`` gauge equals
        the manifest it summarises::

            disk.writes == append + tombstone + clear + compact_write pages
            disk.reads  == read + scan + compact_read pages
            live_bytes  == sum of the live records' payload lengths
        """
        stats = self.stats
        disk = self.disk.stats
        written = (
            stats.append_pages
            + stats.tombstone_pages
            + stats.clear_pages
            + stats.compact_write_pages
        )
        if written != disk.writes:
            raise InvariantViolation(
                f"L2 write pages diverged: ops account for {written} "
                f"pages, disk counted {disk.writes}"
            )
        read = (
            stats.read_pages + stats.scan_pages + stats.compact_read_pages
        )
        if read != disk.reads:
            raise InvariantViolation(
                f"L2 read pages diverged: ops account for {read} pages, "
                f"disk counted {disk.reads}"
            )
        live = sum(
            extent.payload_len for extent in self._manifest.values()
        )
        if live != self._live_bytes:
            raise InvariantViolation(
                f"L2 live-byte gauge diverged: the manifest holds {live} "
                f"payload bytes, the gauge reads {self._live_bytes}"
            )

    # ------------------------------------------------------------------
    # Fault points (the injector sets these; see docs/FAULTS.md)

    @property
    def write_hook(self) -> Callable[[int], float] | None:
        """Per-page write fault point (delegates to the accounting disk)."""
        return self.disk.write_hook

    @write_hook.setter
    def write_hook(self, hook: Callable[[int], float] | None) -> None:
        self.disk.write_hook = hook

    @property
    def read_hook(self) -> Callable[[int], float] | None:
        """Per-page read fault point (delegates to the accounting disk)."""
        return self.disk.read_hook

    @read_hook.setter
    def read_hook(self, hook: Callable[[int], float] | None) -> None:
        self.disk.read_hook = hook

    def close(self) -> None:
        """Close the backing file (idempotent).  An in-memory log's
        anonymous file stays open for :meth:`reopen`."""
        if self._closed:
            return
        self._closed = True
        if self.path is not None and self._store is not None:
            self._store.close()

    # ------------------------------------------------------------------
    # Internals

    def _forget_extent(self, token: str) -> bool:
        """Drop a token's extent from the manifest, keeping the live
        page and byte gauges exact."""
        extent = self._manifest.pop(token, None)
        if extent is None:
            return False
        self._live_pages -= extent.pages
        self._live_bytes -= extent.payload_len
        return True

    def _encode(
        self, rtype: int, token: str, payload: bytes, benefit: float
    ) -> tuple[int, tuple[bytes, bytes, bytes], bool]:
        """The record's length, the parts to store (prefix, token,
        payload) and whether they are torn — the torn-write hook fired
        for a put, and the stored payload's last byte is flipped under
        a CRC of the original."""
        token_bytes = token.encode("utf-8")
        if len(token_bytes) > 0xFFFF:
            raise ChunkLogError(
                f"token of {len(token_bytes)} bytes exceeds the 64 KiB "
                "format limit"
            )
        fields = _CRC_FIELDS.pack(rtype, len(token_bytes), len(payload), benefit)
        crc = crc32(payload, crc32(token_bytes, crc32(fields)))
        prefix = _PREFIX.pack(
            rtype, len(token_bytes), len(payload), benefit, crc
        )
        length = len(prefix) + len(token_bytes) + len(payload)
        torn = bool(
            rtype == _PUT
            and payload
            and self.torn_hook is not None
            and self.torn_hook(token)
        )
        if torn:
            payload = bytes(payload[:-1]) + bytes([payload[-1] ^ 0xFF])
        return length, (prefix, token_bytes, payload), torn

    def _charge(
        self,
        charge: Callable[[int, int], None],
        first: int,
        count: int,
        counter: str,
    ) -> None:
        """Charge a page run through the disk's ``charge_reads`` or
        ``charge_writes`` and add the pages it charged to
        ``stats.<counter>``: all of them, or, when a hook faults
        partway (re-raised), those before the fault."""
        counted = self.disk.stats
        before = counted.reads + counted.writes
        try:
            charge(first, count)
        finally:
            charged = counted.reads + counted.writes - before
            setattr(
                self.stats, counter, getattr(self.stats, counter) + charged
            )

    def _charge_write(self, length: int, counter: str) -> int:
        """Allocate and write-charge a record's pages; returns them."""
        pages = self._pages_for(length)
        self._charge(
            self.disk.charge_writes, self.disk.allocate(pages), pages, counter
        )
        return pages

    def _persist(self, parts: Sequence[bytes], length: int) -> None:
        """Append one record at ``_end`` with one positional write."""
        written = os.pwritev(self._fd, parts, self._end)
        if written < length:
            _write_at(self._fd, b"".join(parts)[written:], self._end + written)
        self._end += length

    def _verified_payload(self, token: str, extent: _Extent) -> memoryview:
        # One read of the record; a short read (a file cut behind the
        # log's back) fails like a bad CRC.
        record = memoryview(os.pread(self._fd, extent.length, extent.offset))
        if len(record) != extent.length or crc32(
            record[_PREFIX.size :], crc32(record[: _CRC_FIELDS.size])
        ) != _PREFIX.unpack_from(record)[-1]:
            self.stats.crc_failures += 1
            raise ChunkLogCorruption(
                f"chunk log record {token!r} failed its CRC-32 check "
                "(torn write)",
                token=token,
            )
        return record[extent.length - extent.payload_len :]

    def _pages_for(self, length: int) -> int:
        return max(1, -(-length // self.disk.page_size))

    def _ensure_open(self) -> None:
        if self._closed:
            raise ChunkLogError("chunk log is closed")


def _write_at(fd: int, data: bytes | memoryview, offset: int) -> int:
    """Write all of ``data`` at ``offset``; returns its length."""
    view = memoryview(data)
    while view:
        view = view[os.pwrite(fd, view, offset + len(data) - len(view)) :]
    return len(data)


def _copy(
    source: int, target: int, start: int, end: int, at: int, buffer: memoryview
) -> None:
    """Copy bytes ``start:end`` of ``source`` to ``at`` in ``target``
    through ``buffer``, a slice of at most its size at a time.  Bytes
    past the end of a source cut behind the log's back are copied as
    zeros, so every record keeps its place and a cut one still fails
    its CRC."""
    while start < end:
        view = buffer[: min(end - start, len(buffer))]
        got = os.preadv(source, [view], start)
        if got < len(view):
            view[got:] = bytes(len(view) - got)
        at += _write_at(target, view, at)
        start += len(view)
