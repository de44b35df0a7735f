"""Persistent, checksummed append-only chunk log (the L2 cache tier).

:class:`ChunkLog` is the durable half of the two-tier chunk cache
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
accounting disk; the backing file is flushed after every append so a
kill leaves at worst one torn tail record.

The backing file (an ``io.BytesIO`` for an in-memory log) is the
log's only copy of its bytes: memory holds the manifest of live
extents, and every read seeks into the store for one record.

Because the log is append-only, superseded puts, tombstones, clear
records and the extents they killed all remain in the file as **dead
space**.  The log tracks the split exactly (``live_pages`` /
``dead_pages`` in :meth:`ChunkLog.counters`) and
:meth:`ChunkLog.compact` reclaims it: live records are streamed
verbatim into a sidecar file (``<path>.compact``), which is flushed and
fsynced once and then atomically replaces the log via ``os.replace``.
A crash at *any* write boundary leaves either the complete old file or
the complete new file — a partial sidecar is removed on the next open,
never replayed.

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

import io
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable
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


@dataclass(frozen=True)
class _Extent:
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
        path: Backing file.  ``None`` keeps the log purely in memory
            (same accounting, no durability across processes) — used by
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
        # The log's one byte store: the backing file (opened by
        # ``_open``), or the BytesIO of an in-memory log, which outlives
        # close/reopen the way a file does.  ``_end`` is its length.
        self._store: BinaryIO = io.BytesIO()
        self._end = 0
        # A sidecar left behind by a compaction the process died inside
        # is garbage by construction (the swap is atomic): remove it.
        if path is not None and os.path.exists(path + COMPACT_SUFFIX):
            os.remove(path + COMPACT_SUFFIX)
        self.recovery = self._open()

    # ------------------------------------------------------------------
    # Open/replay

    def _open(self) -> L2Recovery:
        """(Re)open the store and rebuild all in-memory state from it.

        An existing file is opened without truncation; a torn tail is
        cut in place and an empty or reset store gets a fresh header.
        """
        self._closed = True
        if self.path is not None:
            self._store.close()
            exists = os.path.exists(self.path)
            self._store = open(self.path, "r+b" if exists else "w+b")
        store = self._store
        try:
            recovery = self._replay(store)
        except BaseException:
            if self.path is not None:
                store.close()
            raise
        if recovery.truncated_bytes:
            store.truncate(self._end)
        if self._end == 0:
            store.seek(0)
            store.write(
                _HEADER.pack(CHUNKLOG_MAGIC, CHUNKLOG_VERSION, self.disk.page_size)
            )
            self._end = _HEADER.size
        store.flush()
        self._closed = False
        return recovery

    def _replay(self, store: BinaryIO) -> L2Recovery:
        """Rebuild the manifest from the store's records, reading each
        one's prefix and token and seeking past its payload; charge scan
        reads."""
        self._end = 0
        self._manifest.clear()
        self._live_pages = 0
        self._live_bytes = 0
        self._total_record_pages = 0
        size = store.seek(0, os.SEEK_END)
        if not size:
            return L2Recovery()
        store.seek(0)
        header = store.read(_HEADER.size)
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
        # Each pass starts with the store positioned at ``offset``.
        while offset + _PREFIX.size <= size:  # else clean end or torn prefix
            rtype, token_len, payload_len, benefit, _crc = _PREFIX.unpack(
                store.read(_PREFIX.size)
            )
            if rtype not in _RECORD_TYPES:
                break  # unframeable: corrupt tail starts here
            end = offset + _PREFIX.size + token_len + payload_len
            if end > size:
                break  # torn record
            try:
                token = store.read(token_len).decode("utf-8")
            except UnicodeDecodeError:
                break
            store.seek(end)
            length = end - offset
            pages = self._pages_for(length)
            page_start = self.disk.allocate(pages)
            for page in range(page_start, page_start + pages):
                self.disk.read_page(page)
                self.stats.scan_pages += 1
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

        The backing file (or, for an in-memory log, its ``BytesIO``
        store — which survives exactly like a file would) is
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
        """Durably store ``payload`` under ``token``; returns pages written.

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
        record, stored = self._encode(_PUT, token, payload, benefit)
        self._ensure_open()
        pages = self._charge_write(record, kind="append")
        if stored is not record:
            self.stats.torn_writes += 1
        offset = self._end
        self._persist(stored)
        self._forget_extent(token)
        self._manifest[token] = _Extent(
            offset=offset,
            length=len(record),
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

        The record leaves the manifest *before* the tombstone is
        charged: a :class:`~repro.exceptions.DiskFault` from the write
        hook re-raises with the record dead in memory (its pages count
        as dead) but no tombstone in the file, so a restart scan
        resurrects it.
        """
        self._ensure_open()
        if not self._forget_extent(token):
            return False
        record, stored = self._encode(_TOMBSTONE, token, b"", 0.0)
        pages = self._charge_write(record, kind="tombstone")
        self._persist(stored)
        self._total_record_pages += pages
        return True

    def clear(self) -> int:
        """Drop every live record via one clear-all record (charged).

        As for :meth:`delete`, the manifest empties before the record
        is charged: a faulted clear re-raises with every record dead in
        memory, and a restart scan resurrects them.
        """
        self._ensure_open()
        dropped = len(self._manifest)
        self._manifest.clear()
        self._live_pages = 0
        self._live_bytes = 0
        record, stored = self._encode(_CLEAR, "", b"", 0.0)
        pages = self._charge_write(record, kind="clear")
        self._persist(stored)
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

        The live manifest is streamed *verbatim* (byte-for-byte, CRCs
        and all — a torn-but-framed record stays torn and still
        quarantines at read), one record at a time, from the store into
        a sidecar file, which is flushed and fsynced once and then
        atomically replaces the log via ``os.replace``.  Every copied
        record charges its pages as a read and again as a write on the
        accounting disk (``compact_read_pages`` /
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
        sidecar: BinaryIO = (
            io.BytesIO() if path is None else open(path + COMPACT_SUFFIX, "w+b")
        )
        new_manifest: dict[str, _Extent] = {}
        try:
            offset = sidecar.write(
                _HEADER.pack(CHUNKLOG_MAGIC, CHUNKLOG_VERSION, self.disk.page_size)
            )
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
                for page in range(
                    extent.page_start, extent.page_start + extent.pages
                ):
                    self.disk.read_page(page)
                    self.stats.compact_read_pages += 1
                store.seek(extent.offset)
                record = store.read(extent.length)
                pages = self._charge_compact_write(record)
                sidecar.write(record)
                new_manifest[token] = _Extent(
                    offset=offset,
                    length=extent.length,
                    payload_len=extent.payload_len,
                    benefit=extent.benefit,
                    page_start=self.disk.num_pages - pages,
                    pages=pages,
                )
                offset += extent.length
            if path is not None:
                sidecar.flush()
                os.fsync(sidecar.fileno())
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
        if path is not None:
            store.close()
            sidecar = open(path, "r+b")
        self._store = sidecar
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
        for page in range(extent.page_start, extent.page_start + extent.pages):
            self.disk.read_page(page)
            self.stats.read_pages += 1
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
        """Flush and close the backing file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.path is not None:
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
    ) -> tuple[bytes, bytes]:
        """Build ``(true_record, stored_record)`` — they differ only
        when the torn-write hook fires for a put."""
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
        record = b"".join((prefix, token_bytes, payload))
        stored = record
        if (
            rtype == _PUT
            and payload
            and self.torn_hook is not None
            and self.torn_hook(token)
        ):
            torn = bytearray(record)
            torn[-1] ^= 0xFF
            stored = bytes(torn)
        return record, stored

    def _charge_write(self, record: bytes, kind: str) -> int:
        """Allocate + write-charge the record's pages; updates counters."""
        pages = self._pages_for(len(record))
        first = self.disk.allocate(pages)
        written = 0
        try:
            for page in range(first, first + pages):
                self.disk.write_page(page, b"")
                written += 1
        finally:
            if kind == "append":
                self.stats.append_pages += written
                if written == pages:
                    self.stats.appends += 1
            elif kind == "tombstone":
                self.stats.tombstone_pages += written
                if written == pages:
                    self.stats.tombstones += 1
            else:
                self.stats.clear_pages += written
                if written == pages:
                    self.stats.clears += 1
        return pages

    def _charge_compact_write(self, record: bytes) -> int:
        """Allocate + write-charge one compacted record's pages."""
        pages = self._pages_for(len(record))
        first = self.disk.allocate(pages)
        written = 0
        try:
            for page in range(first, first + pages):
                self.disk.write_page(page, b"")
                written += 1
        finally:
            self.stats.compact_write_pages += written
        return pages

    def _persist(self, stored: bytes) -> None:
        self._store.seek(self._end)
        self._store.write(stored)
        self._store.flush()
        self._end += len(stored)

    def _verified_payload(self, token: str, extent: _Extent) -> memoryview:
        # One copy of the record out of the store; a short read (a file
        # cut behind the log's back) fails like a bad CRC.
        self._store.seek(extent.offset)
        record = memoryview(self._store.read(extent.length))
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
