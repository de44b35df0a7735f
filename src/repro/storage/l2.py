"""The L2 backend contract: what a persistent cache tier must provide.

The persistent tier sits behind a *contract*: :class:`L2Backend` is the
structural protocol a durable record store must satisfy to slot in
behind :class:`~repro.core.tiered.TieredChunkCache`, and
``tests/storage/l2_contract.py`` is the executable half of the contract
— a conformance battery any backend must pass (see ``docs/TIERING.md``
§Backends).

One implementation ships in-tree:
:class:`~repro.storage.chunklog.ChunkLog`, the checksummed, compactable
append-only log.  The protocol is the typed seam a substitute goes
through — today the benchmark's tracing proxy.

The accounting rules a backend must obey:

- **One private accounting disk.**  All backend I/O is charged through
  the backend's own :class:`~repro.storage.disk.SimulatedDisk` at
  ``ceil(record_len / page_size)`` pages per logical record, where
  ``record_len`` is the canonical framed size
  (:func:`record_length`) — stated here, independently of the store,
  so the conformance kit checks the store's page charges against it
  and the deterministic economics the chaos digests pin cannot drift
  with the physical layout.
- **Exact conservation.**  The backend's logical page counters must
  reconcile with the accounting disk to the page, even across faulted
  partial operations — :func:`check_l2_conservation` states the
  identity once::

      disk.writes == append + tombstone + clear + compact_write pages
      disk.reads  == read + scan + compact_read pages
      live_bytes  == sum of the live records' payload lengths

- **Fault points.**  ``write_hook`` / ``read_hook`` run before each
  page transfer is counted and may raise
  :class:`~repro.exceptions.DiskFault` (aborting the operation;
  already-charged pages stay charged); ``torn_hook`` may corrupt one
  put's stored bytes while the stored CRC still covers the originals,
  so the corruption is *detected* at the next read.  Backends never
  install hooks themselves (reprolint R006).

Construction of the backend is confined to the :mod:`repro.api`
facade and its defining module (reprolint R011) — a backend owns
single-writer durable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from repro.exceptions import InvariantViolation
from repro.storage.disk import SimulatedDisk

__all__ = [
    "L2Backend",
    "L2Recovery",
    "L2Stats",
    "check_l2_conservation",
    "record_length",
    "RECORD_OVERHEAD",
]

#: Fixed framing bytes of one canonical record: type (u8) + token_len
#: (u16) + payload_len (u32) + benefit (f64) + crc32 (u32).  A backend
#: charges pages for this frame plus token plus payload.
RECORD_OVERHEAD = 19


def record_length(token: str, payload: bytes = b"") -> int:
    """Canonical framed byte length of one record.

    The charging currency of the tier: pages per operation
    are ``ceil(record_length(...) / page_size)`` regardless of how the
    store physically lays the record out.
    """
    return RECORD_OVERHEAD + len(token.encode("utf-8")) + len(payload)


@dataclass
class L2Stats:
    """Cumulative logical counters of one L2 backend.

    Page counters count *successful* page transfers only, one per
    accounting-disk page actually charged — so they reconcile exactly
    with the disk even when a fault hook aborts an operation partway
    through a multi-page record (see :func:`check_l2_conservation`).
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
    """What a backend found (and discarded) while opening.

    Attributes:
        records: Well-framed records replayed from durable state.
        live_entries: Tokens live in the manifest after replay.
        truncated_bytes: Tail bytes discarded as torn/unframeable
            (always ``0`` for transactional stores).
        header_reset: Durable state was unreadable and the backend
            reset itself to a fresh empty store.
    """

    records: int = 0
    live_entries: int = 0
    truncated_bytes: int = 0
    header_reset: bool = False


@runtime_checkable
class L2Backend(Protocol):
    """Structural contract of a persistent cache tier.

    Semantics every implementation must honor (the conformance kit in
    ``tests/storage/l2_contract.py`` executes these):

    - :meth:`put` stores ``payload`` under ``token`` durably,
      last-write-wins, and returns the pages charged; a
      :class:`~repro.exceptions.DiskFault` from ``write_hook`` aborts
      the put with the manifest unchanged (charged pages stay charged).
    - :meth:`get` is a charged, CRC-verified read of a live token;
      :meth:`peek` is the uncharged, hook-free variant.  Both return
      the payload as an immutable bytes-like object (``bytes`` or a
      read-only ``memoryview``) that stays valid across later writes.
      Corrupt bytes
      raise :class:`~repro.exceptions.ChunkLogCorruption`, a token
      that is not live :class:`~repro.exceptions.ChunkLogError`.
    - :meth:`delete` durably drops a live token (charged);
      :meth:`drop` removes it from the in-memory manifest only
      (quarantine).  :meth:`clear` durably drops everything.
    - :meth:`scan_keys` lists live ``(token, benefit, payload_len)``
      in (re-)insertion order — deterministic.
    - :meth:`reopen` simulates a restart: in-memory state is rebuilt
      from durable state alone (charging one scan read per record
      page) and the backend is usable again even after :meth:`close`.
    - :meth:`compact` reclaims dead space where the layout produces
      any; stores that update in place return ``0``.  After a
      successful compaction ``counters()["dead_pages"] == 0``.
    - :meth:`counters` reports the space gauges the tiered cache
      surfaces per tier: ``live_pages``, ``dead_pages``,
      ``compactions``, ``reclaimed_pages``.
    """

    path: str | None
    disk: SimulatedDisk
    stats: L2Stats
    recovery: L2Recovery
    torn_hook: Callable[[str], bool] | None
    compact_hook: Callable[[int], bool] | None

    @property
    def write_hook(self) -> Callable[[int], float] | None: ...

    @write_hook.setter
    def write_hook(self, hook: Callable[[int], float] | None) -> None: ...

    @property
    def read_hook(self) -> Callable[[int], float] | None: ...

    @read_hook.setter
    def read_hook(self, hook: Callable[[int], float] | None) -> None: ...

    def put(self, token: str, payload: bytes, benefit: float) -> int: ...

    def get(self, token: str) -> bytes | memoryview: ...

    def peek(self, token: str) -> bytes | memoryview: ...

    def delete(self, token: str) -> bool: ...

    def drop(self, token: str) -> bool: ...

    def clear(self) -> int: ...

    def scan_keys(self) -> tuple[tuple[str, float, int], ...]: ...

    def tokens(self) -> tuple[str, ...]: ...

    def benefit(self, token: str) -> float: ...

    def pages_for(self, token: str) -> int: ...

    def reopen(self) -> L2Recovery: ...

    def compact(self) -> int: ...

    def counters(self) -> dict[str, int]: ...

    def close(self) -> None: ...

    def __contains__(self, token: str) -> bool: ...

    def __len__(self) -> int: ...

    @property
    def live_bytes(self) -> int: ...


def check_l2_conservation(backend: L2Backend) -> None:
    """Exact page reconciliation between a backend and its disk.

    The one conservation identity every backend must satisfy at every
    quiescent point — spills, promotions, tombstones, restart scans
    and compactions account for every page, including pages charged by
    operations a fault later aborted — plus the running ``live_bytes``
    gauge against the manifest it summarises.
    """
    stats = backend.stats
    disk = backend.disk.stats
    written = (
        stats.append_pages
        + stats.tombstone_pages
        + stats.clear_pages
        + stats.compact_write_pages
    )
    if written != disk.writes:
        raise InvariantViolation(
            f"L2 write pages diverged: ops account for {written} pages, "
            f"disk counted {disk.writes}"
        )
    read = stats.read_pages + stats.scan_pages + stats.compact_read_pages
    if read != disk.reads:
        raise InvariantViolation(
            f"L2 read pages diverged: ops account for {read} pages, "
            f"disk counted {disk.reads}"
        )
    live = sum(size for _token, _benefit, size in backend.scan_keys())
    if live != backend.live_bytes:
        raise InvariantViolation(
            f"L2 live-byte gauge diverged: the manifest holds {live} "
            f"payload bytes, the gauge reads {backend.live_bytes}"
        )
