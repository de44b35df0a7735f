"""A simulated disk: page-addressed storage with exact I/O accounting.

The paper's performance results are driven by *which pages get read* (chunk
miss cost proportional to chunk size; multidimensional clustering cutting
bitmap-driven I/O).  :class:`SimulatedDisk` reproduces exactly that: a flat
array of fixed-size pages with counters for every read, write and
allocation.  Experiments measure cost as a function of these counters via
:class:`~repro.analysis.cost.CostModel` instead of wall-clock time, which
makes runs deterministic and hardware-independent (see DESIGN.md §2).

All record files (:mod:`repro.storage.factfile`,
:mod:`repro.storage.chunkedfile`) and indexes (:mod:`repro.storage.btree`,
:mod:`repro.storage.bitmap`) allocate their pages from one shared disk, so a
single counter captures the whole backend's I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.exceptions import PageError

__all__ = ["DiskStats", "SimulatedDisk"]

DEFAULT_PAGE_SIZE = 4096


@dataclass
class DiskStats:
    """Cumulative I/O counters of a :class:`SimulatedDisk`.

    ``fault_latency`` is extra *simulated* seconds charged by an injected
    slow-read fault (see :mod:`repro.faults`); it stays exactly ``0.0``
    unless a fault hook is installed, so fault-free accounting is
    bit-identical with or without the fault layer present.
    """

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    fault_latency: float = 0.0

    def copy(self) -> "DiskStats":
        """An independent snapshot of the counters."""
        return DiskStats(
            self.reads, self.writes, self.allocations, self.fault_latency
        )

    def delta(self, earlier: "DiskStats") -> "DiskStats":
        """Counter increments since an ``earlier`` snapshot."""
        return DiskStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            allocations=self.allocations - earlier.allocations,
            fault_latency=self.fault_latency - earlier.fault_latency,
        )


class SimulatedDisk:
    """Fixed-size pages addressed by integer page id.

    Args:
        page_size: Bytes per page (default 4096).

    Pages are allocated in order and never freed (the experiments build
    files once and then only read).  Reading an unwritten page returns a
    zero-filled page, like a freshly formatted device.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < 64:
            raise PageError(f"page size must be >= 64 bytes, got {page_size}")
        self.page_size = page_size
        self._pages: list[bytes | None] = []
        self.stats = DiskStats()
        # Fault-injection hooks (repro.faults installs them; production
        # code never does).  Called before a read/write is counted; may
        # raise a DiskFault, or return extra simulated latency in seconds.
        self.read_hook: Callable[[int], float] | None = None
        self.write_hook: Callable[[int], float] | None = None

    @property
    def num_pages(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)

    def allocate(self, count: int = 1) -> int:
        """Allocate ``count`` consecutive pages; returns the first page id."""
        if count < 1:
            raise PageError(f"cannot allocate {count} pages")
        first = len(self._pages)
        self._pages.extend([None] * count)
        self.stats.allocations += count
        return first

    def read_page(self, page_id: int) -> bytes:
        """Read one page (counted as one I/O).

        An installed ``read_hook`` runs first: a hook that raises aborts
        the read before any counter moves (a faulted read served no
        page); a hook that returns a positive latency charges that many
        simulated seconds to ``stats.fault_latency`` on top of the
        normal read count.
        """
        self._check(page_id)
        extra = 0.0
        if self.read_hook is not None:
            extra = self.read_hook(page_id)
        self.stats.reads += 1
        if extra > 0.0:
            self.stats.fault_latency += extra
        data = self._pages[page_id]
        if data is None:
            return bytes(self.page_size)
        return data

    def unhooked_pages(
        self, page_ids: Sequence[int]
    ) -> list[bytes | None] | None:
        """The page table, for a reader that counts its own reads.

        For :class:`~repro.storage.buffer.BufferPool`, which requests
        pages a run at a time: when no ``read_hook`` is installed and
        every id of the run is in range, reading ``table[page_id]``
        (``None`` stands for a never-written, zero-filled page) and
        adding one to ``stats.reads`` per page read is all that
        :meth:`read_page` would do, without a call per page.  Otherwise
        — and for an empty run — returns ``None``, and the reader calls
        :meth:`read_page` page by page.  The table is the disk's own:
        index it, never change it.
        """
        if (
            self.read_hook is not None
            or not page_ids
            or min(page_ids) < 0
            or max(page_ids) >= len(self._pages)
        ):
            return None
        return self._pages

    def stored_bytes(self, page_ids: Sequence[int]) -> bytes:
        """The stored contents of pages, joined in order, uncounted.

        For a reader that has already charged these pages (through a
        :class:`~repro.storage.buffer.BufferPool` run, which counted
        every physical read): a page holds exactly what was last written
        to it, so its bytes are taken from the page table instead of
        being copied out page by page.  A never-written page reads as
        ``page_size`` zero bytes, like :meth:`read_page`.
        """
        pages = self._pages
        zero = bytes(self.page_size)
        return b"".join([
            zero if (data := pages[page_id]) is None else data
            for page_id in page_ids
        ])

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write one page (counted as one I/O).

        ``data`` may be shorter than the page size (it is implicitly
        zero-padded) but never longer.

        An installed ``write_hook`` runs first, symmetric with
        ``read_hook``: a hook that raises aborts the write before any
        counter moves and before the page content changes (a faulted
        write stored nothing); a hook that returns a positive latency
        charges that many simulated seconds to ``stats.fault_latency``
        on top of the normal write count.
        """
        self._check(page_id)
        if len(data) > self.page_size:
            raise PageError(
                f"payload of {len(data)} bytes exceeds page size "
                f"{self.page_size}"
            )
        extra = 0.0
        if self.write_hook is not None:
            extra = self.write_hook(page_id)
        self.stats.writes += 1
        if extra > 0.0:
            self.stats.fault_latency += extra
        self._pages[page_id] = bytes(data)

    def charge_reads(self, first: int, count: int) -> None:
        """Charge reads of the ``count`` pages from ``first``, unread.

        For a reader that keeps its bytes elsewhere (the chunk log's
        file) and only owes the pages their I/O: with no ``read_hook``
        installed the run is counted at once; with one, page by page
        through :meth:`read_page`, so a fault at a page leaves exactly
        the pages before it charged and carries that page's id.
        """
        self._check_run(first, count)
        if self.read_hook is None:
            self.stats.reads += count
            return
        for page_id in range(first, first + count):
            self.read_page(page_id)

    def charge_writes(self, first: int, count: int) -> None:
        """Charge empty-page writes of the ``count`` pages from ``first``.

        What ``write_page(page_id, b"")`` does to each page of the run,
        with the same split as :meth:`charge_reads`: one count for the
        run with no ``write_hook`` installed, page by page with one.
        """
        self._check_run(first, count)
        if self.write_hook is None:
            self.stats.writes += count
            self._pages[first : first + count] = [b""] * count
            return
        for page_id in range(first, first + count):
            self.write_page(page_id, b"")

    def reset_stats(self) -> None:
        """Zero all I/O counters (allocation history is kept)."""
        self.stats = DiskStats()

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise PageError(
                f"page id {page_id} out of range 0..{len(self._pages) - 1}"
            )

    def _check_run(self, first: int, count: int) -> None:
        if count < 1 or first < 0 or first + count > len(self._pages):
            raise PageError(
                f"page run {first}..{first + count - 1} out of range "
                f"0..{len(self._pages) - 1}"
            )

