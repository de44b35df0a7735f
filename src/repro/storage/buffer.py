"""A buffer pool with CLOCK replacement.

The backend reads pages through a :class:`BufferPool` rather than straight
off the :class:`~repro.storage.disk.SimulatedDisk`, mirroring the paper's
setup (an 8 MB buffer pool in front of a raw device).  Only pool *misses*
reach the disk and are counted as physical I/O, so repeated access to hot
pages is free — exactly the effect the paper's buffer pool has on its
measured times.

Replacement is the second-chance CLOCK algorithm, the same family the paper
uses for its cache replacement experiments (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.exceptions import BufferPoolError
from repro.storage.disk import SimulatedDisk

__all__ = ["BufferPoolStats", "BufferPool"]


@dataclass
class BufferPoolStats:
    """Hit/miss counters of a :class:`BufferPool`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total page requests."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over accesses (0.0 when never used)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class _Frame:
    __slots__ = ("page_id", "data", "referenced")

    def __init__(self, page_id: int, data: bytes) -> None:
        self.page_id = page_id
        self.data = data
        self.referenced = True


class BufferPool:
    """CLOCK-replaced page cache in front of a simulated disk.

    Args:
        disk: The backing disk.
        capacity_pages: Number of page frames; with the default 4 KiB pages,
            the paper's 8 MB pool is ``capacity_pages=2048``.
    """

    def __init__(self, disk: SimulatedDisk, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise BufferPoolError(
                f"buffer pool needs at least one frame, got {capacity_pages}"
            )
        self.disk = disk
        self.capacity = capacity_pages
        self.stats = BufferPoolStats()
        self._frames: list[_Frame] = []
        self._index: dict[int, int] = {}  # page_id -> frame position
        self._hand = 0

    def __len__(self) -> int:
        return len(self._frames)

    def contains(self, page_id: int) -> bool:
        """Whether a page is currently buffered (no side effects)."""
        return page_id in self._index

    def get_page(self, page_id: int) -> bytes:
        """Read a page through the pool.

        A hit returns the buffered copy; a miss reads from disk (one
        physical I/O), possibly evicting another frame via CLOCK.
        """
        pos = self._index.get(page_id)
        if pos is not None:
            self.stats.hits += 1
            frame = self._frames[pos]
            frame.referenced = True
            return frame.data
        self.stats.misses += 1
        data = self.disk.read_page(page_id)
        self._admit(page_id, data)
        return data

    def request_pages(self, page_ids: Iterable[int]) -> None:
        """Charge a run of page requests whose data the caller holds.

        :meth:`get_page` once per page, in order, so counters, reference
        bits, CLOCK hand, evictions and ``disk.read_page`` (with its
        fault hook) behave exactly as for single requests: a read fault
        on the k-th page leaves the first k-1 fully accounted and the
        k-th counted as a miss that served nothing.  The record files
        keep a decoded image of their pages and call this once per
        contiguous run — they need the accounting, not the bytes.
        """
        for page_id in page_ids:
            self.get_page(page_id)

    def put_page(self, page_id: int, data: bytes) -> None:
        """Write a page through the pool (write-through).

        The disk copy is updated immediately and the buffered copy (if any)
        is refreshed, so readers never see stale data.
        """
        self.disk.write_page(page_id, data)
        pos = self._index.get(page_id)
        if pos is not None:
            frame = self._frames[pos]
            frame.data = bytes(data)
            frame.referenced = True

    def flush(self) -> None:
        """Drop every buffered frame (counters are kept)."""
        self._frames.clear()
        self._index.clear()
        self._hand = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters."""
        self.stats = BufferPoolStats()

    # ------------------------------------------------------------------
    def _admit(self, page_id: int, data: bytes) -> None:
        if len(self._frames) < self.capacity:
            self._index[page_id] = len(self._frames)
            self._frames.append(_Frame(page_id, data))
            return
        pos = self._clock_victim()
        victim = self._frames[pos]
        del self._index[victim.page_id]
        self.stats.evictions += 1
        self._frames[pos] = _Frame(page_id, data)
        self._index[page_id] = pos

    def _clock_victim(self) -> int:
        # Second-chance sweep: clear reference bits until an unreferenced
        # frame is found.  Terminates within two sweeps.
        while True:
            frame = self._frames[self._hand]
            if frame.referenced:
                frame.referenced = False
                self._hand = (self._hand + 1) % self.capacity
            else:
                victim = self._hand
                self._hand = (self._hand + 1) % self.capacity
                return victim
