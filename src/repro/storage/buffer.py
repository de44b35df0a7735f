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
from typing import Sequence

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
        physical I/O), possibly evicting another frame via CLOCK.  The
        one-page case of :meth:`request_pages`.
        """
        self.request_pages((page_id,))
        return self._frames[self._index[page_id]].data

    def request_pages(self, page_ids: Sequence[int]) -> None:
        """Request a run of pages, in order; the caller needs no bytes.

        Page by page this does what a buffer pool does — a hit sets the
        frame's reference bit, a miss is one physical read and takes a
        free frame or the CLOCK victim's — but the run is one loop over
        local names, and the state it moves (counters, CLOCK hand) is
        written back once, in a ``finally``: a read fault on the k-th
        page leaves the first k-1 fully accounted and the k-th counted
        as a miss that served nothing.  The record files keep a decoded
        image of their pages and call this once per contiguous run.

        A miss takes its bytes from :meth:`SimulatedDisk.unhooked_pages`
        and counts the read here; when that declines — a ``read_hook``
        is installed, or an id is out of range — every miss is a
        ``disk.read_page`` call, so fault injection and the range error
        stay per page.
        """
        disk = self.disk
        pages = disk.unhooked_pages(page_ids)
        index = self._index
        frames = self._frames
        capacity = self.capacity
        hand = self._hand
        hits = misses = evictions = reads = 0
        try:
            for page_id in page_ids:
                pos = index.get(page_id)
                if pos is not None:
                    hits += 1
                    frames[pos].referenced = True
                    continue
                misses += 1
                if pages is None:
                    data = disk.read_page(page_id)
                else:
                    stored = pages[page_id]
                    data = bytes(disk.page_size) if stored is None else stored
                    reads += 1
                if len(frames) < capacity:
                    index[page_id] = len(frames)
                    frames.append(_Frame(page_id, data))
                    continue
                # Second-chance sweep: clear reference bits up to the
                # first unreferenced frame (at most two turns), whose
                # frame object the new page takes over.
                frame = frames[hand]
                while frame.referenced:
                    frame.referenced = False
                    hand = (hand + 1) % capacity
                    frame = frames[hand]
                del index[frame.page_id]
                evictions += 1
                frame.page_id = page_id
                frame.data = data
                frame.referenced = True
                index[page_id] = hand
                hand = (hand + 1) % capacity
        finally:
            self._hand = hand
            stats = self.stats
            stats.hits += hits
            stats.misses += misses
            stats.evictions += evictions
            disk.stats.reads += reads

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
