"""The fact file: slot-free fixed-length record storage [RJZN97].

The paper stores the fact table in a *fact file*, a relational file
optimized for fixed-length fact-table records: no slot directory, a
deterministic number of records per page, and a fast path for *skipped
sequential access* (fetching an ascending list of record positions while
reading each page at most once).

:class:`FactFile` is every record file of the backend: the chunked
file's clustered storage, the randomly ordered baseline of the paper's
bitmap experiment (Figure 14 — records in arrival order, so the *only*
difference between the two organizations is record order, exactly the
variable the paper isolates), and the engine's delta region.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import FileFormatError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import PackedPage
from repro.storage.record import Columns, RecordFormat

__all__ = ["FactFile"]


class FactFile:
    """An append-only file of fixed-length records with positional reads.

    Records are stored in :class:`~repro.storage.page.PackedPage` pages
    in load order; contiguous range reads are what give chunked storage
    its "cost proportional to chunk size" property.

    Args:
        disk: Backing disk (pages are allocated from it).
        record_format: Layout of every record.
        buffer_pool: Optional pool reads go through; when None, reads hit
            the disk directly.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        record_format: RecordFormat,
        buffer_pool: BufferPool | None = None,
    ) -> None:
        self.disk = disk
        self.record_format = record_format
        self.buffer_pool = buffer_pool
        self.codec = PackedPage(record_format, disk.page_size)
        # Disk page ids in file order, as an array so page numbers map to
        # page ids with one ``take``.
        self._page_ids = np.zeros(0, dtype=np.int64)
        # Whether every page but the last is full, i.e. whether
        # ``position // capacity`` is the page of a record.
        self._dense = True
        # The decoded image of the file: every record, in file order, as
        # one read-only array per field (``Columns``).  Pages are
        # immutable once loaded, so reads are views of it; the simulated
        # disk still holds the encoded pages and every logical access
        # still requests its pages from the buffer pool / disk
        # (``_charge``).
        self._image = Columns.from_records(record_format.empty())

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        """Total records in the file."""
        return len(self._image)

    @property
    def num_pages(self) -> int:
        """Pages occupied by the file."""
        return len(self._page_ids)

    @property
    def records_per_page(self) -> int:
        """Page capacity in records."""
        return self.codec.capacity

    @property
    def page_ids(self) -> tuple[int, ...]:
        """Disk page ids in file order."""
        return tuple(self._page_ids.tolist())

    def _require_dense(self) -> None:
        """Refuse position -> page arithmetic on a file it is wrong for."""
        if not self._dense:
            raise FileFormatError(
                "positional access needs every page but the last to be "
                "full; this file was loaded in several batches and has a "
                "partial interior page (read_all() still works)"
            )

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def bulk_load(self, records: np.ndarray) -> None:
        """Append a structured array of records, filling pages densely.

        Each call starts on a fresh page, so a file loaded in several
        batches may keep a partial interior page; such a file can be
        read whole but not addressed by record position.
        """
        if records.dtype != self.record_format.dtype:
            raise FileFormatError(
                f"array dtype {records.dtype} does not match file format "
                f"{self.record_format.dtype}"
            )
        if not len(records):
            return
        capacity = self.codec.capacity
        base = len(self._image)
        page_ids: list[int] = []
        for start in range(0, len(records), capacity):
            page_id = self.disk.allocate()
            self.disk.write_page(
                page_id, self.codec.encode(records[start:start + capacity])
            )
            page_ids.append(page_id)
        # The one whole-table copy of a load, column by column: the
        # image never aliases the caller's array.
        image = self._image.append(records)
        # Commit only once every page is written (a write may fault).
        if base % capacity:
            self._dense = False
        self._page_ids = np.concatenate(
            [self._page_ids, np.asarray(page_ids, dtype=np.int64)]
        )
        self._image = image

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _charge(self, page_ids: list[int]) -> None:
        """Request pages, in order, from the buffer pool (or the disk)."""
        if self.buffer_pool is not None:
            self.buffer_pool.request_pages(page_ids)
        else:
            for page_id in page_ids:
                self.disk.read_page(page_id)

    def read_all(self) -> Columns:
        """The whole file's columns (reads every page).

        Like every read of this file, the result is read-only (here the
        file's image itself); callers must copy before mutating.
        """
        self._charge(self._page_ids.tolist())
        return self._image

    def read_positions(self, positions: np.ndarray) -> Columns:
        """Fetch records by global position (ascending order required).

        Reads each distinct page exactly once — the *skipped sequential
        access* pattern of the paper's fact file.  The number of physical
        I/Os therefore equals the number of distinct pages touched, which
        is the quantity the bitmap experiment measures.
        """
        self._require_dense()
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) == 0:
            return self._image.spans(())
        if np.any(positions[1:] < positions[:-1]):
            raise FileFormatError("positions must be sorted ascending")
        if positions[0] < 0 or positions[-1] >= len(self._image):
            raise FileFormatError(
                f"positions out of range 0..{len(self._image) - 1}"
            )
        pages = positions // self.codec.capacity
        self._charge(self._page_ids.take(_distinct(pages)).tolist())
        return self._image.take(positions)

    def count_pages_for_positions(self, positions: np.ndarray) -> int:
        """Distinct pages a position set would touch, without reading."""
        self._require_dense()
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) == 0:
            return 0
        pages = positions // self.codec.capacity
        if np.any(pages[1:] < pages[:-1]):
            pages = np.sort(pages)
        return len(_distinct(pages))

    def read_ranges(self, ranges: Sequence[tuple[int, int]]) -> Columns:
        """The records of each ``(start, count)`` in turn, as one read.

        Each range requests exactly the pages it spans, in file order;
        the requests of all ranges go to the buffer pool as one run, so
        ``p`` pages cost ``p`` requests (fewer physical reads with a warm
        pool).  A range the file cannot serve raises before any page is
        requested.  The result is read-only: a view of the image for one
        range, one copy per field for several.
        """
        self._require_dense()
        capacity = self.codec.capacity
        image = self._image
        page_ids: list[int] = []
        bounds: list[tuple[int, int]] = []
        for start, count in ranges:
            if count < 0:
                raise FileFormatError(f"negative record count {count}")
            if count == 0:
                continue
            if not 0 <= start or start + count > len(image):
                raise FileFormatError(
                    f"range [{start}, {start + count}) out of file bounds "
                    f"[0, {len(image)})"
                )
            first_page = start // capacity
            last_page = (start + count - 1) // capacity
            page_ids += self._page_ids[first_page:last_page + 1].tolist()
            bounds.append((start, start + count))
        self._charge(page_ids)
        return image.spans(bounds)

    def pages_for_range(self, start: int, count: int) -> int:
        """Pages a positional range read would touch, without reading."""
        self._require_dense()
        if count <= 0:
            return 0
        capacity = self.codec.capacity
        first_page = start // capacity
        last_page = (start + count - 1) // capacity
        return last_page - first_page + 1


def _distinct(pages: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty ascending array, in order."""
    first = np.empty(len(pages), dtype=bool)
    first[0] = True
    np.not_equal(pages[1:], pages[:-1], out=first[1:])
    return pages[first]
