"""Unordered heap files of fixed-length records.

:class:`HeapFile` is the baseline "randomly ordered file" of the paper's
bitmap experiment (Figure 14): records are stored in arrival order with no
clustering.  It shares the :class:`~repro.storage.page.PackedPage` layout
with :class:`~repro.storage.factfile.FactFile` so that the *only* difference
between the two organizations in the experiments is record order — exactly
the variable the paper isolates.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import FileFormatError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import PackedPage
from repro.storage.record import RecordFormat

__all__ = ["HeapFile"]


class HeapFile:
    """An append-only unordered file of fixed-length records.

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
        self._page_ids: list[int] = []
        # Position of each page's first record, then the record count.
        self._page_starts: list[int] = [0]
        # Whether every page but the last is full, i.e. whether
        # ``position // capacity`` is the page of a record.
        self._dense = True
        # The decoded image of the file: every record, in file order, as
        # one read-only array.  Pages are immutable once loaded, so reads
        # are views of it; the simulated disk still holds the encoded
        # pages and every logical access still requests its pages, one by
        # one, from the buffer pool / disk (``_charge``).
        self._image = record_format.empty()
        self._image.flags.writeable = False

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
        return tuple(self._page_ids)

    def page_of_record(self, position: int) -> int:
        """File-relative page index holding global record ``position``."""
        self._require_dense()
        if not 0 <= position < len(self._image):
            raise FileFormatError(
                f"record position {position} out of range "
                f"0..{len(self._image) - 1}"
            )
        return position // self.codec.capacity

    def _require_dense(self) -> None:
        """Refuse position -> page arithmetic on a file it is wrong for."""
        if not self._dense:
            raise FileFormatError(
                "positional access needs every page but the last to be "
                "full; this file was loaded in several batches and has a "
                "partial interior page (scan() / read_all() still work)"
            )

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def bulk_load(self, records: np.ndarray) -> None:
        """Append a structured array of records, filling pages densely.

        Each call starts on a fresh page, so a file loaded in several
        batches may keep a partial interior page; such a file can be
        scanned but not addressed by record position.
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
        page_stops: list[int] = []
        for start in range(0, len(records), capacity):
            batch = records[start:start + capacity]
            page_id = self.disk.allocate()
            self.disk.write_page(page_id, self.codec.encode(batch))
            page_ids.append(page_id)
            page_stops.append(base + start + len(batch))
        # The one whole-table copy of a load: the image never aliases the
        # caller's array.
        image = self.record_format.concatenate([self._image, records])
        image.flags.writeable = False
        # Commit only once every page is written (a write may fault).
        if base % capacity:
            self._dense = False
        self._page_ids.extend(page_ids)
        self._page_starts.extend(page_stops)
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

    def read_file_page(self, index: int) -> np.ndarray:
        """The records of the ``index``-th page of the file.

        Like every read of this file, the result is a read-only array
        (here a view of the file's image); callers must copy before
        mutating.
        """
        if not 0 <= index < len(self._page_ids):
            raise FileFormatError(
                f"file page {index} out of range 0..{len(self._page_ids) - 1}"
            )
        self._charge(self._page_ids[index:index + 1])
        return self._image[
            self._page_starts[index]:self._page_starts[index + 1]
        ]

    def scan(self) -> Iterator[np.ndarray]:
        """Full scan, one structured array per page."""
        for index in range(len(self._page_ids)):
            yield self.read_file_page(index)

    def read_all(self) -> np.ndarray:
        """The whole file as one structured array (reads every page)."""
        self._charge(self._page_ids)
        return self._image

    def read_positions(self, positions: np.ndarray) -> np.ndarray:
        """Fetch records by global position (ascending order required).

        Reads each distinct page exactly once — the *skipped sequential
        access* pattern of the paper's fact file.  The number of physical
        I/Os therefore equals the number of distinct pages touched, which
        is the quantity the bitmap experiment measures.
        """
        self._require_dense()
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) == 0:
            return self.record_format.empty()
        if np.any(positions[1:] < positions[:-1]):
            raise FileFormatError("positions must be sorted ascending")
        if positions[0] < 0 or positions[-1] >= len(self._image):
            raise FileFormatError(
                f"positions out of range 0..{len(self._image) - 1}"
            )
        page_ids = self._page_ids
        self._charge([
            page_ids[index]
            for index in np.unique(positions // self.codec.capacity).tolist()
        ])
        records = self._image[positions]
        records.flags.writeable = False
        return records

    def count_pages_for_positions(self, positions: np.ndarray) -> int:
        """Distinct pages a position set would touch, without reading."""
        self._require_dense()
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) == 0:
            return 0
        return int(len(np.unique(positions // self.codec.capacity)))
