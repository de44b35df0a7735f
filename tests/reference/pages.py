"""Record files and bitmap indexes that store their page bytes.

The backend's fact file and bitmap index charge their pages and keep
no page bytes: reads are served from the fact file's column image.
The references here are the paths that wrote encoded pages onto the
disk and read them back one page at a time.  A test loads one of
these on a twin disk and pool and holds the backend to the same page
ids, counters, pool state and records or masks.

:class:`PackedPage` is the fact file's page codec [RJZN97]:
fixed-length records back to back after a 4-byte record count, with no
slot array, so the number of records per page is maximal and
deterministic.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import PageError

_COUNT = struct.Struct("<I")


class PackedPage:
    """Codec for pages of back-to-back fixed-length records.

    Layout: ``[record_count: u32][record 0][record 1]...`` with zero
    padding at the end.
    """

    HEADER_SIZE = _COUNT.size

    def __init__(self, record_format, page_size):
        self.record_format = record_format
        self.page_size = page_size
        self.capacity = record_format.records_per_page(
            page_size, header_size=self.HEADER_SIZE
        )

    def encode(self, records):
        """Serialize up to ``capacity`` records into one page payload."""
        if len(records) > self.capacity:
            raise PageError(
                f"{len(records)} records exceed page capacity {self.capacity}"
            )
        return _COUNT.pack(len(records)) + self.record_format.pack(records)

    def decode(self, payload):
        """Deserialize a page payload into a structured array."""
        if len(payload) < self.HEADER_SIZE:
            raise PageError("page payload shorter than its header")
        (count,) = _COUNT.unpack_from(payload)
        if count > self.capacity:
            raise PageError(
                f"page claims {count} records, capacity is {self.capacity}"
            )
        return self.record_format.unpack(payload[self.HEADER_SIZE:], count)


class PagedFactFile:
    """A fact file that writes its encoded pages and reads them back.

    ``bulk_load`` allocates the batch's pages in one run and writes them
    in order, one encoded page each; every read fetches its pages one at
    a time (``get_page`` through the pool, ``read_page`` without one),
    decodes, slices and concatenates.  It has what ``ChunkedFile`` asks
    of its fact file at load, so it can stand in for one.
    """

    def __init__(self, disk, record_format, buffer_pool=None):
        self.disk = disk
        self.record_format = record_format
        self.buffer_pool = buffer_pool
        self.codec = PackedPage(record_format, disk.page_size)
        self.page_ids = []
        self.num_records = 0

    @property
    def num_pages(self):
        return len(self.page_ids)

    def bulk_load(self, records):
        capacity = self.codec.capacity
        count = -(-len(records) // capacity)
        if not count:
            return
        first = self.disk.allocate(count)
        for page in range(count):
            self.disk.write_page(
                first + page,
                self.codec.encode(
                    records[page * capacity:(page + 1) * capacity]
                ),
            )
        self.page_ids += range(first, first + count)
        self.num_records += len(records)

    def pages_for_range(self, start, count):
        capacity = self.codec.capacity
        return (start + count - 1) // capacity - start // capacity + 1

    def page(self, index):
        page_id = self.page_ids[index]
        if self.buffer_pool is not None:
            payload = self.buffer_pool.get_page(page_id)
        else:
            payload = self.disk.read_page(page_id)
        return self.codec.decode(payload)

    def read_all(self):
        pages = [self.page(i) for i in range(self.num_pages)]
        if not pages:
            return self.record_format.empty()
        return np.concatenate(pages)

    def read_range(self, start, count):
        capacity = self.codec.capacity
        parts = []
        last = (start + count - 1) // capacity
        for index in range(start // capacity, last + 1):
            records = self.page(index)
            lo = max(start - index * capacity, 0)
            hi = min(start + count - index * capacity, len(records))
            parts.append(records[lo:hi])
        return np.concatenate(parts)

    def read_positions(self, positions):
        capacity = self.codec.capacity
        positions = np.asarray(positions, dtype=np.int64)
        pages = positions // capacity
        parts = []
        for index in np.unique(pages):
            records = self.page(int(index))
            parts.append(records[positions[pages == index] % capacity])
        return np.concatenate(parts)


class PagedBitmaps:
    """Bitmap pages packed per value, written, and read one at a time.

    The build allocates ``cardinality * pages_per_bitmap`` pages in one
    run and writes them in page-id order — value after value, each
    value's ``np.packbits(column == v)`` page after page — so page ``b``
    of value ``v`` is ``first + v * pages_per_bitmap + b``.  A selection
    reads each value's pages with ``get_page`` (``read_page`` without a
    pool), unpacks them and ORs the rows in value by value.
    """

    def __init__(self, disk, column, cardinality, buffer_pool=None):
        self.disk = disk
        self.buffer_pool = buffer_pool
        self.num_records = len(column)
        page_size = disk.page_size
        self.pages_per_bitmap = -(-(-(-len(column) // 8)) // page_size)
        per = self.pages_per_bitmap
        self.first = disk.allocate(cardinality * per)
        self.page_ids = [
            list(range(self.first + v * per, self.first + (v + 1) * per))
            for v in range(cardinality)
        ]
        for value in range(cardinality):
            bits = np.packbits(column == value)
            for page, page_id in enumerate(self.page_ids[value]):
                disk.write_page(
                    page_id,
                    bits[page * page_size:(page + 1) * page_size].tobytes(),
                )

    def _read(self, page_id):
        if self.buffer_pool is not None:
            return self.buffer_pool.get_page(page_id)
        return self.disk.read_page(page_id)

    def select(self, values):
        result = np.zeros(self.num_records, dtype=bool)
        for value in values:
            raw = b"".join(self._read(pid) for pid in self.page_ids[value])
            packed = np.frombuffer(raw, dtype=np.uint8)
            result |= np.unpackbits(packed)[:self.num_records].astype(bool)
        return result
