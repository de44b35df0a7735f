"""The page codec of the record files.

:class:`PackedPage` is the layout of the paper's *fact file* [RJZN97]:
fixed-length records stored back to back after a 4-byte record count.
There is no slot array, so the number of records per page is maximal and
deterministic, which is what makes chunk -> page-range arithmetic exact.

The codec is a pure function over ``bytes``; persistence and I/O counting
live in :class:`~repro.storage.disk.SimulatedDisk`.  (B-tree nodes have a
fixed layout of their own, in :mod:`repro.storage.btree`.)
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import PageError
from repro.storage.record import RecordFormat

__all__ = ["PackedPage"]

_COUNT = struct.Struct("<I")


class PackedPage:
    """Codec for pages of back-to-back fixed-length records.

    Layout: ``[record_count: u32][record 0][record 1]...`` with zero padding
    at the end.  All methods are static-style helpers bound to a record
    format and page size.
    """

    HEADER_SIZE = _COUNT.size

    def __init__(self, record_format: RecordFormat, page_size: int) -> None:
        self.record_format = record_format
        self.page_size = page_size
        self.capacity = record_format.records_per_page(
            page_size, header_size=self.HEADER_SIZE
        )

    def encode(self, records: np.ndarray) -> bytes:
        """Serialize up to ``capacity`` records into one page payload."""
        if len(records) > self.capacity:
            raise PageError(
                f"{len(records)} records exceed page capacity {self.capacity}"
            )
        body = self.record_format.pack(records)
        return _COUNT.pack(len(records)) + body

    def decode(self, payload: bytes) -> np.ndarray:
        """Deserialize a page payload into a structured array.

        Reads go through the files' decoded image instead; this is the
        per-page decoder the image is tested against.
        """
        if len(payload) < self.HEADER_SIZE:
            raise PageError("page payload shorter than its header")
        (count,) = _COUNT.unpack_from(payload)
        if count > self.capacity:
            raise PageError(
                f"page claims {count} records, capacity is {self.capacity}"
            )
        return self.record_format.unpack(payload[self.HEADER_SIZE:], count)
