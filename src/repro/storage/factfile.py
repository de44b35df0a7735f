"""The fact file: slot-free fixed-length record storage [RJZN97].

The paper stores the fact table in a *fact file*, a relational file
optimized for fixed-length fact-table records: no slot directory, a
deterministic number of records per page, and a fast path for *skipped
sequential access* (fetching an ascending list of record positions while
reading each page at most once).

:class:`FactFile` extends :class:`~repro.storage.heapfile.HeapFile` with
range reads by record position — the primitive the chunked file uses to
fetch one chunk as a contiguous page interval — and convenience column
accessors used when building bitmap indexes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import FileFormatError
from repro.storage.heapfile import HeapFile

__all__ = ["FactFile"]


class FactFile(HeapFile):
    """Fixed-length record file with positional range reads.

    Inherits the dense :class:`~repro.storage.page.PackedPage` layout and
    all scan/positional reads from :class:`HeapFile`; adds contiguous range
    access, which is what gives chunked storage its "cost proportional to
    chunk size" property.
    """

    def read_range(self, start: int, count: int) -> np.ndarray:
        """Read ``count`` records starting at global position ``start``.

        Requests exactly the spanned pages, in file order: for a range
        lying in ``p`` pages, ``p`` page requests (fewer physical reads
        with a warm buffer pool).  The result is a read-only view of the
        file's image.
        """
        return self.read_ranges([(start, count)])[0]

    def read_ranges(
        self, ranges: Sequence[tuple[int, int]]
    ) -> list[np.ndarray]:
        """:meth:`read_range` of each ``(start, count)``, in order.

        The page requests are the ones the single reads would make, in
        the same order, handed to the buffer pool as one run; a range
        the file cannot serve raises before any page is requested.
        """
        self._require_dense()
        capacity = self.codec.capacity
        image = self._image
        page_ids: list[int] = []
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
            page_ids += self._page_ids[first_page:last_page + 1]
        self._charge(page_ids)
        return [
            image[start:start + count] if count else self.record_format.empty()
            for start, count in ranges
        ]

    def pages_for_range(self, start: int, count: int) -> int:
        """Pages a positional range read would touch, without reading."""
        self._require_dense()
        if count <= 0:
            return 0
        capacity = self.codec.capacity
        first_page = start // capacity
        last_page = (start + count - 1) // capacity
        return last_page - first_page + 1

    def column(self, name: str) -> np.ndarray:
        """One whole column of the file (reads every page).

        Used when bulk-building bitmap indexes; per-column storage is not
        modelled (the paper's bitmaps are built offline too).
        """
        if name not in self.record_format.field_names:
            raise FileFormatError(
                f"no field {name!r} in {self.record_format!r}"
            )
        return self.read_all()[name]
