"""Bitmap indexes on fact-table dimension columns.

OLAP backends speed up star-join selections with bitmap indexes (Section
4.2): one bitmap per distinct dimension value, AND/OR-combined into a
result bitmap whose set bits are the qualifying record positions.  The
paper's Figure 14 measures how the *file organization* (random vs chunked)
changes the number of data pages those positions touch.

:class:`BitmapIndex` stores one packed bitmap per distinct value of one
column, laid out on simulated-disk pages so that reading bitmaps costs
(simulated) I/O just like reading data pages does.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import IndexError_
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

__all__ = ["BitmapIndex"]


class BitmapIndex:
    """One bitmap per distinct value of an integer column.

    The bitmap of value ``v`` is ``pages_per_bitmap`` consecutive pages,
    and value ``v + 1``'s follow it: page ``b`` of value ``v`` is page
    id ``first + v * pages_per_bitmap + b``.  Reads charge those pages
    through the buffer pool in value order, one request per selection
    (DESIGN.md §2.1).

    Args:
        disk: Disk the bitmap pages live on.
        num_records: Length of every bitmap in bits.
        cardinality: Number of distinct values (``0 .. cardinality - 1``).
        buffer_pool: Optional pool bitmap reads go through.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        num_records: int,
        cardinality: int,
        buffer_pool: BufferPool | None = None,
    ) -> None:
        if num_records < 1:
            raise IndexError_("bitmap index needs at least one record")
        if cardinality < 1:
            raise IndexError_("bitmap index needs at least one value")
        self.disk = disk
        self.buffer_pool = buffer_pool
        self.num_records = num_records
        self.cardinality = cardinality
        self.bytes_per_bitmap = math.ceil(num_records / 8)
        self.pages_per_bitmap = math.ceil(self.bytes_per_bitmap / disk.page_size)
        self._first_page: int | None = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        disk: SimulatedDisk,
        column: np.ndarray,
        cardinality: int,
        buffer_pool: BufferPool | None = None,
    ) -> "BitmapIndex":
        """Build an index from a full column of values in record order.

        Bits are set by address, a block of ``page_size * 8`` records at
        a time: record ``i`` of value ``v`` is bit ``128 >> i % 8`` of
        byte ``i // 8`` of row ``v`` of a scratch holding one page per
        value, and the block's page of every value is written from that
        scratch.  The pages and their ids are those of packing
        ``column == v`` value by value.

        Raises:
            IndexError_: If a value lies outside ``0 .. cardinality - 1``
                (it would set a bit in another value's row).
        """
        column = np.asarray(column)
        index = cls(disk, len(column), cardinality, buffer_pool)
        low, high = int(column.min()), int(column.max())
        if low < 0 or high >= cardinality:
            raise IndexError_(
                f"value {low if low < 0 else high} out of range "
                f"0..{cardinality - 1}"
            )
        page_size = disk.page_size
        pages_per_bitmap = index.pages_per_bitmap
        first = disk.allocate(cardinality * pages_per_bitmap)
        scratch = np.zeros((cardinality, page_size), dtype=np.uint8)
        flat = scratch.reshape(-1)
        byte_offsets = np.arange(page_size, dtype=np.intp)
        block = page_size * 8
        # One address buffer for every block: a fresh array per block
        # raised a benchmark process's peak resident size by up to
        # 15 MiB (heap layout; the tracemalloc peaks were equal).
        buffer = np.empty(block, dtype=np.intp)
        for page in range(pages_per_bitmap):
            values = column[page * block:(page + 1) * block]
            rows = buffer[:len(values)]
            np.multiply(
                values, page_size, out=rows, dtype=np.intp, casting="unsafe"
            )
            for bit in range(8):
                addresses = rows[bit::8]
                addresses += byte_offsets[:len(addresses)]
                flat[addresses] |= 128 >> bit
            width = min(page_size, index.bytes_per_bitmap - page * page_size)
            for value in range(cardinality):
                disk.write_page(
                    first + value * pages_per_bitmap + page,
                    scratch[value, :width].tobytes(),
                )
            scratch.fill(0)
        index._first_page = first
        return index

    @property
    def num_pages(self) -> int:
        """Total pages occupied by all bitmaps."""
        self._require_built()
        return self.cardinality * self.pages_per_bitmap

    def _require_built(self) -> None:
        if self._first_page is None:
            raise IndexError_("bitmap index has not been built")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _packed(self, values: Sequence[int]) -> np.ndarray:
        """The packed bitmaps of ``values``, one ``uint8`` row each.

        Charges every page of the selection in one request, value by
        value in the order given, then takes the bytes from the disk's
        page table; without a pool each page is one disk read.  A value
        out of range raises before any page is charged.
        """
        self._require_built()
        for value in values:
            if not 0 <= value < self.cardinality:
                raise IndexError_(
                    f"value {value} out of range 0..{self.cardinality - 1}"
                )
        first = self._first_page
        assert first is not None
        per = self.pages_per_bitmap
        page_ids = [
            page_id
            for value in values
            for page_id in range(first + value * per,
                                 first + (value + 1) * per)
        ]
        if self.buffer_pool is not None:
            self.buffer_pool.request_pages(page_ids)
            raw = self.disk.stored_bytes(page_ids)
        else:
            raw = b"".join([self.disk.read_page(pid) for pid in page_ids])
        return np.frombuffer(raw, dtype=np.uint8).reshape(len(values), -1)

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        return np.unpackbits(packed, count=self.num_records).view(bool)

    def read_bitmap(self, value: int) -> np.ndarray:
        """The boolean bitmap of one value (reads its pages)."""
        return self._unpack(self._packed([value])[0])

    def select_values(self, values: Iterable[int]) -> np.ndarray:
        """OR of the bitmaps of several values (a range/IN predicate).

        The packed rows are OR-ed first and unpacked once.
        """
        chosen = [operator.index(value) for value in values]
        if not chosen:
            raise IndexError_("select_values needs at least one value")
        return self._unpack(np.bitwise_or.reduce(self._packed(chosen)))

    def select_range(self, lo: int, hi: int) -> np.ndarray:
        """OR of the bitmaps of values in ``[lo, hi)``."""
        if hi <= lo:
            raise IndexError_(f"empty value range [{lo}, {hi})")
        return self.select_values(range(lo, hi))

    @staticmethod
    def positions(mask: np.ndarray) -> np.ndarray:
        """Ascending record positions of the set bits of a result bitmap."""
        return np.flatnonzero(mask)

    def pages_for_selection(self, num_values: int) -> int:
        """Index pages read to evaluate a selection of ``num_values`` values."""
        return num_values * self.pages_per_bitmap


def combine_and(masks: Sequence[np.ndarray]) -> np.ndarray:
    """AND several per-dimension result bitmaps (conjunctive selection)."""
    if not masks:
        raise IndexError_("combine_and needs at least one mask")
    result = masks[0].copy()
    for mask in masks[1:]:
        result &= mask
    return result
