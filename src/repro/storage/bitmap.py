"""Bitmap indexes on fact-table dimension columns.

OLAP backends speed up star-join selections with bitmap indexes (Section
4.2): one bitmap per distinct dimension value, AND/OR-combined into a
result bitmap whose set bits are the qualifying record positions.  The
paper's Figure 14 measures how the *file organization* (random vs chunked)
changes the number of data pages those positions touch.

:class:`BitmapIndex` lays one packed bitmap per distinct value of one
column out on simulated-disk pages, so that reading bitmaps costs
(simulated) I/O just like reading data pages does; the bits themselves
are computed from the column, which the index keeps.
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
    id ``first + v * pages_per_bitmap + b``.  The pages are charged,
    not stored: reads charge them through the buffer pool in value
    order, one request per selection, and the bits those pages hold are
    computed from the indexed column, which the index keeps read-only
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
        self._column = np.zeros(0, dtype=np.int64)

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

        Allocates every bitmap page in one run and charges their writes
        in page-id order (value after value), so a write fault at a page
        leaves the run allocated and the pages before it written.  The
        index keeps ``column`` itself when it is a read-only array that
        owns its data (the fact file's image column) and a read-only
        copy otherwise: no later write, to the caller's array or to the
        base of a read-only view, can change an answer.

        Raises:
            IndexError_: If a value lies outside ``0 .. cardinality - 1``
                (no bitmap would hold it).
        """
        column = np.asarray(column)
        index = cls(disk, len(column), cardinality, buffer_pool)
        low, high = int(column.min()), int(column.max())
        if low < 0 or high >= cardinality:
            raise IndexError_(
                f"value {low if low < 0 else high} out of range "
                f"0..{cardinality - 1}"
            )
        count = cardinality * index.pages_per_bitmap
        first = disk.allocate(count)
        disk.charge_writes(first, count)
        if column.flags.writeable or not column.flags.owndata:
            column = column.copy()
            column.flags.writeable = False
        index._first_page = first
        index._column = column
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
    def _charge(self, values: Sequence[int]) -> None:
        """Request the pages of the bitmaps of ``values``.

        Every page of the selection in one request, value by value in
        the order given; without a pool each page is one disk read.  A
        value out of range raises before any page is charged.
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
        else:
            for page_id in page_ids:
                self.disk.read_page(page_id)

    def read_bitmap(self, value: int) -> np.ndarray:
        """The boolean bitmap of one value (reads its pages)."""
        self._charge([value])
        return self._column == value

    def select_values(self, values: Iterable[int]) -> np.ndarray:
        """OR of the bitmaps of several values (a range/IN predicate)."""
        chosen = [operator.index(value) for value in values]
        if not chosen:
            raise IndexError_("select_values needs at least one value")
        self._charge(chosen)
        return np.isin(self._column, chosen)

    def select_range(self, lo: int, hi: int) -> np.ndarray:
        """OR of the bitmaps of values in ``[lo, hi)``."""
        if hi <= lo:
            raise IndexError_(f"empty value range [{lo}, {hi})")
        self._charge(range(lo, hi))
        column = self._column
        return (column >= lo) & (column < hi)

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
