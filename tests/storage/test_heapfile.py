"""Tests for repro.storage.factfile.

``TestHeapFile`` covers the file as the unordered baseline of Figure 14
(records in arrival order), ``TestFactFile`` its positional range reads.
"""

import numpy as np
import pytest

from repro.exceptions import FileFormatError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.factfile import FactFile
from repro.storage.record import RecordFormat


@pytest.fixture()
def fmt():
    return RecordFormat([("k", "i4"), ("v", "f8")])


def make_records(fmt, n):
    records = fmt.empty(n)
    records["k"] = np.arange(n)
    records["v"] = np.arange(n) * 0.5
    return records


class TestHeapFile:
    def test_bulk_load_and_scan(self, fmt):
        disk = SimulatedDisk(page_size=128)
        heap = FactFile(disk, fmt)
        records = make_records(fmt, 50)
        heap.bulk_load(records)
        assert heap.num_records == 50
        assert heap.records_per_page == (128 - 4) // 12
        assert heap.num_pages == -(-50 // heap.records_per_page)
        disk.reset_stats()
        assert np.array_equal(heap.read_all().to_records(), records)
        assert disk.stats.reads == heap.num_pages

    def test_read_all_empty(self, fmt):
        heap = FactFile(SimulatedDisk(128), fmt)
        assert len(heap.read_all()) == 0

    def test_wrong_dtype_rejected(self, fmt):
        heap = FactFile(SimulatedDisk(128), fmt)
        with pytest.raises(FileFormatError):
            heap.bulk_load(np.zeros(3, dtype=[("z", "i8")]))

    def test_page_of_record(self, fmt):
        """Record ``position`` lives on file page ``position // rpp``."""
        disk = SimulatedDisk(page_size=128)
        heap = FactFile(disk, fmt)
        heap.bulk_load(make_records(fmt, 30))
        rpp = heap.records_per_page
        pages = heap.page_ids
        read = []
        disk.read_hook = lambda page_id: read.append(page_id) or 0.0
        heap.read_positions(np.array([0, rpp - 1]))
        heap.read_positions(np.array([rpp]))
        assert read == [pages[0], pages[1]]

    def test_read_positions(self, fmt):
        disk = SimulatedDisk(page_size=128)
        heap = FactFile(disk, fmt)
        records = make_records(fmt, 100)
        heap.bulk_load(records)
        positions = np.array([0, 5, 50, 99])
        got = heap.read_positions(positions)
        assert got["k"].tolist() == [0, 5, 50, 99]

    def test_read_positions_empty(self, fmt):
        heap = FactFile(SimulatedDisk(128), fmt)
        heap.bulk_load(make_records(fmt, 10))
        assert len(heap.read_positions(np.array([], dtype=np.int64))) == 0

    def test_read_positions_unsorted_rejected(self, fmt):
        heap = FactFile(SimulatedDisk(128), fmt)
        heap.bulk_load(make_records(fmt, 10))
        with pytest.raises(FileFormatError):
            heap.read_positions(np.array([5, 2]))

    def test_read_positions_out_of_range(self, fmt):
        heap = FactFile(SimulatedDisk(128), fmt)
        heap.bulk_load(make_records(fmt, 10))
        with pytest.raises(FileFormatError):
            heap.read_positions(np.array([10]))

    def test_skipped_sequential_io(self, fmt):
        """read_positions reads each distinct page exactly once."""
        disk = SimulatedDisk(page_size=128)
        heap = FactFile(disk, fmt)
        heap.bulk_load(make_records(fmt, 100))
        rpp = heap.records_per_page
        disk.reset_stats()
        positions = np.array([0, 1, 2, rpp, rpp + 1, 5 * rpp])
        heap.read_positions(positions)
        assert disk.stats.reads == 3
        assert heap.count_pages_for_positions(positions) == 3

    def test_reads_through_buffer_pool(self, fmt):
        disk = SimulatedDisk(page_size=128)
        pool = BufferPool(disk, 4)
        heap = FactFile(disk, fmt, buffer_pool=pool)
        heap.bulk_load(make_records(fmt, 20))
        disk.reset_stats()
        heap.read_range(0, 1)
        heap.read_range(1, 1)
        assert disk.stats.reads == 1  # second read was a pool hit

    def test_multiple_bulk_loads_append(self, fmt):
        heap = FactFile(SimulatedDisk(128), fmt)
        heap.bulk_load(make_records(fmt, 10))
        heap.bulk_load(make_records(fmt, 10))
        assert heap.num_records == 20


class TestFactFile:
    def test_read_range(self, fmt):
        fact = FactFile(SimulatedDisk(128), fmt)
        records = make_records(fmt, 100)
        fact.bulk_load(records)
        got = fact.read_range(37, 20)
        assert got["k"].tolist() == list(range(37, 57))

    def test_read_range_empty(self, fmt):
        fact = FactFile(SimulatedDisk(128), fmt)
        fact.bulk_load(make_records(fmt, 10))
        assert len(fact.read_range(3, 0)) == 0

    def test_read_range_bounds(self, fmt):
        fact = FactFile(SimulatedDisk(128), fmt)
        fact.bulk_load(make_records(fmt, 10))
        with pytest.raises(FileFormatError):
            fact.read_range(5, 6)
        with pytest.raises(FileFormatError):
            fact.read_range(0, -1)

    def test_read_ranges_is_read_range_of_each(self, fmt):
        disk = SimulatedDisk(page_size=128)
        fact = FactFile(disk, fmt)
        fact.bulk_load(make_records(fmt, 100))
        disk.reset_stats()
        ranges = [(37, 20), (3, 0), (90, 10)]
        got = fact.read_ranges(ranges)
        assert len(got) == 30
        assert got["k"].tolist() == list(range(37, 57)) + list(range(90, 100))
        assert got["v"].tolist() == [k * 0.5 for k in got["k"].tolist()]
        assert disk.stats.reads == sum(
            fact.pages_for_range(*one) for one in ranges
        )
        with pytest.raises(FileFormatError):  # before any page is requested
            fact.read_ranges([(0, 5), (95, 6)])
        assert disk.stats.reads == sum(
            fact.pages_for_range(*one) for one in ranges
        )

    def test_range_io_proportional_to_span(self, fmt):
        disk = SimulatedDisk(page_size=128)
        fact = FactFile(disk, fmt)
        fact.bulk_load(make_records(fmt, 200))
        rpp = fact.records_per_page
        disk.reset_stats()
        fact.read_range(0, rpp)  # exactly one page
        assert disk.stats.reads == 1
        assert fact.pages_for_range(0, rpp) == 1
        assert fact.pages_for_range(rpp - 1, 2) == 2
        assert fact.pages_for_range(0, 0) == 0
