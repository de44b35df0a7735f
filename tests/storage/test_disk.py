"""Tests for repro.storage.disk."""

import pytest

from repro.exceptions import PageError
from repro.storage.disk import DiskStats, SimulatedDisk


class TestSimulatedDisk:
    def test_allocate_sequential(self):
        disk = SimulatedDisk(page_size=256)
        assert disk.allocate() == 0
        assert disk.allocate(3) == 1
        assert disk.num_pages == 4
        assert disk.stats.allocations == 4

    def test_allocate_zero_rejected(self):
        disk = SimulatedDisk()
        with pytest.raises(PageError):
            disk.allocate(0)

    def test_read_write_roundtrip(self):
        disk = SimulatedDisk(page_size=256)
        pid = disk.allocate()
        disk.write_page(pid, b"hello")
        assert disk.read_page(pid)[:5] == b"hello"
        assert disk.stats.reads == 1
        assert disk.stats.writes == 1

    def test_unwritten_page_reads_zeros(self):
        disk = SimulatedDisk(page_size=64)
        pid = disk.allocate()
        assert disk.read_page(pid) == bytes(64)

    def test_short_payload_allowed_long_rejected(self):
        disk = SimulatedDisk(page_size=64)
        pid = disk.allocate()
        disk.write_page(pid, b"x")
        with pytest.raises(PageError):
            disk.write_page(pid, b"y" * 65)

    def test_out_of_range_page(self):
        disk = SimulatedDisk()
        with pytest.raises(PageError):
            disk.read_page(0)
        disk.allocate()
        with pytest.raises(PageError):
            disk.read_page(1)
        with pytest.raises(PageError):
            disk.write_page(-1, b"")

    def test_tiny_page_size_rejected(self):
        with pytest.raises(PageError):
            SimulatedDisk(page_size=16)

    def test_reset_stats_keeps_pages(self):
        disk = SimulatedDisk(page_size=64)
        pid = disk.allocate()
        disk.write_page(pid, b"abc")
        disk.reset_stats()
        assert disk.stats.reads == 0
        assert disk.read_page(pid)[:3] == b"abc"


class TestWriteHook:
    def test_raising_hook_aborts_before_any_effect(self):
        disk = SimulatedDisk(page_size=64)
        pid = disk.allocate()
        disk.write_page(pid, b"before")

        def hook(page_id):
            raise PageError(f"injected on page {page_id}")

        disk.write_hook = hook
        with pytest.raises(PageError, match="injected"):
            disk.write_page(pid, b"after")
        disk.write_hook = None
        # The faulted write counted nothing and stored nothing.
        assert disk.stats.writes == 1
        assert disk.read_page(pid)[:6] == b"before"

    def test_latency_hook_charges_fault_latency(self):
        disk = SimulatedDisk(page_size=64)
        pid = disk.allocate()
        disk.write_hook = lambda page_id: 0.25
        disk.write_page(pid, b"x")
        disk.write_page(pid, b"y")
        disk.write_hook = None
        assert disk.stats.writes == 2
        assert disk.stats.fault_latency == 0.5

    def test_hook_sees_the_page_id(self):
        disk = SimulatedDisk(page_size=64)
        pages = [disk.allocate() for _ in range(3)]
        seen = []
        disk.write_hook = lambda page_id: seen.append(page_id) or 0.0
        for pid in pages:
            disk.write_page(pid, b"")
        disk.write_hook = None
        assert seen == pages


class TestDiskStats:
    def test_copy_is_independent(self):
        stats = DiskStats(reads=1)
        copy = stats.copy()
        stats.reads = 9
        assert copy.reads == 1

    def test_delta(self):
        before = DiskStats(reads=2, writes=1, allocations=0)
        after = DiskStats(reads=5, writes=1, allocations=3)
        delta = after.delta(before)
        assert (delta.reads, delta.writes, delta.allocations) == (3, 0, 3)

