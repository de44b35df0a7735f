"""Tests for repro.storage.buffer — the CLOCK buffer pool."""

import pytest

from repro.exceptions import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


@pytest.fixture()
def disk():
    d = SimulatedDisk(page_size=64)
    for i in range(10):
        pid = d.allocate()
        d.write_page(pid, bytes([i]) * 8)
    d.reset_stats()
    return d


class TestBufferPool:
    def test_miss_then_hit(self, disk):
        pool = BufferPool(disk, capacity_pages=4)
        first = pool.get_page(0)
        second = pool.get_page(0)
        assert first == second
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert disk.stats.reads == 1  # only the miss touched the disk

    def test_capacity_respected(self, disk):
        pool = BufferPool(disk, capacity_pages=3)
        for pid in range(5):
            pool.get_page(pid)
        assert len(pool) == 3
        assert pool.stats.evictions == 2

    def test_clock_gives_second_chance(self, disk):
        pool = BufferPool(disk, capacity_pages=2)
        pool.get_page(0)
        pool.get_page(1)
        pool.get_page(0)  # reference 0 again
        pool.get_page(2)  # evicts one of 0/1; 0 was recently referenced
        assert pool.contains(0) or pool.contains(1)
        assert pool.contains(2)

    def test_write_through_updates_buffer(self, disk):
        pool = BufferPool(disk, capacity_pages=2)
        pool.get_page(3)
        pool.put_page(3, b"fresh")
        assert pool.get_page(3)[:5] == b"fresh"
        assert disk.read_page(3)[:5] == b"fresh"

    def test_write_through_uncached_page(self, disk):
        pool = BufferPool(disk, capacity_pages=2)
        pool.put_page(4, b"new")
        assert disk.read_page(4)[:3] == b"new"

    def test_flush_drops_frames_keeps_stats(self, disk):
        pool = BufferPool(disk, capacity_pages=2)
        pool.get_page(0)
        pool.flush()
        assert len(pool) == 0
        assert pool.stats.misses == 1
        pool.get_page(0)
        assert pool.stats.misses == 2

    def test_reset_stats(self, disk):
        pool = BufferPool(disk, capacity_pages=2)
        pool.get_page(0)
        pool.reset_stats()
        assert pool.stats.accesses == 0

    def test_hit_ratio(self, disk):
        pool = BufferPool(disk, capacity_pages=2)
        assert pool.stats.hit_ratio == 0.0
        pool.get_page(0)
        pool.get_page(0)
        pool.get_page(0)
        assert pool.stats.hit_ratio == pytest.approx(2 / 3)

    def test_request_pages_is_get_page_in_order(self, disk):
        pages = [0, 1, 2, 0, 3, 4, 1, 1, 5]
        batched = BufferPool(disk, capacity_pages=3)
        batched.request_pages(pages)
        reads = disk.stats.reads
        single = BufferPool(disk, capacity_pages=3)
        for page_id in pages:
            single.get_page(page_id)
        assert disk.stats.reads == 2 * reads
        assert batched.stats == single.stats
        assert batched._index == single._index
        assert batched._hand == single._hand

    def test_zero_capacity_rejected(self, disk):
        with pytest.raises(BufferPoolError):
            BufferPool(disk, capacity_pages=0)

    def test_heavy_churn_consistent(self, disk):
        pool = BufferPool(disk, capacity_pages=3)
        for i in range(100):
            page = pool.get_page(i % 7)
            assert page[:1] == bytes([i % 7])
        assert len(pool) == 3


from hypothesis import given, settings, strategies as st


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(1, 8),
    accesses=st.lists(st.integers(0, 9), max_size=80),
)
def test_pool_always_returns_current_disk_contents(capacity, accesses):
    """Whatever the replacement pattern, reads reflect the latest writes."""
    disk = SimulatedDisk(page_size=64)
    contents = {}
    for i in range(10):
        pid = disk.allocate()
        payload = bytes([i]) * 8
        disk.write_page(pid, payload)
        contents[pid] = payload
    pool = BufferPool(disk, capacity)
    for step, pid in enumerate(accesses):
        if step % 7 == 3:
            payload = bytes([step % 250]) * 8
            pool.put_page(pid, payload)
            contents[pid] = payload
        got = pool.get_page(pid)
        assert got[:8] == contents[pid]
        assert len(pool) <= capacity
