"""Tests for repro.storage.buffer — the CLOCK buffer pool."""

from types import SimpleNamespace

import pytest

from repro.exceptions import BufferPoolError, PageError
from repro.storage.buffer import BufferPool, BufferPoolStats
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


class ReferencePool:
    """The pool before ``request_pages`` became one loop: one
    ``disk.read_page`` call and one new frame per miss, the sweep a
    method of its own.  Same attribute names, so :func:`state` reads
    both."""

    def __init__(self, disk, capacity):
        self.disk, self.capacity = disk, capacity
        self.stats = BufferPoolStats()
        self._frames, self._index, self._hand = [], {}, 0

    def get_page(self, page_id):
        pos = self._index.get(page_id)
        if pos is not None:
            self.stats.hits += 1
            self._frames[pos].referenced = True
            return self._frames[pos].data
        self.stats.misses += 1
        data = self.disk.read_page(page_id)
        frame = SimpleNamespace(page_id=page_id, data=data, referenced=True)
        if len(self._frames) < self.capacity:
            self._index[page_id] = len(self._frames)
            self._frames.append(frame)
            return data
        while self._frames[self._hand].referenced:
            self._frames[self._hand].referenced = False
            self._hand = (self._hand + 1) % self.capacity
        del self._index[self._frames[self._hand].page_id]
        self.stats.evictions += 1
        self._frames[self._hand] = frame
        self._index[page_id] = self._hand
        self._hand = (self._hand + 1) % self.capacity
        return data

    def request_pages(self, page_ids):
        for page_id in page_ids:
            self.get_page(page_id)

    def put_page(self, page_id, data):
        self.disk.write_page(page_id, data)
        if page_id in self._index:
            frame = self._frames[self._index[page_id]]
            frame.data, frame.referenced = bytes(data), True

    def flush(self):
        self._frames, self._index, self._hand = [], {}, 0


def state(pool):
    """Everything a request may move, frame by frame."""
    return (
        pool.stats, pool._hand, pool._index, pool.disk.stats,
        [(f.page_id, f.data, f.referenced) for f in pool._frames],
    )


PAGE = st.integers(0, 11)  # ten pages exist: 10 and 11 are out of range
OPS = st.one_of(
    st.tuples(st.just("request_pages"), st.lists(PAGE, max_size=12)),
    st.tuples(st.just("get_page"), PAGE),
    st.tuples(st.just("put_page"), st.integers(0, 9), st.binary(max_size=8)),
    st.tuples(st.just("flush")),
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 8),
    ops=st.lists(OPS, max_size=25),
    # None: no read hook; 0: a latency hook; n: it also raises on call n.
    fail_on=st.none() | st.integers(0, 40),
)
def test_request_pages_is_the_per_page_pool(capacity, ops, fail_on):
    """Runs, single requests, writes and flushes in any interleaving —
    also across a read fault and an out-of-range id — leave the pool and
    the disk exactly where the per-page reference leaves its twins."""
    pools = []
    for kind in (BufferPool, ReferencePool):
        disk = SimulatedDisk(page_size=64)
        for i in range(disk.allocate(10), 8):  # pages 8 and 9 unwritten
            disk.write_page(i, bytes([i]) * 8)
        if fail_on is not None:
            calls = []

            def hook(page_id, calls=calls):
                calls.append(page_id)
                if len(calls) == fail_on:
                    raise RuntimeError(f"injected at {page_id}")
                return page_id % 3 * 0.25

            disk.read_hook = hook
        pools.append(kind(disk, capacity))
    for name, *args in ops:
        outcomes = []
        for pool in pools:
            try:
                outcomes.append(getattr(pool, name)(*args))
            except (PageError, RuntimeError) as error:
                outcomes.append(repr(error))
        assert outcomes[0] == outcomes[1]
        assert state(pools[0]) == state(pools[1])
