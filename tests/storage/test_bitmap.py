"""Tests for repro.storage.bitmap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DiskFault, IndexError_
from repro.storage.bitmap import BitmapIndex, combine_and
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from tests.reference.pages import PagedBitmaps


@pytest.fixture()
def column():
    rng = np.random.default_rng(3)
    return rng.integers(0, 7, 500)


@pytest.fixture()
def index(column):
    return BitmapIndex.build(SimulatedDisk(256), column, cardinality=7)


class TestBuild:
    def test_geometry(self, index):
        assert index.num_records == 500
        assert index.bytes_per_bitmap == 63
        assert index.pages_per_bitmap == 1
        assert index.num_pages == 7

    def test_multi_page_bitmaps(self):
        column = np.zeros(5000, dtype=np.int64)
        index = BitmapIndex.build(SimulatedDisk(256), column, cardinality=2)
        assert index.pages_per_bitmap == 3
        assert index.num_pages == 6

    def test_unbuilt_rejected(self):
        index = BitmapIndex(SimulatedDisk(256), 10, 2)
        with pytest.raises(IndexError_):
            index.read_bitmap(0)
        with pytest.raises(IndexError_):
            _ = index.num_pages

    @pytest.mark.parametrize("column", [[0, 1, 5, -1, 2], [0, 3], [-1]])
    def test_out_of_range_values_rejected(self, column):
        """A value no bitmap can hold fails the build instead of
        vanishing from every bitmap (or landing in another's row)."""
        disk = SimulatedDisk(256)
        with pytest.raises(IndexError_, match="out of range 0..2"):
            BitmapIndex.build(disk, np.array(column), cardinality=3)
        assert disk.num_pages == 0

    def test_bad_construction(self):
        with pytest.raises(IndexError_):
            BitmapIndex(SimulatedDisk(256), 0, 1)
        with pytest.raises(IndexError_):
            BitmapIndex(SimulatedDisk(256), 1, 0)


class TestRead:
    def test_bitmap_matches_column(self, index, column):
        for value in range(7):
            mask = index.read_bitmap(value)
            assert np.array_equal(mask, column == value)

    def test_out_of_range_value(self, index):
        with pytest.raises(IndexError_):
            index.read_bitmap(7)
        with pytest.raises(IndexError_):
            index.read_bitmap(-1)

    def test_select_range(self, index, column):
        mask = index.select_range(2, 5)
        assert np.array_equal(mask, (column >= 2) & (column < 5))

    def test_select_values(self, index, column):
        mask = index.select_values([0, 6])
        assert np.array_equal(mask, (column == 0) | (column == 6))

    def test_empty_selection_rejected(self, index):
        with pytest.raises(IndexError_):
            index.select_range(3, 3)
        with pytest.raises(IndexError_):
            index.select_values([])

    def test_positions(self, index, column):
        mask = index.read_bitmap(1)
        assert np.array_equal(
            BitmapIndex.positions(mask), np.flatnonzero(column == 1)
        )

    def test_read_costs_io(self, index):
        index.disk.reset_stats()
        index.select_range(0, 3)
        assert index.disk.stats.reads == 3 * index.pages_per_bitmap

    def test_pages_for_selection(self, index):
        assert index.pages_for_selection(4) == 4 * index.pages_per_bitmap


class TestCombineAnd:
    def test_and(self):
        a = np.array([True, True, False])
        b = np.array([True, False, False])
        assert combine_and([a, b]).tolist() == [True, False, False]

    def test_single(self):
        a = np.array([True, False])
        out = combine_and([a])
        assert out.tolist() == [True, False]
        out[0] = False  # result is a copy
        assert a[0]

    def test_empty_rejected(self):
        with pytest.raises(IndexError_):
            combine_and([])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 400),
    cardinality=st.integers(1, 9),
    seed=st.integers(0, 99),
)
def test_bitmaps_partition_records(n, cardinality, seed):
    """Each record's bit is set in exactly one value bitmap."""
    rng = np.random.default_rng(seed)
    column = rng.integers(0, cardinality, n)
    index = BitmapIndex.build(
        SimulatedDisk(128), column, cardinality=cardinality
    )
    total = np.zeros(n, dtype=np.int64)
    for value in range(cardinality):
        total += index.read_bitmap(value).astype(np.int64)
    assert np.array_equal(total, np.ones(n, dtype=np.int64))


# ----------------------------------------------------------------------
# The charged pages and column masks against the per-value build and
# per-page reader they replaced (``tests/reference/pages.py``), which
# store and read their packed bytes.
# ----------------------------------------------------------------------
def pool_state(pool):
    """Everything a page request can move, disk counters included; not
    frame bytes (the index's pages hold the empty marker)."""
    return (
        vars(pool.stats),
        vars(pool.disk.stats),
        [(f.page_id, f.referenced) for f in pool._frames],
        dict(pool._index),
        pool._hand,
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(
        st.integers(1, 1200),
        st.sampled_from([1, 7, 8, 9, 511, 512, 513, 1023, 1024, 1025]),
    ),
    cardinality=st.integers(1, 12),
    page_size=st.sampled_from([64, 128]),
    seed=st.integers(0, 2**16),
)
def test_build_equals_the_per_value_build(n, cardinality, page_size, seed):
    """Same page ids, same counters, every index page the empty marker;
    every value's bitmap is the reference's packed row unpacked, and
    ``np.packbits(column == v)`` (lengths off multiples of 8 and of a
    page's ``page_size * 8`` records included)."""
    column = np.random.default_rng(seed).integers(0, cardinality, n)
    disk, reference = SimulatedDisk(page_size), SimulatedDisk(page_size)
    disk.allocate(3)  # ids need not start at 0
    reference.allocate(3)
    index = BitmapIndex.build(disk, column, cardinality)
    paged = PagedBitmaps(reference, column, cardinality)
    assert disk.num_pages == reference.num_pages
    assert disk._pages[:3] == [None] * 3
    assert disk._pages[3:] == [b""] * index.num_pages
    assert vars(disk.stats) == vars(reference.stats)
    assert index.num_pages == sum(len(ids) for ids in paged.page_ids)
    assert index.pages_per_bitmap == paged.pages_per_bitmap
    for value in range(cardinality):
        packed = b"".join(
            reference._pages[pid] for pid in paged.page_ids[value]
        )
        assert packed == np.packbits(column == value).tobytes()
        assert np.array_equal(index.read_bitmap(value), paged.select([value]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 1500),
    cardinality=st.integers(1, 9),
    capacity=st.integers(1, 12),
    data=st.data(),
)
def test_selection_equals_the_per_page_reader(n, cardinality, capacity, data):
    """Equal masks, and twin disks and pools that end identical in every
    counter, frame, reference bit and the hand — without a fault, and
    with a read hook that raises at one page."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    column = rng.integers(0, cardinality, n)
    twins = []
    for _ in range(2):
        disk = SimulatedDisk(64)
        twins.append((disk, BufferPool(disk, capacity)))
    (disk, pool), (ref_disk, ref_pool) = twins
    index = BitmapIndex.build(disk, column, cardinality, pool)
    paged = PagedBitmaps(ref_disk, column, cardinality, ref_pool)
    if data.draw(st.booleans(), label="fault"):
        bad = data.draw(st.integers(0, disk.num_pages - 1), label="bad page")

        def fail_at(page_id):
            if page_id == bad:
                raise DiskFault(
                    f"read of page {page_id} failed", page_id, False
                )
            return 0.0

        disk.read_hook = ref_disk.read_hook = fail_at
    values = st.integers(0, cardinality - 1)
    selections = st.one_of(
        st.lists(values, min_size=1, max_size=6),
        st.tuples(values, values).map(lambda t: range(min(t), max(t) + 1)),
    )
    for selection in data.draw(st.lists(selections, min_size=1, max_size=8)):
        outcome = ref_outcome = None
        try:
            if isinstance(selection, range):
                mask = index.select_range(selection.start, selection.stop)
            else:
                mask = index.select_values(selection)
        except DiskFault as fault:
            outcome = str(fault)
        try:
            expected = paged.select(selection)
        except DiskFault as fault:
            ref_outcome = str(fault)
        assert outcome == ref_outcome
        if outcome is None:
            assert mask.dtype == bool
            assert np.array_equal(mask, expected)
        assert pool_state(pool) == pool_state(ref_pool)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 1200),
    cardinality=st.integers(1, 9),
    data=st.data(),
)
def test_build_write_fault_meets_pages_in_id_order(n, cardinality, data):
    """A build allocates every bitmap page in one run, then charges the
    writes in page-id order — value after value, each value's pages in
    order — so a hook raising at the k-th write sees exactly the first
    k ids, leaves the whole run allocated and k - 1 pages written, like
    the per-value build, and returns no index."""
    column = np.random.default_rng(n).integers(0, cardinality, n)
    disk, reference = SimulatedDisk(64), SimulatedDisk(64)
    per = -(-(-(-n // 8)) // 64)
    k = data.draw(st.integers(1, cardinality * per), label="faulted write")
    seen = {}
    for target in (disk, reference):
        order = seen[id(target)] = []

        def fail_kth(page_id, order=order):
            order.append(page_id)
            if len(order) == k:
                raise DiskFault(
                    f"write of page {page_id} failed", page_id, True
                )
            return 0.0

        target.write_hook = fail_kth
    with pytest.raises(DiskFault) as fault:
        BitmapIndex.build(disk, column, cardinality)
    with pytest.raises(DiskFault) as ref_fault:
        PagedBitmaps(reference, column, cardinality)
    assert str(fault.value) == str(ref_fault.value)
    assert seen[id(disk)] == seen[id(reference)] == list(range(k))
    assert vars(disk.stats) == vars(reference.stats)
    assert disk.stats.writes == k - 1
    assert disk.num_pages == cardinality * per
    assert disk._pages[:k - 1] == [b""] * (k - 1)
    assert disk._pages[k - 1:] == [None] * (cardinality * per - k + 1)


class TestColumnOwnership:
    def test_writable_column_is_copied(self, column):
        original = column.copy()
        index = BitmapIndex.build(SimulatedDisk(256), column, cardinality=7)
        column[:] = 0
        assert np.array_equal(index.select_range(1, 7), original >= 1)

    def test_read_only_column_is_kept(self, column):
        column.flags.writeable = False
        index = BitmapIndex.build(SimulatedDisk(256), column, cardinality=7)
        assert index._column is column

    def test_read_only_view_of_a_writable_array_is_copied(self, column):
        original = column.copy()
        view = column[:]
        view.flags.writeable = False
        index = BitmapIndex.build(SimulatedDisk(256), view, cardinality=7)
        column[:] = 0
        assert np.array_equal(index.select_range(1, 7), original >= 1)
