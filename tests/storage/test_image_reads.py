"""The contiguous file image against a reference that stores its pages.

``FactFile`` / ``ChunkedFile`` charge their pages without storing them,
serve reads as views of one decoded image and charge their pages to the
buffer pool in runs.  The reference here is the path they replaced —
encoded pages written at load, then ``get_page`` + decode one page at a
time, slice, concatenate — run on a twin disk and pool
(``tests/reference/pages.py``).  Both must allocate the same page ids,
return equal records and leave *identical* accounting: disk reads,
writes and allocations, pool hits/misses/evictions, the resident page
set, the CLOCK hand and every frame's reference bit.  Only frame bytes
differ: the file's pages hold the empty marker.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunks.grid import ChunkSpace
from repro.exceptions import FileFormatError, PageError
from repro.schema.builder import build_star_schema
from repro.storage.buffer import BufferPool
from repro.storage.chunkedfile import ChunkedFile
from repro.storage.disk import SimulatedDisk
from repro.storage.factfile import FactFile
from repro.storage.record import RecordFormat, fact_record_format
from repro.workload.data import generate_fact_table
from tests.reference.pages import PagedFactFile

FMT = RecordFormat([("k", "i4"), ("v", "f8")])
SCHEMA = build_star_schema([[3, 9], [2, 8]], measure_names=("v",))


def make_records(count):
    records = FMT.empty(count)
    records["k"] = np.arange(count)
    records["v"] = np.arange(count) * 0.5
    return records


def accounting(disk, pool):
    """Everything a load or read may change on the accounting side."""
    counters = (disk.stats.reads, disk.stats.writes, disk.stats.allocations)
    if pool is None:
        return counters
    return counters + (
        pool.stats.hits,
        pool.stats.misses,
        pool.stats.evictions,
        frozenset(pool._index),
        pool._hand,
        [(frame.page_id, frame.referenced) for frame in pool._frames],
    )


def twin_fact_files(count, page_size, pool_pages):
    """A loaded fact file and its paged reference on separate disks and
    pools, with equal page ids and load accounting, counters reset."""
    files = []
    for make in (FactFile, PagedFactFile):
        disk = SimulatedDisk(page_size)
        pool = BufferPool(disk, pool_pages) if pool_pages else None
        fact = make(disk, FMT, pool)
        fact.bulk_load(make_records(count))
        files.append(fact)
    fact, twin = files
    assert list(fact.page_ids) == twin.page_ids
    assert accounting(fact.disk, fact.buffer_pool) == accounting(
        twin.disk, twin.buffer_pool
    )
    for file in files:
        file.disk.reset_stats()
    return fact, twin


@st.composite
def fact_file_cases(draw):
    count = draw(st.integers(1, 240))
    page_size = draw(st.sampled_from([64, 128, 256]))
    # 0 stands for "no pool"; 1 and 2 are below most run lengths.
    pool_pages = draw(st.sampled_from([0, 1, 2, 3, 7, 64]))
    requests = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["range", "positions", "all"]))
        if kind == "range":
            start = draw(st.integers(0, count - 1))
            requests.append((kind, start, draw(st.integers(1, count - start))))
        elif kind == "positions":
            chosen = draw(
                st.lists(st.integers(0, count - 1), min_size=1, max_size=40)
            )
            requests.append((kind, sorted(chosen)))
        else:
            requests.append((kind,))
    return count, page_size, pool_pages, requests


class TestImageAgainstPagedReference:
    @settings(max_examples=150, deadline=None)
    @given(fact_file_cases())
    def test_fact_file_requests(self, case):
        count, page_size, pool_pages, requests = case
        fact, reference = twin_fact_files(count, page_size, pool_pages)
        for request in requests:
            kind = request[0]
            if kind == "range":
                got = fact.read_ranges([tuple(request[1:])])
                want = reference.read_range(*request[1:])
            elif kind == "positions":
                got = fact.read_positions(np.array(request[1]))
                want = reference.read_positions(request[1])
            else:
                got = fact.read_all()
                want = reference.read_all()
            assert got.dtype == want.dtype
            assert np.array_equal(got.to_records(), want)
            assert not any(got[name].flags.writeable for name in FMT.field_names)
            assert accounting(fact.disk, fact.buffer_pool) == accounting(
                reference.disk, reference.buffer_pool
            )

    @settings(max_examples=60, deadline=None)
    @given(
        num_tuples=st.integers(1, 600),
        page_size=st.sampled_from([64, 128, 512]),
        pool_pages=st.sampled_from([1, 2, 5, 40]),
        picks=st.lists(
            st.lists(st.integers(0, 10_000), min_size=1, max_size=12),
            min_size=1,
            max_size=6,
        ),
    )
    def test_read_chunks(self, num_tuples, page_size, pool_pages, picks):
        fmt = fact_record_format(SCHEMA)
        records = generate_fact_table(SCHEMA, num_tuples, seed=num_tuples)
        files = []
        for paged in (False, True):
            disk = SimulatedDisk(page_size)
            pool = BufferPool(disk, pool_pages)
            cfile = ChunkedFile(disk, fmt, ChunkSpace(SCHEMA, 0.3), pool)
            if paged:
                cfile.fact_file = PagedFactFile(disk, fmt, pool)
            cfile.bulk_load(records)
            files.append(cfile)
        cfile, twin = files
        reference = twin.fact_file
        # Same page ids for the data, the same B-tree node bytes after
        # them, and the same load counters.
        assert list(cfile.fact_file.page_ids) == reference.page_ids
        data = slice(0, reference.num_pages)
        assert cfile.disk._pages[data] == [b""] * reference.num_pages
        assert cfile.disk._pages[data.stop:] == twin.disk._pages[data.stop:]
        assert accounting(cfile.disk, cfile.buffer_pool) == accounting(
            twin.disk, twin.buffer_pool
        )
        for file in files:
            file.buffer_pool.flush()
            file.buffer_pool.reset_stats()
            file.disk.reset_stats()
        num_chunks = cfile.grid.num_chunks
        for pick in picks:
            numbers = sorted({n % num_chunks for n in pick})
            got = cfile.read_chunks(numbers)
            # The replaced path: same index probe, same run merging, then
            # one positional range read per run, page by page.
            extents = twin.chunk_index.search_many(numbers)
            runs = []
            for start, count in sorted(extents.values()):
                if runs and runs[-1][0] + runs[-1][1] == start:
                    runs[-1][1] += count
                else:
                    runs.append([start, count])
            parts = [reference.read_range(s, c) for s, c in runs]
            want = np.concatenate(parts) if parts else fmt.empty()
            assert got.dtype == want.dtype
            assert np.array_equal(got.to_records(), want)
            assert not any(got[name].flags.writeable for name in fmt.field_names)
            assert accounting(cfile.disk, cfile.buffer_pool) == accounting(
                twin.disk, twin.buffer_pool
            )


class TestFaultedRun:
    @pytest.mark.parametrize("pool_pages", [0, 2, 64])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_fault_on_kth_page_leaves_k_minus_1_reads(self, pool_pages, k):
        fact, reference = twin_fact_files(60, 64, pool_pages)
        for file in (fact, reference):
            seen = []

            def hook(page_id, seen=seen):
                seen.append(page_id)
                if len(seen) == k:
                    raise PageError("injected")
                return 0.0

            file.disk.read_hook = hook
        capacity = fact.records_per_page
        with pytest.raises(PageError):
            fact.read_ranges([(0, 6 * capacity)])
        with pytest.raises(PageError):
            reference.read_range(0, 6 * capacity)
        assert fact.disk.stats.reads == k - 1
        assert accounting(fact.disk, fact.buffer_pool) == accounting(
            reference.disk, reference.buffer_pool
        )

    @pytest.mark.parametrize("pool_pages", [0, 2])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_write_fault_on_kth_page_of_a_load(self, pool_pages, k):
        """The batch's pages are allocated in one run and meet the write
        hook in order: a fault at the k-th leaves them all allocated,
        k - 1 written, and the file as it was."""
        files = []
        for make in (FactFile, PagedFactFile):
            disk = SimulatedDisk(64)
            pool = BufferPool(disk, pool_pages) if pool_pages else None
            fact = make(disk, FMT, pool)
            seen = []

            def hook(page_id, seen=seen):
                seen.append(page_id)
                if len(seen) == k:
                    raise PageError("injected")
                return 0.0

            disk.write_hook = hook
            with pytest.raises(PageError):
                fact.bulk_load(make_records(60))
            files.append((fact, seen))
        (fact, seen), (reference, ref_seen) = files
        assert seen == ref_seen == list(range(k))
        assert fact.disk.num_pages == reference.disk.num_pages == 12
        assert fact.disk.stats.writes == k - 1
        assert accounting(fact.disk, fact.buffer_pool) == accounting(
            reference.disk, reference.buffer_pool
        )
        assert fact.num_pages == fact.num_records == 0


class TestImageOwnership:
    def test_read_all_is_the_image_not_a_copy(self):
        fact, _ = twin_fact_files(100, 128, 4)
        first = fact.read_all()
        assert fact.read_all() is first
        for name in FMT.field_names:
            assert np.shares_memory(fact.read_ranges([(10, 30)])[name], first[name])
            # Several runs are joined: one copy per field read.
            joined = fact.read_ranges([(0, 5), (50, 10)])[name]
            assert not np.shares_memory(joined, first[name])

    def test_reads_cannot_write_through(self):
        fact, _ = twin_fact_files(100, 128, 4)
        for records in (
            fact.read_all(),
            fact.read_ranges([(10, 30)]),
            fact.read_ranges([(0, 5), (50, 10)]),
            fact.read_positions(np.array([1, 50])),
        ):
            for name in FMT.field_names:
                assert records[name].flags.writeable is False
                with pytest.raises(ValueError):
                    records[name][0] = 0

    def test_fields_are_contiguous_columns_of_their_own_dtype(self):
        fact, _ = twin_fact_files(100, 128, 4)
        columns = fact.read_all()
        assert columns.dtype == FMT.dtype
        for name in FMT.field_names:
            assert columns[name].dtype == FMT.dtype[name]
            assert columns[name].flags.c_contiguous

    def test_image_does_not_alias_the_loaded_array(self):
        disk = SimulatedDisk(128)
        fact = FactFile(disk, FMT)
        records = make_records(20)
        fact.bulk_load(records)
        records["k"] = -1
        assert records.flags.writeable
        assert np.array_equal(fact.read_all()["k"], np.arange(20))


class TestPartialInteriorPage:
    """Two batches leave a half-full page in the middle of the file
    (what ``BackendEngine.append_records`` does to its delta region)."""

    @pytest.fixture()
    def fact(self):
        fact = FactFile(SimulatedDisk(128), FMT)
        assert fact.records_per_page == 10
        fact.bulk_load(make_records(5))
        fact.bulk_load(make_records(5))
        return fact

    def test_scans_still_see_every_record_page_by_page(self, fact):
        assert fact.num_pages == 2 and fact.num_records == 10
        assert fact.read_all()["k"].tolist() == [0, 1, 2, 3, 4] * 2
        assert fact.disk.stats.reads == 2

    def test_positional_access_is_refused(self, fact):
        with pytest.raises(FileFormatError, match="partial interior page"):
            fact.read_ranges([(3, 4)])
        with pytest.raises(FileFormatError, match="partial interior page"):
            fact.read_positions(np.array([6]))
        with pytest.raises(FileFormatError, match="partial interior page"):
            fact.pages_for_range(3, 4)
        with pytest.raises(FileFormatError, match="partial interior page"):
            fact.count_pages_for_positions(np.array([6]))
        assert fact.disk.stats.reads == 0

    def test_batches_that_fill_their_last_page_stay_dense(self):
        fact = FactFile(SimulatedDisk(128), FMT)
        fact.bulk_load(make_records(20))
        fact.bulk_load(make_records(7))
        assert fact.read_ranges([(18, 5)])["k"].tolist() == [18, 19, 0, 1, 2]
        assert fact.pages_for_range(18, 5) == 2
