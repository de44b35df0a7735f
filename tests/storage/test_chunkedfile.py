"""Tests for repro.storage.chunkedfile — the paper's chunked file."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunks.grid import ChunkSpace
from repro.exceptions import FileFormatError
from repro.schema.builder import build_star_schema
from repro.storage.buffer import BufferPool
from repro.storage.chunkedfile import ChunkedFile, tuple_chunk_numbers
from repro.storage.disk import SimulatedDisk
from repro.storage.record import fact_record_format
from repro.workload.data import generate_fact_table


@pytest.fixture()
def schema():
    return build_star_schema([[3, 9], [2, 8]], measure_names=("v",))


@pytest.fixture()
def space(schema):
    return ChunkSpace(schema, 0.3)


@pytest.fixture()
def records(schema):
    return generate_fact_table(schema, 2000, seed=17)


@pytest.fixture()
def loaded(schema, space, records):
    disk = SimulatedDisk(page_size=256)
    pool = BufferPool(disk, 16)
    cfile = ChunkedFile(disk, fact_record_format(schema), space, pool)
    cfile.bulk_load(records)
    return cfile


class TestTupleChunkNumbers:
    def test_matches_scalar_path(self, schema, space, records):
        grid = space.base_grid
        numbers = tuple_chunk_numbers(grid, records, ("D0", "D1"))
        for row, number in zip(records[:200], numbers[:200]):
            coords = tuple(
                chunking.chunk_index_of(dim.leaf_level, int(row[dim.name]))
                for chunking, dim in zip(space.chunkings, schema.dimensions)
            )
            assert grid.coords_of(int(number)) == coords

    def test_skips_all_dims(self, schema, space, records):
        """Level-0 dimensions contribute nothing to the chunk number."""
        grid = space.grid((1, 0))
        # Rows at group-by (1, 0): D0 holds level-1 ordinals, D1 is ALL.
        rows = records.copy()
        d0 = schema.dimensions[0]
        rows["D0"] = [
            d0.ancestor_ordinal(d0.leaf_level, int(v), 1)
            for v in records["D0"]
        ]
        numbers = tuple_chunk_numbers(grid, rows, ("D0", "D1"))
        assert numbers.max() < grid.num_chunks
        assert numbers.min() >= 0

    def test_wrong_arity_rejected(self, schema, space, records):
        with pytest.raises(FileFormatError):
            tuple_chunk_numbers(space.base_grid, records, ("D0",))

    def test_out_of_range_ordinals_rejected(self, schema, space):
        fmt = fact_record_format(schema)
        bad = fmt.empty(1)
        bad["D0"] = 99
        with pytest.raises(FileFormatError):
            tuple_chunk_numbers(space.base_grid, bad, ("D0", "D1"))


class TestChunkedFile:
    def test_clustering(self, loaded):
        """Stored order is non-decreasing in chunk number."""
        stored = loaded.read_all()
        numbers = tuple_chunk_numbers(
            loaded.grid, stored, loaded.dimension_fields
        )
        assert np.all(np.diff(numbers) >= 0)

    def test_read_chunk_returns_exact_tuples(self, loaded, records, space):
        numbers = tuple_chunk_numbers(
            space.base_grid, records, ("D0", "D1")
        )
        expected = collections.Counter(numbers.tolist())
        for chunk in range(space.base_grid.num_chunks):
            got = loaded.read_chunks([chunk])
            assert len(got) == expected.get(chunk, 0)
            if len(got):
                got_numbers = tuple_chunk_numbers(
                    space.base_grid, got, ("D0", "D1")
                )
                assert np.all(got_numbers == chunk)

    def test_chunk_extent_and_estimate_agree(self, loaded, space):
        """The I/O-free work estimate is the chunk index's extent."""
        for chunk in range(space.base_grid.num_chunks):
            extent = loaded.chunk_index.search(chunk)
            expected = (
                (0, 0) if extent is None
                else (loaded.fact_file.pages_for_range(*extent), extent[1])
            )
            assert loaded.chunk_work_estimate([chunk]) == expected

    def test_read_chunks_merges(self, loaded, space):
        all_numbers = list(range(space.base_grid.num_chunks))
        combined = loaded.read_chunks(all_numbers)
        assert len(combined) == loaded.num_records

    def test_read_chunks_empty_input(self, loaded):
        assert len(loaded.read_chunks([])) == 0

    def test_read_chunk_missing_is_empty(self, schema, space):
        fmt = fact_record_format(schema)
        disk = SimulatedDisk(page_size=256)
        cfile = ChunkedFile(disk, fmt, space)
        sparse = fmt.empty(1)
        sparse["D0"] = 0
        sparse["D1"] = 0
        cfile.bulk_load(sparse)
        assert cfile.num_nonempty_chunks == 1
        last = space.base_grid.num_chunks - 1
        assert len(cfile.read_chunks([last])) == 0
        assert cfile.chunk_work_estimate([last]) == (0, 0)

    def test_chunk_io_proportional_to_chunk(self, loaded):
        """Reading one chunk costs ~its pages, not the whole file."""
        loaded.buffer_pool.flush()
        loaded.disk.reset_stats()
        chunk = 0
        loaded.read_chunks([chunk])
        data_pages, _ = loaded.chunk_work_estimate([chunk])
        # B-tree height extra pages on top of the data pages.
        assert loaded.disk.stats.reads <= data_pages * 2 + 2 * loaded.chunk_index.height + 2
        assert loaded.disk.stats.reads < loaded.num_pages

    def test_double_load_rejected(self, loaded, records):
        with pytest.raises(FileFormatError):
            loaded.bulk_load(records)

    def test_unloaded_access_rejected(self, schema, space):
        cfile = ChunkedFile(
            SimulatedDisk(256), fact_record_format(schema), space
        )
        with pytest.raises(FileFormatError):
            cfile.read_chunks([0])
        with pytest.raises(FileFormatError):
            cfile.read_all()

    def test_wrong_dtype_rejected(self, schema, space):
        cfile = ChunkedFile(
            SimulatedDisk(256), fact_record_format(schema), space
        )
        with pytest.raises(FileFormatError):
            cfile.bulk_load(np.zeros(2, dtype=[("x", "i8")]))

    def test_relational_scan_preserves_multiset(self, loaded, records):
        stored = loaded.read_all().to_records()
        assert sorted(map(tuple, stored.tolist())) == sorted(
            map(tuple, records.tolist())
        )

    def test_read_positions(self, loaded):
        positions = np.array([0, 10, 100])
        got = loaded.fact_file.read_positions(positions).to_records()
        assert np.array_equal(got, loaded.read_all().to_records()[positions])


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(0, 300),
    seed=st.integers(0, 50),
    ratio=st.sampled_from([0.2, 0.4, 1.0]),
)
def test_multiset_preserved_property(n, seed, ratio):
    """Bulk load never loses or duplicates tuples, at any geometry."""
    schema = build_star_schema([[2, 6], [3, 6]], measure_names=("v",))
    space = ChunkSpace(schema, ratio)
    records = generate_fact_table(schema, n, seed=seed)
    cfile = ChunkedFile(
        SimulatedDisk(256), fact_record_format(schema), space
    )
    cfile.bulk_load(records)
    stored = cfile.read_all().to_records()
    assert sorted(map(tuple, stored.tolist())) == sorted(
        map(tuple, records.tolist())
    )
    per_chunk = sum(
        len(cfile.read_chunks([c])) for c in range(space.base_grid.num_chunks)
    )
    assert per_chunk == n
