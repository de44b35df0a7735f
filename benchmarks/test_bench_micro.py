"""Micro-benchmarks of the core primitives.

These measure the library's own operators (not the paper's simulated
costs): chunk-number computation, the chunk interface, the B-tree, the
bitmap index, and hash aggregation.  Useful for tracking performance
regressions of the implementation itself.
"""

import numpy as np
import pytest

from repro.backend.aggregate import LevelMapper, aggregate_records
from repro.backend.engine import BackendEngine
from repro.chunks.grid import ChunkSpace
from repro.query.model import StarQuery
from repro.schema.builder import build_star_schema
from repro.storage.bitmap import BitmapIndex
from repro.storage.btree import BTree
from repro.storage.chunkedfile import tuple_chunk_numbers
from repro.storage.disk import SimulatedDisk
from repro.workload.data import generate_fact_table


@pytest.fixture(scope="module")
def system():
    schema = build_star_schema(
        [(25, 50, 100), (25, 50), (5, 25, 50), (10, 50)],
        measure_names=("sales",),
    )
    space = ChunkSpace(schema, 0.2)
    records = generate_fact_table(schema, 100_000, seed=3)
    engine = BackendEngine.build(
        schema, space, records, buffer_pool_pages=64
    )
    return schema, space, records, engine


def test_bench_compute_chunk_numbers(benchmark, system):
    """ComputeChunkNums for a typical 2-selection query."""
    schema, space, _, _ = system
    grid = space.grid((1, 1, 2, 0))
    query = StarQuery.build(
        schema, (1, 1, 2, 0), {"D0": (2, 8), "D2": (5, 15)}
    )
    numbers = benchmark(
        grid.chunk_numbers_for_selection, query.selections
    )
    assert numbers


def test_bench_tuple_chunk_numbers(benchmark, system):
    """Vectorized per-tuple chunk numbering of 100k records."""
    schema, space, records, _ = system
    grid = space.base_grid
    names = tuple(d.name for d in schema.dimensions)
    numbers = benchmark(tuple_chunk_numbers, grid, records, names)
    assert len(numbers) == len(records)


def test_bench_compute_chunks(benchmark, system):
    """Backend chunk interface: compute 25 chunks of a 2-D group-by."""
    schema, space, _, engine = system
    grid = space.grid((1, 0, 2, 0))
    numbers = list(range(min(25, grid.num_chunks)))

    def run():
        chunks, _ = engine.compute_chunks(
            (1, 0, 2, 0), numbers, (("sales", "sum"),)
        )
        return chunks

    chunks = benchmark(run)
    assert len(chunks) == len(numbers)


def test_bench_bitmap_selection(benchmark, system):
    """Bitmap-path evaluation of a selective star query."""
    schema, _, _, engine = system
    query = StarQuery.build(
        schema, (2, 0, 0, 1), {"D0": (10, 20), "D3": (2, 6)}
    )

    def run():
        rows, _ = engine.answer(query, "bitmap")
        return rows

    rows = benchmark(run)
    assert len(rows)


def test_bench_aggregation(benchmark, system):
    """Hash aggregation of 100k tuples to a 3-dimension group-by."""
    schema, _, records, engine = system
    rows = benchmark(
        aggregate_records,
        schema,
        records,
        (1, 1, 2, 0),
        (("sales", "sum"), ("sales", "count")),
        engine.mapper,
    )
    assert len(rows)


def test_bench_btree_search(benchmark):
    """Point lookups on a bulk-loaded B-tree of 100k keys."""
    tree = BTree(SimulatedDisk(4096))
    tree.bulk_load([(i, (i, i + 1)) for i in range(100_000)])
    keys = list(range(0, 100_000, 997))

    def run():
        return [tree.search(k) for k in keys]

    found = benchmark(run)
    assert all(v is not None for v in found)


def test_bench_btree_search_many(benchmark):
    """Batched lookups (the chunk-read path) on the same tree."""
    tree = BTree(SimulatedDisk(4096))
    tree.bulk_load([(i, (i, i + 1)) for i in range(100_000)])
    keys = list(range(0, 100_000, 13))
    found = benchmark(tree.search_many, keys)
    assert len(found) == len(keys)


def test_bench_bitmap_build(benchmark):
    """Bitmap index construction over a 100k-row column."""
    rng = np.random.default_rng(1)
    column = rng.integers(0, 50, 100_000)

    def run():
        return BitmapIndex.build(SimulatedDisk(4096), column, 50)

    index = benchmark(run)
    assert index.num_pages > 0
