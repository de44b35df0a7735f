"""Shared fixtures: small schemas, generated data, loaded engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.engine import BackendEngine
from repro.chunks.grid import ChunkSpace
from repro.pipeline.stages import select_exact
from repro.schema.builder import build_star_schema
from repro.storage.record import fact_record_format
from repro.workload.data import generate_fact_table


@pytest.fixture(scope="session")
def small_schema():
    """2-D schema with hierarchies: D0 (5, 10) and D1 (4, 8)."""
    return build_star_schema(
        [[5, 10], [4, 8]], measure_names=("v",), name="small"
    )


@pytest.fixture(scope="session")
def paper_schema():
    """The Table 1 schema: 4 dimensions, hierarchy sizes 3/2/3/2."""
    return build_star_schema(
        [(25, 50, 100), (25, 50), (5, 25, 50), (10, 50)],
        measure_names=("sales",),
        name="table1",
    )


@pytest.fixture(scope="session")
def small_space(small_schema):
    """Chunk geometry for the small schema at ratio 0.25."""
    return ChunkSpace(small_schema, 0.25, base_tuples=5000)


@pytest.fixture(scope="session")
def small_records(small_schema):
    """5000 uniform tuples for the small schema."""
    return generate_fact_table(small_schema, 5000, seed=11)


@pytest.fixture(scope="session")
def small_engine(small_schema, small_space, small_records):
    """A loaded chunked backend over the small schema (session shared).

    Tests that only *read* may share it; tests that need clean counters
    should flush/reset or build their own engine.
    """
    return BackendEngine.build(
        small_schema,
        small_space,
        small_records,
        organization="chunked",
        page_size=1024,
        buffer_pool_pages=16,
    )


@pytest.fixture()
def fresh_small_engine(small_schema, small_records):
    """A private engine (own space) for tests that mutate counters."""
    space = ChunkSpace(small_schema, 0.25)
    return BackendEngine.build(
        small_schema,
        space,
        small_records,
        organization="chunked",
        page_size=1024,
        buffer_pool_pages=16,
    )


@pytest.fixture(scope="session")
def paper_space(paper_schema):
    """Chunk geometry for the paper schema at the default ratio."""
    return ChunkSpace(paper_schema, 0.2)


@pytest.fixture(scope="session")
def paper_records(paper_schema):
    """30 000 uniform tuples for the paper schema."""
    return generate_fact_table(paper_schema, 30_000, seed=5)


@pytest.fixture(scope="session")
def paper_engine(paper_schema, paper_space, paper_records):
    """A loaded chunked backend over the paper schema (session shared)."""
    return BackendEngine.build(
        paper_schema,
        paper_space,
        paper_records,
        organization="chunked",
        buffer_pool_pages=32,
    )


def brute_force_aggregate(schema, records, groupby, aggregates, selections=None):
    """Reference group-by aggregation in plain Python dictionaries."""
    groups: dict[tuple, dict[str, list[float]]] = {}
    for row in records:
        key = []
        keep = True
        for pos, (dim, level) in enumerate(zip(schema.dimensions, groupby)):
            if level == 0:
                continue
            ordinal = int(row[dim.name])
            if level != dim.leaf_level:
                ordinal = dim.ancestor_ordinal(dim.leaf_level, ordinal, level)
            interval = selections[pos] if selections else None
            if interval is not None and not interval[0] <= ordinal < interval[1]:
                keep = False
                break
            key.append(ordinal)
        if not keep:
            continue
        bucket = groups.setdefault(tuple(key), {})
        for measure in {m for m, _ in aggregates}:
            bucket.setdefault(measure, []).append(float(row[measure]))
    results = []
    for key, bucket in groups.items():
        out = list(key)
        for measure, agg in aggregates:
            values = bucket[measure]
            if agg == "sum":
                out.append(sum(values))
            elif agg == "count":
                out.append(len(values))
            elif agg == "min":
                out.append(min(values))
            elif agg == "max":
                out.append(max(values))
            elif agg == "avg":
                out.append(sum(values) / len(values))
        results.append(
            tuple(
                round(v, 6) if isinstance(v, float) else v for v in out
            )
        )
    return sorted(results)


def canon_rows(rows: np.ndarray) -> list[tuple]:
    """Rows as sorted tuples with rounded floats, for comparisons."""
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in map(tuple, rows.tolist())
    )


def answer_from_chunks(engine, query):
    """A query answered through the chunk interface, as the middle tier
    does on a full miss: ``compute_chunks`` over the chunks its selection
    touches, joined and trimmed to the exact selection."""
    grid = engine.space.grid(query.groupby)
    numbers = grid.chunk_numbers_for_selection(query.selections)
    chunks, report = engine.compute_chunks(
        query.groupby, numbers, query.aggregates,
        leaf_filters=query.effective_dim_filters(engine.schema),
    )
    rows = np.concatenate([chunks[number] for number in numbers])
    return select_exact(engine.schema, query, rows), report
