"""``compute_chunks`` against the sorting reference, chunk by chunk.

Every chunk the engine computes must be byte-identical to
``tests/reference/grouping.py`` run over the chunk's source tuples in
the order the engine reads them: the clustered file's tuples in file
order and then the delta region's, or a materialized table's partial
rows in its file order.  The cases draw what no workload runs: random
cubes and group-bys, any chunk set in any order, all five aggregates,
leaf filters, appended tuples and materialized sources.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backend.aggregate import partials_format_aggregates
from repro.backend.engine import BackendEngine
from repro.chunks.grid import ChunkSpace
from repro.schema.builder import build_star_schema
from repro.storage.chunkedfile import tuple_chunk_numbers
from repro.workload.data import generate_fact_table
from tests.reference.grouping import reference_finalize, reference_grouping

AGGREGATES = ("sum", "count", "min", "max", "avg")


def spread(records, rng):
    """Measures far apart in magnitude: a sum taken in any other order
    would differ in its last bits."""
    for measure in ("v", "w"):
        records[measure] *= 10.0 ** rng.integers(-8, 9, len(records))
    return records


@st.composite
def engines(draw):
    """A loaded engine, maybe with appended tuples and a materialized
    table, and one ``compute_chunks`` request against it."""
    cardinalities = [
        sorted(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    schema = build_star_schema(
        cardinalities,
        measure_names=("v", "w"),
        fanout="random",
        seed=draw(st.integers(0, 10_000)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    records = spread(
        generate_fact_table(
            schema, draw(st.integers(1, 600)), seed=int(rng.integers(1000))
        ),
        rng,
    )
    engine = BackendEngine.build(
        schema,
        ChunkSpace(schema, draw(st.sampled_from([0.2, 0.5, 1.0]))),
        records,
        page_size=256,
        buffer_pool_pages=draw(st.sampled_from([2, 16])),
    )
    if draw(st.booleans()):
        appended = generate_fact_table(
            schema, draw(st.integers(1, 60)), seed=int(rng.integers(1000))
        )
        engine.append_records(spread(appended, rng))
    groupby = tuple(
        draw(st.integers(0, dim.leaf_level)) for dim in schema.dimensions
    )
    if draw(st.integers(0, 3)):
        # The target itself half the time: the smallest table, so the
        # one the engine most often prefers to the base table.
        source = groupby if draw(st.booleans()) else tuple(
            draw(st.integers(level, dim.leaf_level))
            for dim, level in zip(schema.dimensions, groupby)
        )
        if source != schema.base_groupby:
            engine.materialize(source)
    num_chunks = engine.space.grid(groupby).num_chunks
    numbers = draw(
        st.lists(
            st.integers(0, num_chunks - 1),
            min_size=1,
            max_size=num_chunks,
            unique=True,
        )
    )
    aggregates = draw(
        st.lists(
            st.tuples(st.sampled_from(("v", "w")), st.sampled_from(AGGREGATES)),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    leaf_filters = None
    if draw(st.booleans()):
        leaf_filters = []
        for dim in schema.dimensions:
            lo = draw(st.integers(0, dim.leaf_cardinality))
            hi = draw(st.integers(lo, dim.leaf_cardinality))
            leaf_filters.append(draw(st.sampled_from([None, (lo, hi)])))
    prefer_base = draw(st.integers(0, 3)) == 0
    return engine, (groupby, numbers, aggregates, leaf_filters, prefer_base)


def expected_rows(engine, groupby, aggregates, leaf_filters, prefer_base):
    """The reference over all of the source the engine reads from: its
    rows, ascending by row-major key."""
    schema, mapper = engine.schema, engine.mapper
    source = None if prefer_base else engine._choose_source(
        groupby, leaf_filters
    )
    if source is None:
        parts = [engine.chunked_file.read_all().to_records()]
        if engine.delta_file is not None:
            parts.append(engine.delta_file.read_all().to_records())
        return reference_grouping(
            schema, np.concatenate(parts), schema.base_groupby, groupby,
            aggregates, mapper, leaf_filters=leaf_filters,
        )
    source_groupby, table = source
    return reference_finalize(
        schema, table.read_all().to_records(), source_groupby, groupby,
        partials_format_aggregates(schema), aggregates, mapper,
    )


@settings(max_examples=150, deadline=None)
@given(case=engines())
def test_every_chunk_is_the_reference_over_its_source(case):
    engine, (groupby, numbers, aggregates, leaf_filters, prefer_base) = case
    chunks, report = engine.compute_chunks(
        groupby, numbers, aggregates,
        leaf_filters=leaf_filters, prefer_base=prefer_base,
    )
    expected = expected_rows(
        engine, groupby, aggregates, leaf_filters, prefer_base
    )
    owners = tuple_chunk_numbers(
        engine.space.grid(groupby),
        expected,
        tuple(dim.name for dim in engine.schema.dimensions),
    )
    assert list(chunks) == numbers
    for number in numbers:
        want = expected[owners == number]
        assert chunks[number].dtype == want.dtype
        assert chunks[number].tobytes() == want.tobytes()
    assert report.chunks_computed == len(numbers)
    assert report.result_tuples == sum(len(rows) for rows in chunks.values())
