"""Tests for repro.backend.aggregate against a brute-force reference
and against the sorted (``np.unique``) grouping the kernel replaced."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import aggregate
from repro.backend.aggregate import (
    AGGREGATES,
    DENSE_SPAN_MULTIPLE,
    PARTIAL_AGGREGATES,
    LevelMapper,
    aggregate_chunks,
    aggregate_records,
    finalize_partials,
    partials_format_aggregates,
    reaggregate,
)
from repro.chunks.grid import ChunkSpace
from repro.exceptions import BackendError
from repro.schema.builder import build_star_schema
from repro.storage.chunkedfile import tuple_chunk_numbers
from repro.storage.record import fact_record_format, groupby_record_format
from repro.workload.data import generate_fact_table
from tests.conftest import brute_force_aggregate, canon_rows
from tests.reference.grouping import reference_finalize, reference_grouping
from tests.reference.navigation import ReferenceHierarchy


@pytest.fixture()
def mapper(small_schema):
    return LevelMapper(small_schema)


class TestLevelMapper:
    def test_identity(self, small_schema, mapper):
        table = mapper.table(0, 2, 2)
        assert np.array_equal(table, np.arange(10))

    def test_one_step(self, small_schema, mapper):
        d0 = small_schema.dimensions[0]
        table = mapper.table(0, 2, 1)
        for leaf in range(10):
            assert table[leaf] == d0.ancestor_ordinal(2, leaf, 1)

    def test_memoized(self, mapper):
        assert mapper.table(0, 2, 1) is mapper.table(0, 2, 1)

    def test_upward_only(self, mapper):
        with pytest.raises(BackendError):
            mapper.table(0, 1, 2)

    def test_multi_step(self):
        schema = build_star_schema([[2, 4, 16]])
        mapper = LevelMapper(schema)
        dim = schema.dimensions[0]
        table = mapper.table(0, 3, 1)
        for leaf in range(16):
            assert table[leaf] == dim.ancestor_ordinal(3, leaf, 1)

    def test_every_level_pair_matches_the_reference(self):
        """Uneven fanouts: each table entry is the ancestor the brute-force
        reference finds by scanning parents."""
        schema = build_star_schema([[3, 7, 20, 41]], fanout="random", seed=5)
        mapper = LevelMapper(schema)
        hierarchy = schema.dimensions[0].hierarchy
        reference = ReferenceHierarchy(
            [level.cardinality for level in hierarchy],
            [hierarchy.descendant_starts(level, level + 1) for level in (1, 2, 3)],
        )
        for from_level in range(1, 5):
            for to_level in range(1, from_level + 1):
                table = mapper.table(0, from_level, to_level)
                assert table.dtype == np.int64
                assert table.tolist() == [
                    reference.ancestor_ordinal(from_level, ordinal, to_level)
                    for ordinal in range(hierarchy.cardinality(from_level))
                ]


class TestAggregateRecords:
    @pytest.mark.parametrize("groupby", [(2, 2), (1, 1), (1, 0), (0, 2), (0, 0)])
    def test_matches_brute_force(self, small_schema, small_records, mapper, groupby):
        aggregates = [("v", "sum"), ("v", "count")]
        rows = aggregate_records(
            small_schema, small_records, groupby, aggregates, mapper
        )
        assert canon_rows(rows) == brute_force_aggregate(
            small_schema, small_records, groupby, aggregates
        )

    @pytest.mark.parametrize("agg", ["min", "max", "avg"])
    def test_other_aggregates(self, small_schema, small_records, mapper, agg):
        rows = aggregate_records(
            small_schema, small_records, (1, 1), [("v", agg)], mapper
        )
        assert canon_rows(rows) == brute_force_aggregate(
            small_schema, small_records, (1, 1), [("v", agg)]
        )

    def test_selection_filter(self, small_schema, small_records, mapper):
        selection = ((1, 3), None)
        rows = aggregate_records(
            small_schema,
            small_records,
            (1, 1),
            [("v", "sum")],
            mapper,
            selection=selection,
        )
        assert canon_rows(rows) == brute_force_aggregate(
            small_schema, small_records, (1, 1), [("v", "sum")],
            selections=selection,
        )
        assert np.all((rows["D0"] >= 1) & (rows["D0"] < 3))

    def test_empty_input(self, small_schema, mapper):
        empty = fact_record_format(small_schema).empty()
        rows = aggregate_records(
            small_schema, empty, (1, 1), [("v", "sum")], mapper
        )
        assert len(rows) == 0

    def test_finer_record_groupby_rejected(self, small_schema, small_records, mapper):
        with pytest.raises(BackendError):
            aggregate_records(
                small_schema,
                small_records,
                (2, 2),
                [("v", "sum")],
                mapper,
                record_groupby=(1, 1),
            )

    def test_output_sorted_by_group_key(self, small_schema, small_records, mapper):
        rows = aggregate_records(
            small_schema, small_records, (1, 1), [("v", "sum")], mapper
        )
        keys = rows["D0"].astype(np.int64) * 4 + rows["D1"]
        assert np.all(np.diff(keys) > 0)


class TestReaggregate:
    def test_matches_direct_aggregation(self, small_schema, small_records, mapper):
        aggregates = [("v", "sum"), ("v", "count"), ("v", "min")]
        fine = aggregate_records(
            small_schema, small_records, (2, 1), aggregates, mapper
        )
        merged = reaggregate(
            small_schema, fine, (2, 1), (1, 0), aggregates, mapper
        )
        direct = aggregate_records(
            small_schema, small_records, (1, 0), aggregates, mapper
        )
        assert canon_rows(merged) == canon_rows(direct)

    def test_avg_rejected(self, small_schema, small_records, mapper):
        fine = aggregate_records(
            small_schema, small_records, (2, 2), [("v", "avg")], mapper
        )
        with pytest.raises(BackendError):
            reaggregate(
                small_schema, fine, (2, 2), (1, 1), [("v", "avg")], mapper
            )

    def test_coarser_source_rejected(self, small_schema, small_records, mapper):
        coarse = aggregate_records(
            small_schema, small_records, (1, 1), [("v", "sum")], mapper
        )
        with pytest.raises(BackendError):
            reaggregate(
                small_schema, coarse, (1, 1), (2, 2), [("v", "sum")], mapper
            )

    def test_with_selection(self, small_schema, small_records, mapper):
        aggregates = [("v", "sum")]
        fine = aggregate_records(
            small_schema, small_records, (2, 2), aggregates, mapper
        )
        merged = reaggregate(
            small_schema, fine, (2, 2), (1, 1), aggregates, mapper,
            selection=((0, 2), None),
        )
        direct = aggregate_records(
            small_schema, small_records, (1, 1), aggregates, mapper,
            selection=((0, 2), None),
        )
        assert canon_rows(merged) == canon_rows(direct)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(0, 150),
    seed=st.integers(0, 99),
    level0=st.integers(0, 2),
    level1=st.integers(0, 2),
)
def test_aggregation_matches_brute_force_property(n, seed, level0, level1):
    schema = build_star_schema([[3, 9], [2, 6]], measure_names=("v",))
    records = generate_fact_table(schema, n, seed=seed)
    mapper = LevelMapper(schema)
    aggregates = [("v", "sum"), ("v", "count")]
    rows = aggregate_records(
        schema, records, (level0, level1), aggregates, mapper
    )
    assert canon_rows(rows) == brute_force_aggregate(
        schema, records, (level0, level1), aggregates
    )


# ----------------------------------------------------------------------
# The grouping kernel against the sorted grouping it replaced
# (tests/reference/grouping.py)
# ----------------------------------------------------------------------
def identical(actual, expected):
    """Same dtype, same row order, every float equal to the bit."""
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


def on_every_side(call):
    """``call()`` under the shipped constant, with every call forced to
    the sorted side, and with every call forced to the dense side (so
    only for key spans small enough to allocate)."""
    results = [call()]
    for multiple in (0, 10**12):
        with mock.patch.object(aggregate, "DENSE_SPAN_MULTIPLE", multiple):
            results.append(call())
    return results


def intervals(draw, size):
    """None, or a half-open interval over ``[0, size]`` (maybe empty)."""
    if draw(st.booleans()):
        return None
    lo = draw(st.integers(0, size))
    return (lo, draw(st.integers(lo, size)))


@st.composite
def grouping_cases(draw, aggregate_names):
    """A random cube, records at a random ``from`` group-by, a coarser
    ``to`` group-by, optional filters and a random aggregate list."""
    num_dims = draw(st.integers(1, 5))
    cardinalities = [
        sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
        for _ in range(num_dims)
    ]
    schema = build_star_schema(
        cardinalities,
        measure_names=("v", "w"),
        fanout="random",
        seed=draw(st.integers(0, 10_000)),
    )
    from_groupby, to_groupby, selection, leaf_filters = [], [], [], []
    for dim in schema.dimensions:
        f_level = draw(st.integers(0, dim.leaf_level))
        t_level = draw(st.integers(0, f_level))
        from_groupby.append(f_level)
        to_groupby.append(t_level)
        selection.append(
            intervals(draw, dim.cardinality(t_level)) if t_level else None
        )
        leaf_filters.append(
            intervals(draw, dim.leaf_cardinality)
            if f_level == dim.leaf_level
            else None
        )
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    records = fact_record_format(schema).empty(n)
    for dim, f_level in zip(schema.dimensions, from_groupby):
        if f_level:
            records[dim.name] = rng.integers(0, dim.cardinality(f_level), n)
    # Values far apart in magnitude: a sum taken in any other order
    # would differ in its last bits.
    for measure in ("v", "w"):
        records[measure] = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(
            -8, 9, n
        )
    aggregates = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("v", "w")), st.sampled_from(aggregate_names)
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    if draw(st.booleans()):
        selection = None
    if draw(st.booleans()):
        leaf_filters = None
    return (
        schema, records, tuple(from_groupby), tuple(to_groupby),
        aggregates, selection, leaf_filters,
    )


@settings(max_examples=150, deadline=None)
@given(case=grouping_cases(("sum", "count", "min", "max", "avg")))
def test_aggregate_records_identical_to_sorted_grouping(case):
    schema, records, from_gb, to_gb, aggregates, selection, filters = case
    mapper = LevelMapper(schema)
    expected = reference_grouping(
        schema, records, from_gb, to_gb, aggregates, mapper,
        selection, filters,
    )
    for rows in on_every_side(
        lambda: aggregate_records(
            schema, records, to_gb, aggregates, mapper,
            record_groupby=from_gb, selection=selection,
            leaf_filters=filters,
        )
    ):
        assert identical(rows, expected)


@settings(max_examples=100, deadline=None)
@given(case=grouping_cases(PARTIAL_AGGREGATES))
def test_reaggregate_identical_to_sorted_grouping(case):
    schema, records, from_gb, to_gb, aggregates, selection, _ = case
    mapper = LevelMapper(schema)
    fine = reference_grouping(
        schema, records, from_gb, from_gb, aggregates, mapper
    )
    expected = reference_grouping(
        schema, fine, from_gb, to_gb, aggregates, mapper, selection,
        merge_partials=True,
    )
    for rows in on_every_side(
        lambda: reaggregate(
            schema, fine, from_gb, to_gb, aggregates, mapper,
            selection=selection,
        )
    ):
        assert identical(rows, expected)


@settings(max_examples=60, deadline=None)
@given(case=grouping_cases(("sum", "count", "min", "max", "avg")))
def test_finalize_partials_identical_to_sorted_grouping(case):
    schema, records, from_gb, to_gb, requested, _, _ = case
    mapper = LevelMapper(schema)
    stored = partials_format_aggregates(schema)
    partials = reference_grouping(
        schema, records, from_gb, from_gb, stored, mapper
    )
    expected = reference_finalize(
        schema, partials, from_gb, to_gb, stored, requested, mapper
    )
    for rows in on_every_side(
        lambda: finalize_partials(
            schema, partials, from_gb, to_gb, requested, mapper
        )
    ):
        assert identical(rows, expected)


@settings(max_examples=100, deadline=None)
@given(
    case=grouping_cases(("sum", "count", "min", "max", "avg")),
    ratio=st.sampled_from([0.1, 0.3, 0.6, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_aggregate_chunks_is_the_result_grouped_by_chunk(case, ratio, seed):
    """Rows in ascending chunk number, each chunk's rows in the order the
    ungrouped result holds them (a stable sort by chunk number), and the
    number of every row's chunk beside them."""
    schema, _, from_gb, to_gb, aggregates, _, _ = case
    mapper = LevelMapper(schema)
    grid = ChunkSpace(schema, ratio).grid(to_gb)
    # Base tuples (the case's records are at its finer group-by), with
    # leaf filters on any dimension.
    base = schema.base_groupby
    rng = np.random.default_rng(seed)
    records = generate_fact_table(schema, int(rng.integers(0, 400)), seed=seed)
    records["w"] *= 10.0 ** rng.integers(-8, 9, len(records))
    filters = [
        None if rng.integers(2) else tuple(sorted(
            rng.integers(0, dim.leaf_cardinality + 1, 2).tolist()
        ))
        for dim in schema.dimensions
    ]
    flat = reference_grouping(
        schema, records, base, to_gb, aggregates, mapper, leaf_filters=filters
    )
    names = tuple(dim.name for dim in schema.dimensions)
    owners = tuple_chunk_numbers(grid, flat, names)
    order = np.argsort(owners, kind="stable")
    for rows, numbers in on_every_side(
        lambda: aggregate_chunks(
            schema, records, grid, aggregates, mapper, leaf_filters=filters
        )
    ):
        assert identical(rows, flat[order])
        assert identical(numbers, owners[order])
    # From a table of partials at the drawn finer group-by.
    stored = partials_format_aggregates(schema)
    fine = reference_grouping(schema, records, base, from_gb, stored, mapper)
    flat = reference_finalize(
        schema, fine, from_gb, to_gb, stored, aggregates, mapper
    )
    owners = tuple_chunk_numbers(grid, flat, names)
    order = np.argsort(owners, kind="stable")
    for rows, numbers in on_every_side(
        lambda: aggregate_chunks(
            schema, fine, grid, aggregates, mapper, partials_at=from_gb
        )
    ):
        assert identical(rows, flat[order])
        assert identical(numbers, owners[order])


class TestDenseSortedChoice:
    """The choice is made from the key span and the record count."""

    @staticmethod
    def records_spanning(schema, n, span, seed):
        """``n`` records of a (40 x 25) cube whose group keys run from 0
        to exactly ``span - 1``."""
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, span, n)
        keys[0], keys[-1] = 0, span - 1
        records = fact_record_format(schema).empty(n)
        records["D0"], records["D1"] = np.divmod(keys, 25)
        records["v"] = rng.uniform(-1e6, 1e6, n)
        return records

    @pytest.mark.parametrize("n", [2, 7, 100])
    @pytest.mark.parametrize("excess", [-1, 0, 1])
    def test_boundary_is_span_equal_multiple_times_n(self, n, excess):
        schema = build_star_schema([[40], [25]], measure_names=("v",))
        mapper = LevelMapper(schema)
        span = DENSE_SPAN_MULTIPLE * n + excess
        records = self.records_spanning(schema, n, span, seed=n)
        aggregates = [("v", "sum"), ("v", "min"), ("v", "count")]
        expected = reference_grouping(
            schema, records, (1, 1), (1, 1), aggregates, mapper
        )
        with mock.patch.object(
            aggregate.np, "unique", wraps=np.unique
        ) as sort:
            rows = aggregate_records(
                schema, records, (1, 1), aggregates, mapper
            )
        assert identical(rows, expected)
        # Dense up to and including span == multiple * n, sorted beyond.
        assert sort.call_count == (1 if excess > 0 else 0)

    @settings(max_examples=200, deadline=None)
    @given(
        low=st.integers(-(2**40), 2**40),
        offsets=st.lists(st.integers(0, 5000), min_size=1, max_size=400),
    )
    def test_distinct_equals_np_unique(self, low, offsets):
        keys = low + np.array(offsets, dtype=np.int64)
        expected_keys, expected_inverse = np.unique(
            keys, return_inverse=True
        )
        expected_counts = np.bincount(expected_inverse)
        values = np.linspace(-1.0, 1.0, len(keys))
        expected_sums = np.bincount(expected_inverse, weights=values)
        for cells in on_every_side(lambda: aggregate._Cells(keys.copy())):
            assert identical(cells.cells, expected_keys)
            assert identical(cells.ranks(), expected_inverse)
            assert identical(cells.counts(), expected_counts)
            assert identical(cells.reduce("sum", values), expected_sums)

    def test_dense_scratch_is_bounded_per_cell(self):
        """The dense side's scratch is one span-sized bincount at a time
        (8 bytes per cell of the span, read at the occupied cells before
        the next is taken); with the per-record key, index and value
        temporaries that is under 10 bytes per cell plus 48 per record —
        the bound that keeps it out of ``peak_rss_mb``."""
        schema = build_star_schema([[400], [1000]], measure_names=("v",))
        mapper = LevelMapper(schema)
        n = 50_000
        span = DENSE_SPAN_MULTIPLE * n
        rng = np.random.default_rng(3)
        keys = rng.integers(0, span, n)
        keys[0], keys[-1] = 0, span - 1
        records = fact_record_format(schema).empty(n)
        records["D0"], records["D1"] = np.divmod(keys, 1000)
        records["v"] = 1.0
        for aggregate in AGGREGATES:
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                rows = aggregate_records(
                    schema, records, (1, 1), [("v", aggregate)], mapper
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(rows) == len(np.unique(keys))
            assert peak - before - rows.nbytes <= 10 * span + 48 * n, aggregate


class TestKeySpaceOverflow:
    """Five dimensions of 10 000 members: 10**20 cells do not fit int64
    (the mixed-radix key used to wrap silently)."""

    @pytest.fixture(scope="class")
    def wide_schema(self):
        return build_star_schema([[10_000]] * 5, measure_names=("m",))

    def test_aggregate_records_refuses(self, wide_schema):
        records = fact_record_format(wide_schema).from_tuples(
            [(1844, 9999, 9999, 9999, 9999, 1.0)]
        )
        with pytest.raises(BackendError, match="overflow int64"):
            aggregate_records(
                wide_schema, records, wide_schema.base_groupby,
                [("m", "sum")], LevelMapper(wide_schema),
            )

    def test_reaggregate_refuses(self, wide_schema):
        base = wide_schema.base_groupby
        aggregates = [("m", "sum")]
        rows = groupby_record_format(wide_schema, base, aggregates).empty(1)
        with pytest.raises(BackendError, match="overflow int64"):
            reaggregate(
                wide_schema, rows, base, base, aggregates,
                LevelMapper(wide_schema),
            )

    def test_widest_fitting_group_by_is_exact(self, wide_schema):
        # Four of the five dimensions: 10**16 cells, strides up to 10**12.
        records = fact_record_format(wide_schema).from_tuples(
            [(1844, 9999, 9999, 9999, 7, 1.0), (1844, 9999, 9999, 9999, 8, 2.0)]
        )
        rows = aggregate_records(
            wide_schema, records, (1, 1, 1, 1, 0), [("m", "sum")],
            LevelMapper(wide_schema),
        )
        assert rows.tolist() == [(1844, 9999, 9999, 9999, 3.0)]
