"""Tests for repro.backend.engine — access paths, chunk interface, costs."""

import numpy as np
import pytest

from repro.api import build_backend
from repro.backend.engine import BackendEngine
from repro.chunks.grid import ChunkSpace
from repro.exceptions import BackendError
from repro.experiments.configs import SMOKE_SCALE, build_paper_schema
from repro.query.model import StarQuery
from repro.schema.builder import build_star_schema
from repro.workload.data import generate_fact_table
from tests.conftest import answer_from_chunks, brute_force_aggregate, canon_rows


class TestConstruction:
    def test_build_resets_counters(self, small_schema, small_records):
        space = ChunkSpace(small_schema, 0.25)
        engine = BackendEngine.build(
            small_schema, space, small_records, page_size=1024
        )
        assert engine.disk.stats.reads == 0
        assert engine.num_records == len(small_records)
        assert engine.num_data_pages > 0
        assert space.base_tuples == len(small_records)

    def test_unknown_organization_rejected(self, small_schema):
        space = ChunkSpace(small_schema, 0.25)
        with pytest.raises(BackendError):
            BackendEngine(small_schema, space, organization="columnar")

    def test_double_load_rejected(self, small_schema, small_records):
        space = ChunkSpace(small_schema, 0.25)
        engine = BackendEngine.build(small_schema, space, small_records)
        with pytest.raises(BackendError):
            engine.load(small_records)

    def test_unloaded_access_rejected(self, small_schema):
        space = ChunkSpace(small_schema, 0.25)
        engine = BackendEngine(small_schema, space)
        with pytest.raises(BackendError):
            engine.answer(StarQuery.build(small_schema, (1, 1)))

    def test_wrong_dtype_rejected(self, small_schema):
        space = ChunkSpace(small_schema, 0.25)
        engine = BackendEngine(small_schema, space)
        with pytest.raises(BackendError):
            engine.load(np.zeros(2, dtype=[("x", "i8")]))

    @pytest.mark.parametrize("organization", ["chunked", "random"])
    @pytest.mark.parametrize("bad", [-1, "cardinality"])
    def test_out_of_range_ordinals_rejected(
        self, small_schema, small_records, organization, bad
    ):
        """No organization loads a record that no bitmap would hold."""
        dim = small_schema.dimensions[1]
        records = small_records.copy()
        records[dim.name][7] = (
            dim.leaf_cardinality if bad == "cardinality" else bad
        )
        engine = BackendEngine(
            small_schema, ChunkSpace(small_schema, 0.25), organization
        )
        with pytest.raises(BackendError, match=repr(dim.name)):
            engine.load(records)
        assert engine.disk.num_pages == 0

    def test_random_organization_has_no_chunk_interface(
        self, small_schema, small_records
    ):
        space = ChunkSpace(small_schema, 0.25)
        engine = BackendEngine.build(
            small_schema, space, small_records, organization="random"
        )
        with pytest.raises(BackendError):
            engine.compute_chunks((1, 1), [0], [("v", "sum")])
        with pytest.raises(BackendError):
            engine.estimate_chunk_work((1, 1), [0])

    @pytest.mark.parametrize("organization", ["chunked", "random"])
    def test_every_page_is_read_by_a_read_path(
        self, small_schema, small_records, organization
    ):
        """A load allocates no page that no read path ever reads."""
        space = ChunkSpace(small_schema, 0.25)
        engine = build_backend(
            small_schema, space, small_records,
            organization=organization, page_size=256,
        )
        read = set()
        engine.disk.read_hook = lambda page_id: read.add(page_id) or 0.0
        if engine.chunked_file is not None:
            engine.chunked_file.read_all()
            # One descent per chunk reaches every node at any height.
            for number in range(space.base_grid.num_chunks):
                engine.chunked_file.chunk_index.search(number)
        else:
            engine.fact_file.read_all()
        assert engine.bitmaps
        for bitmap in engine.bitmaps.values():
            bitmap.select_range(0, bitmap.cardinality)
        assert read == set(range(engine.disk.num_pages))


class TestEachByteKeptOnce:
    """A loaded engine holds its records once, in the fact file's
    column image: fact-file and bitmap pages are charged, not stored."""

    @pytest.mark.parametrize("organization", ["chunked", "random"])
    def test_only_chunk_index_nodes_hold_bytes(self, organization):
        """After a smoke-scale load the page table holds bytes for the
        B-tree chunk-index nodes alone; every fact and bitmap page holds
        the empty marker."""
        schema = build_paper_schema()
        space = ChunkSpace(schema, SMOKE_SCALE.chunk_ratio)
        records = generate_fact_table(
            schema, SMOKE_SCALE.num_tuples, seed=SMOKE_SCALE.seed
        )
        engine = BackendEngine.build(
            schema, space, records, organization,
            page_size=SMOKE_SCALE.page_size,
        )
        nodes = set()
        if engine.chunked_file is not None:
            # One descent per chunk reads every node at least once.
            engine.disk.read_hook = lambda page_id: nodes.add(page_id) or 0.0
            for number in range(space.base_grid.num_chunks):
                engine.chunked_file.chunk_index.search(number)
            engine.disk.read_hook = None
            assert nodes
        table = engine.disk._pages
        assert {pid for pid, data in enumerate(table) if data} == nodes
        assert all(
            table[pid] == b"" for pid in range(len(table)) if pid not in nodes
        )
        assert len(table) - len(nodes) == engine.num_data_pages + sum(
            index.num_pages for index in engine.bitmaps.values()
        )

    def test_bitmaps_do_not_alias_the_loaded_array(
        self, small_schema, small_records
    ):
        """Writing to the caller's array after a random-order load moves
        no bitmap answer and no bitmap-path row."""
        records = small_records.copy()
        engine = BackendEngine.build(
            small_schema, ChunkSpace(small_schema, 0.25), records, "random"
        )
        query = StarQuery.build(
            small_schema, (1, 1), {"D0": (2, 8), "D1": (0, 3)}
        )

        def answers():
            masks = [
                index.read_bitmap(value).tolist()
                for index in engine.bitmaps.values()
                for value in range(index.cardinality)
            ]
            return masks, canon_rows(engine.answer(query, "bitmap")[0])

        before = answers()
        for dim in small_schema.dimensions:
            records[dim.name] = (records[dim.name] + 1) % dim.leaf_cardinality
        assert answers() == before


class TestAccessPathsAgree:
    @pytest.mark.parametrize(
        "groupby,selections",
        [
            ((1, 1), {"D0": (1, 4)}),
            ((2, 1), {"D0": (2, 8), "D1": (0, 3)}),
            ((1, 0), {"D0": (0, 3)}),
            ((2, 2), None),
            ((0, 1), None),
        ],
    )
    def test_three_paths_same_answer(
        self, small_schema, fresh_small_engine, groupby, selections
    ):
        query = StarQuery.build(small_schema, groupby, selections)
        scan_rows, _ = fresh_small_engine.answer(query, "scan")
        bitmap_rows, _ = fresh_small_engine.answer(query, "bitmap")
        chunk_rows, _ = answer_from_chunks(fresh_small_engine, query)
        assert canon_rows(scan_rows) == canon_rows(bitmap_rows)
        assert canon_rows(scan_rows) == canon_rows(chunk_rows)

    def test_matches_brute_force(self, small_schema, fresh_small_engine,
                                 small_records):
        query = StarQuery.build(small_schema, (1, 2), {"D1": (2, 6)})
        rows, _ = answer_from_chunks(fresh_small_engine, query)
        assert canon_rows(rows) == brute_force_aggregate(
            small_schema,
            small_records,
            (1, 2),
            list(query.aggregates),
            selections=query.selections,
        )

    def test_auto_path_selection(
        self, small_schema, small_records, fresh_small_engine
    ):
        with_selection = StarQuery.build(small_schema, (1, 1), {"D0": (0, 2)})
        _, report = fresh_small_engine.answer(with_selection)
        assert report.access_path == "bitmap"
        no_selection = StarQuery.build(small_schema, (1, 1))
        _, report = fresh_small_engine.answer(no_selection)
        assert report.access_path == "scan"
        # An empty table has no bitmaps: auto scans, bitmap is refused.
        empty = BackendEngine.build(
            small_schema, ChunkSpace(small_schema, 0.25), small_records[:0]
        )
        _, report = empty.answer(with_selection)
        assert report.access_path == "scan"
        with pytest.raises(BackendError, match="bitmap indexes were not built"):
            empty.answer(with_selection, "bitmap")

    def test_unknown_path_rejected(self, small_schema, fresh_small_engine):
        # Chunks come from compute_chunks; "chunk" is no access path.
        query = StarQuery.build(small_schema, (1, 1))
        for path in ("quantum", "chunk"):
            with pytest.raises(
                BackendError, match=f"unknown access path '{path}'"
            ):
                fresh_small_engine.answer(query, path)


class TestComputeChunks:
    def test_chunks_cover_grid(self, small_schema, fresh_small_engine):
        space = fresh_small_engine.space
        groupby = (1, 1)
        grid = space.grid(groupby)
        numbers = list(range(grid.num_chunks))
        chunks, report = fresh_small_engine.compute_chunks(
            groupby, numbers, [("v", "sum"), ("v", "count")]
        )
        assert set(chunks) == set(numbers)
        total = int(sum(c["count_v"].sum() for c in chunks.values()))
        assert total == fresh_small_engine.num_records
        assert report.chunks_computed == len(numbers)
        assert report.pages_read > 0

    def test_rows_stay_inside_chunk(self, small_schema, fresh_small_engine):
        space = fresh_small_engine.space
        groupby = (2, 1)
        grid = space.grid(groupby)
        chunks, _ = fresh_small_engine.compute_chunks(
            groupby, [0, 3], [("v", "sum")]
        )
        for number, rows in chunks.items():
            ranges = grid.cell_ranges(number)
            for rng, name in zip(ranges, ("D0", "D1")):
                if rng is None or not len(rows):
                    continue
                assert np.all((rows[name] >= rng.lo) & (rows[name] < rng.hi))

    def test_batch_split_equals_one_chunk_at_a_time(self, small_schema):
        """Any request order, empty chunks included: each chunk's rows,
        in their order, are what computing that chunk alone returns."""
        space = ChunkSpace(small_schema, 0.25)
        engine = BackendEngine.build(
            small_schema, space,
            generate_fact_table(small_schema, 25, seed=3),
            page_size=1024,
        )
        groupby = (2, 2)
        aggregates = [("v", "sum"), ("v", "count")]
        numbers = list(range(space.grid(groupby).num_chunks))
        numbers = numbers[1::2][::-1] + numbers[0::2]
        batch, report = engine.compute_chunks(groupby, numbers, aggregates)
        assert list(batch) == numbers
        assert any(len(rows) == 0 for rows in batch.values())
        assert report.result_tuples == sum(len(r) for r in batch.values())
        for number in numbers:
            alone, _ = engine.compute_chunks(groupby, [number], aggregates)
            assert batch[number].dtype == alone[number].dtype
            assert np.array_equal(batch[number], alone[number])
            assert batch[number].base is None  # not a view of the batch

    def test_repeated_numbers_rejected_before_any_page(
        self, fresh_small_engine
    ):
        """A number asked for twice is refused before the pool is asked
        for anything (it would be computed once and counted twice)."""
        engine = fresh_small_engine
        accesses = engine.buffer_pool.stats.accesses
        with pytest.raises(BackendError, match=r"\[1\] requested twice"):
            engine.compute_chunks((1, 1), [1, 0, 1], [("v", "sum")])
        assert engine.buffer_pool.stats.accesses == accesses
        assert engine.disk.stats.reads == 0

    def test_rows_outside_requested_chunks_rejected(
        self, fresh_small_engine, monkeypatch
    ):
        """Source chunks that do not tile the targets are a caller bug."""
        union = fresh_small_engine._union_source_chunks
        monkeypatch.setattr(
            fresh_small_engine,
            "_union_source_chunks",
            lambda groupby, numbers, source: union(groupby, [0, 1], source),
        )
        with pytest.raises(BackendError, match=r"unrequested chunks \{1\}"):
            fresh_small_engine.compute_chunks((1, 1), [0], [("v", "sum")])

    def test_shared_base_chunks_read_once(self, small_schema, fresh_small_engine):
        """Two sibling chunks sharing base chunks cost less than twice one."""
        groupby = (1, 0)
        fresh_small_engine.buffer_pool.flush()
        _, single = fresh_small_engine.compute_chunks(
            groupby, [0], [("v", "sum")]
        )
        fresh_small_engine.buffer_pool.flush()
        _, double = fresh_small_engine.compute_chunks(
            groupby, [0, 1], [("v", "sum")]
        )
        assert double.pages_read < 2 * single.pages_read + 4


class TestEstimates:
    def test_estimate_has_no_io_side_effect(self, fresh_small_engine):
        before = fresh_small_engine.disk.stats.copy()
        fresh_small_engine.estimate_chunk_work((1, 1), [0, 1, 2])
        after = fresh_small_engine.disk.stats
        assert after.reads == before.reads
        assert after.writes == before.writes

    def test_estimate_total_tuples(self, fresh_small_engine):
        grid = fresh_small_engine.space.grid((1, 1))
        _, tuples = fresh_small_engine.estimate_chunk_work(
            (1, 1), list(range(grid.num_chunks))
        )
        assert tuples == fresh_small_engine.num_records

    def test_estimate_pages_positive(self, fresh_small_engine):
        pages, _ = fresh_small_engine.estimate_chunk_work((1, 1), [0])
        assert pages > 0

    def test_bitmap_estimate_reasonable(self, small_schema, fresh_small_engine):
        query = StarQuery.build(small_schema, (2, 2), {"D0": (0, 3)})
        estimate = fresh_small_engine.estimate_bitmap_pages(query)
        assert 0 < estimate <= (
            fresh_small_engine.num_data_pages
            + sum(b.num_pages for b in fresh_small_engine.bitmaps.values())
        )
