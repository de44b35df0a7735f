"""Unit tests for single-flight chunk coalescing (the FlightTable).

The front-door integration tests (``tests/serve/test_front.py``) pin
the end-to-end contracts; these tests pin the table's own mechanics:
window planning, masking, fair-share accounting summing to zero, fault
cloning, the claim-failure-first rule, and the ``coalesce=False``
baseline staying inert.
"""

import pytest

from repro.core.cache import ChunkCache
from repro.core.chunk import CachedChunk
from repro.core.manager import ChunkCacheManager
from repro.core.tiered import TieredChunkCache
from repro.exceptions import BackendFault, DiskFault, InjectedFault
from repro.pipeline.flight import FlightResolver, FlightTable, clone_fault
from repro.query.model import StarQuery
from repro.storage.chunklog import ChunkLog


@pytest.fixture()
def manager(small_schema, small_engine):
    return ChunkCacheManager(
        small_schema,
        small_engine.space,
        small_engine,
        ChunkCache(1 << 20, "benefit"),
    )


@pytest.fixture()
def table(manager):
    return FlightTable(manager.cost_model, manager.estimator)


def _analyzed(manager, small_schema, groupby=(1, 1), selections=None):
    query = StarQuery.build(small_schema, groupby, selections or {})
    return manager.pipeline.analyzer.analyze(query)


def _fetch(manager, analyzed):
    """The leader's backend fetch: computed rows plus its cost report."""
    computed, report = manager.backend.compute_chunks(  # reprolint: ignore[R001] unit-test fetch
        analyzed.groupby,
        list(analyzed.partitions),
        analyzed.aggregates,
    )
    return computed, report


class TestPlanning:
    def test_duplicates_become_flights(self, manager, table, small_schema):
        analyzed = _analyzed(manager, small_schema)
        count = table.plan_window(
            manager.cache, [(0, analyzed), (1, analyzed)]
        )
        assert count == len(analyzed.partitions) > 0

    def test_singletons_and_cached_chunks_do_not(
        self, manager, table, small_schema
    ):
        analyzed = _analyzed(manager, small_schema)
        assert table.plan_window(manager.cache, [(0, analyzed)]) == 0
        # Warm the cache, then re-plan a duplicate window: nothing is
        # missing, so nothing coalesces.
        manager.answer(analyzed.query)
        assert (
            table.plan_window(
                manager.cache, [(1, analyzed), (2, analyzed)]
            )
            == 0
        )

    def test_planning_tests_presence_without_reading_the_log(
        self, manager, table, small_schema
    ):
        # Every chunk of the query lives in a 2-tier store, all but the
        # last as a torn L2 record.  Planning only asks whether a chunk
        # is there: it reads no record, so a torn one cannot fail it.
        analyzed = _analyzed(manager, small_schema)
        computed, _ = _fetch(manager, analyzed)
        chunks = [
            CachedChunk(analyzed.shape.key(number), rows, 1.0, 1.0)
            for number, rows in computed.items()
        ]
        log = ChunkLog(page_size=256)
        store = TieredChunkCache(ChunkCache(chunks[0].size_bytes), log)
        log.torn_hook = lambda token: True
        for chunk in chunks:
            store.put(chunk)
        log.torn_hook = None
        assert len(log) == len(chunks) - 1 > 0
        window = [(0, analyzed), (1, analyzed)]
        assert table.plan_window(store, window) == 0
        assert log.stats.crc_failures == 0
        assert log.disk.stats.reads == 0
        store.close()

    def test_masking_is_scoped_to_requesters(
        self, manager, table, small_schema
    ):
        analyzed = _analyzed(manager, small_schema)
        table.plan_window(manager.cache, [(0, analyzed), (1, analyzed)])
        outstanding = list(analyzed.partitions)
        # No bracket -> inert.
        assert table.masked(analyzed, outstanding) == frozenset()
        table.begin(0)
        assert table.masked(analyzed, outstanding) == set(outstanding)
        table.end()
        # A query outside the window is never masked.
        table.begin(7)
        assert table.masked(analyzed, outstanding) == frozenset()
        table.end()


class TestPublishAndClaim:
    def test_waiter_claims_published_rows_at_fair_share(
        self, manager, table, small_schema
    ):
        analyzed = _analyzed(manager, small_schema)
        table.plan_window(manager.cache, [(0, analyzed), (1, analyzed)])
        computed, report = _fetch(manager, analyzed)

        table.begin(0)
        credit = table.publish(analyzed, computed, report)
        table.end()
        assert credit < 0.0
        assert table.flights == len(computed)

        table.begin(1)
        parts, charge = table.claim(
            analyzed, list(analyzed.partitions)
        )
        table.end()
        assert set(parts) == set(analyzed.partitions)
        assert all(p.resolver == "flight" for p in parts.values())
        # Fair share: the waiters' charges exactly cancel the
        # publisher's credit, so coalescing never changes total
        # modelled time.
        assert charge == pytest.approx(-credit)
        assert table.coalesced_chunks == len(computed)
        assert table.shared_pages > 0

    def test_claim_is_idempotent_per_requester(
        self, manager, table, small_schema
    ):
        analyzed = _analyzed(manager, small_schema)
        table.plan_window(manager.cache, [(0, analyzed), (1, analyzed)])
        computed, report = _fetch(manager, analyzed)
        table.begin(0)
        table.publish(analyzed, computed, report)
        table.end()
        table.begin(1)
        first, _ = table.claim(analyzed, list(analyzed.partitions))
        second, charge = table.claim(
            analyzed, list(analyzed.partitions)
        )
        table.end()
        assert first and second == {} and charge == 0.0

    def test_resolver_wraps_claims_in_an_outcome(
        self, manager, table, small_schema
    ):
        analyzed = _analyzed(manager, small_schema)
        table.plan_window(manager.cache, [(0, analyzed), (1, analyzed)])
        computed, report = _fetch(manager, analyzed)
        table.begin(0)
        table.publish(analyzed, computed, report)
        table.end()
        resolver = FlightResolver(table)
        table.begin(1)
        outcome = resolver.resolve(analyzed, list(analyzed.partitions))
        table.end()
        assert outcome.report is not None
        assert outcome.report.access_path == "flight"
        assert outcome.report.coalesce_time > 0.0
        # A non-requester gets an empty outcome.
        table.begin(9)
        assert not resolver.resolve(
            analyzed, list(analyzed.partitions)
        ).parts
        table.end()


class TestFaults:
    def test_clone_preserves_type_and_metadata_but_not_cost(self):
        for fault in (
            DiskFault("boom", page_id=7, transient=True, site="disk.read"),
            BackendFault("bang", operation="answer", transient=False),
            InjectedFault("generic", transient=True, site="x"),
        ):
            fault.source_level = "aggregate"
            fault.cost_report = object()
            clone = clone_fault(fault)
            assert type(clone) is type(fault)
            assert str(clone) == str(fault)
            assert clone.transient == fault.transient
            assert clone.site == fault.site
            assert clone.source_level == fault.source_level
            assert clone.cost_report is None
        assert clone_fault(
            DiskFault("b", page_id=7, transient=True)
        ).page_id == 7

    def test_failed_flight_raises_before_any_claim(
        self, manager, table, small_schema
    ):
        analyzed = _analyzed(manager, small_schema)
        table.plan_window(manager.cache, [(0, analyzed), (1, analyzed)])
        fault = DiskFault("boom", page_id=3, transient=True)
        table.begin(0)
        table.publish_failure(analyzed, analyzed.partitions, fault)
        table.end()
        table.begin(1)
        with pytest.raises(DiskFault) as exc_info:
            table.claim(analyzed, list(analyzed.partitions))
        table.end()
        assert exc_info.value is not fault
        assert exc_info.value.page_id == 3
        # Nothing was half-claimed and no sharing was counted.
        assert table.coalesced_chunks == 0 and table.shared_pages == 0


class TestBaselineAndReset:
    def test_no_coalesce_masks_but_never_serves(
        self, manager, small_schema
    ):
        table = FlightTable(
            manager.cost_model, manager.estimator, coalesce=False
        )
        analyzed = _analyzed(manager, small_schema)
        table.plan_window(manager.cache, [(0, analyzed), (1, analyzed)])
        outstanding = list(analyzed.partitions)
        table.begin(0)
        # The baseline still masks (forcing a physical refetch)...
        assert table.masked(analyzed, outstanding) == set(outstanding)
        # ...but publishing is inert, so waiters claim nothing.
        computed, report = _fetch(manager, analyzed)
        assert table.publish(analyzed, computed, report) == 0.0
        table.end()
        table.begin(1)
        assert table.claim(analyzed, outstanding) == ({}, 0.0)
        table.end()
        assert table.stats() == {
            "flights": 0, "coalesced_chunks": 0, "shared_pages": 0
        }

    def test_reset_clears_counters_and_entries(
        self, manager, table, small_schema
    ):
        analyzed = _analyzed(manager, small_schema)
        table.plan_window(manager.cache, [(0, analyzed), (1, analyzed)])
        computed, report = _fetch(manager, analyzed)
        table.begin(0)
        table.publish(analyzed, computed, report)
        table.end()
        table.begin(1)
        table.claim(analyzed, list(analyzed.partitions))
        table.end()
        assert table.flights > 0
        table.reset()
        assert table.stats() == {
            "flights": 0, "coalesced_chunks": 0, "shared_pages": 0
        }
        table.begin(1)
        assert table.claim(analyzed, list(analyzed.partitions)) == (
            {},
            0.0,
        )
        table.end()
