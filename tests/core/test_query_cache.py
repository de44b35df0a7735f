"""Tests for repro.core.query_cache — the containment baseline."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import invariants
from repro.core.query_cache import QueryCacheManager
from repro.core.replacement import BenefitClockPolicy
from repro.exceptions import CacheError, QueryError
from repro.query.containment import query_contains
from repro.query.model import StarQuery
from tests.conftest import canon_rows


@pytest.fixture()
def manager(small_schema, fresh_small_engine):
    return QueryCacheManager(
        small_schema, fresh_small_engine, capacity_bytes=2_000_000
    )


def q(schema, groupby=(1, 1), selections=None, **kwargs):
    return StarQuery.build(schema, groupby, selections, **kwargs)


class TestCorrectness:
    @pytest.mark.parametrize(
        "groupby,selections",
        [
            ((1, 1), {"D0": (1, 4)}),
            ((2, 2), {"D0": (3, 9)}),
            ((1, 0), None),
        ],
    )
    def test_matches_backend(self, small_schema, manager, groupby, selections):
        query = q(small_schema, groupby, selections)
        answer = manager.answer(query)
        expected, _ = manager.backend.answer(query, "scan")
        assert canon_rows(answer.rows) == canon_rows(expected)

    def test_contained_hit_is_filtered_correctly(self, small_schema, manager):
        manager.answer(q(small_schema, (2, 2), {"D0": (0, 8)}))
        inner = q(small_schema, (2, 2), {"D0": (2, 5), "D1": (1, 4)})
        answer = manager.answer(inner)
        assert answer.record.chunks_hit == 1
        expected, _ = manager.backend.answer(inner, "scan")
        assert canon_rows(answer.rows) == canon_rows(expected)


class TestCachingSemantics:
    def test_exact_repeat_hits(self, small_schema, manager):
        query = q(small_schema, (1, 1), {"D0": (0, 3)})
        assert manager.answer(query).record.chunks_hit == 0
        hit = manager.answer(query)
        assert hit.record.chunks_hit == 1
        assert hit.record.pages_read == 0
        assert hit.record.saved_cost == pytest.approx(hit.record.full_cost)

    def test_overlap_without_containment_misses(self, small_schema, manager):
        manager.answer(q(small_schema, (2, 2), {"D0": (0, 5)}))
        answer = manager.answer(q(small_schema, (2, 2), {"D0": (3, 8)}))
        assert answer.record.chunks_hit == 0

    def test_different_groupby_misses(self, small_schema, manager):
        manager.answer(q(small_schema, (2, 2)))
        assert manager.answer(q(small_schema, (1, 1))).record.chunks_hit == 0

    def test_aggregate_superset_serves_subset(self, small_schema, manager):
        manager.answer(
            q(small_schema, (1, 1),
              aggregates=[("v", "sum"), ("v", "count")])
        )
        answer = manager.answer(
            q(small_schema, (1, 1), aggregates=[("v", "sum"), ("v", "count")])
        )
        assert answer.record.chunks_hit == 1

    def test_capacity_respected(self, small_schema, fresh_small_engine):
        manager = QueryCacheManager(
            small_schema, fresh_small_engine, capacity_bytes=3_000
        )
        for lo in range(0, 8):
            manager.answer(q(small_schema, (2, 2), {"D0": (lo, lo + 2)}))
            assert manager.used_bytes <= 3_000

    def test_zero_capacity_never_caches(self, small_schema, fresh_small_engine):
        manager = QueryCacheManager(
            small_schema, fresh_small_engine, capacity_bytes=0
        )
        query = q(small_schema, (1, 1), {"D0": (0, 2)})
        manager.answer(query)
        assert manager.answer(query).record.chunks_hit == 0
        assert len(manager) == 0

    def test_negative_capacity_rejected(self, small_schema, fresh_small_engine):
        with pytest.raises(CacheError):
            QueryCacheManager(small_schema, fresh_small_engine, -1)


class _RecordingPolicy(BenefitClockPolicy):
    """Benefit-CLOCK that also records what the cache told it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def on_insert(self, key, weight):
        self.calls.append(("insert", key, weight))
        super().on_insert(key, weight)

    def remove(self, key):
        self.calls.append(("remove", key))
        super().remove(key)


class TestAdmitRefresh:
    """``admit`` of a resident exact key (the pipeline never does it —
    a resident key contains itself, so the hit link answers first — but
    ``admit`` is a public :class:`QueryResultStore` method)."""

    def test_refresh_holds_the_budget_and_reweights(
        self, small_schema, fresh_small_engine
    ):
        policy = _RecordingPolicy()
        manager = QueryCacheManager(
            small_schema, fresh_small_engine, 3_000, policy=policy
        )
        queries = [
            q(small_schema, (2, 2), {"D0": (lo, lo + 2)}) for lo in range(8)
        ]
        for query in queries:
            manager.answer(query)
        resident = manager.find_containing(queries[-1])
        assert resident is not None and len(manager) > 1
        # A payload that fits the budget alone but not beside the
        # other residents: the refresh has to evict.
        grown = np.concatenate([resident.rows] * 4)
        slack = manager.capacity_bytes - manager.used_bytes
        assert grown.nbytes - resident.rows.nbytes > slack
        assert grown.nbytes <= manager.capacity_bytes
        policy.calls.clear()
        previous = invariants.set_mode(invariants.DEEP)
        try:
            manager.admit(resident.query, grown, resident.benefit * 2)
        finally:
            invariants.set_mode(previous)
        assert manager.used_bytes <= manager.capacity_bytes
        refreshed = manager.find_containing(resident.query)
        assert refreshed is not None and refreshed.rows is grown
        key = resident.query.exact_key()
        assert policy.calls[0] == ("remove", key)
        assert ("insert", key, resident.benefit * 2) in policy.calls

    def test_over_budget_refresh_leaves_the_key_absent(
        self, small_schema, fresh_small_engine
    ):
        manager = QueryCacheManager(small_schema, fresh_small_engine, 3_000)
        query = q(small_schema, (2, 2), {"D0": (0, 2)})
        manager.answer(query)
        resident = manager.find_containing(query)
        oversized = np.concatenate([resident.rows] * 40)
        assert oversized.nbytes > manager.capacity_bytes
        manager.admit(query, oversized, resident.benefit)
        assert manager.find_containing(query) is None
        assert manager.used_bytes == 0


class TestRedundancy:
    def test_no_entries_is_one(self, manager):
        assert manager.redundancy_ratio() == 1.0

    def test_disjoint_entries_no_redundancy(self, small_schema, manager):
        manager.answer(q(small_schema, (1, 1), {"D0": (0, 2)}))
        manager.answer(q(small_schema, (1, 1), {"D0": (3, 5)}))
        assert manager.redundancy_ratio() == pytest.approx(1.0)

    def test_overlapping_entries_counted(self, small_schema, manager):
        manager.answer(q(small_schema, (1, 1), {"D0": (0, 3)}))
        manager.answer(q(small_schema, (1, 1), {"D0": (2, 5)}))
        # 3 + 3 cells stored over 5 distinct (per remaining dim span).
        assert manager.redundancy_ratio() == pytest.approx(6 / 5)

    def test_metrics_accumulate(self, small_schema, manager):
        manager.answer(q(small_schema, (1, 1)))
        manager.answer(q(small_schema, (1, 1)))
        assert len(manager.metrics) == 2
        assert 0 < manager.metrics.cost_saving_ratio() <= 1


class TestInvalidationExceptionNarrowing:
    """Regression (R004): invalidation distinguishes "query provably
    selects nothing" (QueryError -> conservative drop) from genuine
    defects in query analysis, which must propagate."""

    def test_unanalyzable_entry_dropped_conservatively(
        self, small_schema, manager, monkeypatch
    ):
        manager.answer(q(small_schema, (1, 1), {"D0": (1, 4)}))

        def provably_empty(self, schema):
            raise QueryError("selection and filter are disjoint")

        monkeypatch.setattr(StarQuery, "leaf_selection", provably_empty)
        assert manager.invalidate_base_chunks([0]) == 1

    def test_analysis_bug_propagates(
        self, small_schema, manager, monkeypatch
    ):
        manager.answer(q(small_schema, (1, 1), {"D0": (1, 4)}))

        def boom(self, schema):
            raise RuntimeError("query analysis broke")

        monkeypatch.setattr(StarQuery, "leaf_selection", boom)
        with pytest.raises(RuntimeError):
            manager.invalidate_base_chunks([0])


#: Group-bys of the small schema (D0 levels 5/10, D1 levels 4/8).
_GROUPBYS = [(1, 1), (2, 2), (2, 1), (1, 0)]


@st.composite
def _queries(draw):
    groupby = draw(st.sampled_from(_GROUPBYS))
    selections = {}
    for name, sizes, level in zip(("D0", "D1"), ((5, 10), (4, 8)), groupby):
        if level and draw(st.booleans()):
            size = sizes[level - 1]
            lo = draw(st.integers(0, size - 1))
            selections[name] = (lo, draw(st.integers(lo + 1, size)))
    return groupby, selections


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("answer"), _queries()),
        st.tuples(st.just("readmit"), st.integers(0, 50)),
        st.tuples(
            st.just("invalidate"),
            st.lists(st.integers(0, 19), min_size=1, max_size=3),
        ),
    ),
    min_size=5,
    max_size=30,
)


class TestContainmentIndexProperty:
    """The manager's containment index against its store, after every
    admission, containment hit, re-admission and invalidation, under a
    budget small enough to evict."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(steps=_STEPS, probe=_queries())
    def test_index_tracks_the_store(
        self, small_schema, fresh_small_engine, steps, probe
    ):
        manager = QueryCacheManager(small_schema, fresh_small_engine, 700)
        answered = []
        for step, arg in steps:
            if step == "answer":
                query = q(small_schema, *arg)
                answered.append((query, manager.answer(query).rows))
            elif step == "readmit" and answered:
                query, rows = answered[arg % len(answered)]
                manager.admit(query, rows, float(len(rows)))
            elif step == "invalidate":
                manager.invalidate_base_chunks(arg)
            resident = manager._store.snapshot()
            # Each resident key is indexed once, under its shape, in
            # admission order (the store's insertion order).
            index = {}
            for key, entry in resident:
                index.setdefault(entry.query.shape_key(), []).append(key)
            assert {
                shape: keys for shape, keys in manager._by_shape.items() if keys
            } == index
            # The first resident entry of the shape that contains it.
            probes = [q(small_schema, *probe)] + [a for a, _ in answered]
            for query in probes:
                expected = next(
                    (
                        entry for _, entry in resident
                        if entry.query.shape_key() == query.shape_key()
                        and query_contains(entry.query, query)
                    ),
                    None,
                )
                assert manager.find_containing(query) is expected
            assert manager.used_bytes == sum(
                entry.size_bytes for _, entry in resident
            )
            assert manager.used_bytes <= manager.capacity_bytes
            assert len(manager) == len(resident)
