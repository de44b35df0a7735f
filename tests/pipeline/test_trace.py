"""Tests for per-stage execution traces."""

import inspect
import json
from pathlib import Path

import pytest

from repro.core.cache import ChunkCache
from repro.core.manager import ChunkCacheManager
from repro.core.query_cache import QueryCacheManager
from repro.pipeline.trace import STAGE_FIELDS, ExecutionTrace, StageTrace
from repro.query.model import StarQuery
from repro.workload.generator import EQPR, QueryGenerator
from tests.reference.stages import resolver_totals, stage_totals


@pytest.fixture()
def manager(small_schema, fresh_small_engine):
    return ChunkCacheManager(
        small_schema,
        fresh_small_engine.space,
        fresh_small_engine,
        ChunkCache(4_000_000),
    )


class TestExecutionTrace:
    def test_wall_seconds_sums_stages(self):
        trace = ExecutionTrace()
        trace.stages.append(StageTrace("a", wall_seconds=1.0))
        trace.stages.append(StageTrace("b", wall_seconds=2.0))
        assert trace.wall_seconds == pytest.approx(3.0)

    def test_stage_lookup(self):
        trace = ExecutionTrace()
        trace.stages.append(StageTrace("resolve:cache", partitions=3))
        assert trace.stage("resolve:cache").partitions == 3
        assert trace.stage("missing") is None


class TestStageRecord:
    def test_one_field_list(self):
        # The constructor, the repr and a folded per-stage bucket all
        # follow STAGE_FIELDS.
        assert list(inspect.signature(StageTrace).parameters) == [
            "name",
            *STAGE_FIELDS,
        ]
        stage = StageTrace("s", partitions=3, backoff_seconds=0.5)
        rebuilt = eval(repr(stage), {"StageTrace": StageTrace})
        assert not hasattr(stage, "__dict__")  # slotted: one per stage
        for field in ("name", *STAGE_FIELDS):
            assert getattr(rebuilt, field) == getattr(stage, field)
        bucket = stage_totals([ExecutionTrace(stages=[stage])])
        assert list(bucket["s"]) == ["calls", *STAGE_FIELDS]


class TestAnswerTrace:
    def test_every_answer_carries_trace(self, small_schema, manager):
        query = StarQuery.build(small_schema, (1, 1), {"D0": (0, 3)})
        answer = manager.answer(query)
        trace = answer.trace
        assert trace is not None
        names = [s.name for s in trace.stages]
        assert names == [
            "analyze", "resolve:cache", "resolve:backend",
            "assemble", "account",
        ]
        assert trace.partitions_total == answer.record.chunks_total
        assert trace.resolved_by == {
            "cache": 0,
            "backend": answer.record.chunks_total,
        }
        assert trace.backend_pages == answer.record.pages_read
        assert trace.modelled_time == pytest.approx(answer.record.time)

    def test_repeat_query_attributed_to_cache(self, small_schema, manager):
        query = StarQuery.build(small_schema, (1, 1), {"D0": (0, 3)})
        manager.answer(query)
        answer = manager.answer(query)
        trace = answer.trace
        assert trace.resolved_by["cache"] == answer.record.chunks_total
        # The terminal resolver never ran: nothing was outstanding.
        assert trace.stage("resolve:backend") is None
        assert trace.backend_pages == 0

    def test_query_cache_trace(self, small_schema, fresh_small_engine):
        manager = QueryCacheManager(
            small_schema, fresh_small_engine, 4_000_000
        )
        query = StarQuery.build(small_schema, (1, 1), {"D0": (0, 3)})
        miss = manager.answer(query)
        assert miss.trace.resolved_by == {"cache": 0, "backend": 1}
        hit = manager.answer(query)
        assert hit.trace.resolved_by == {"cache": 1}
        assert hit.trace.backend_pages == 0


class TestStreamAggregation:
    def test_answer_traces_fold_into_stream_totals(
        self, small_schema, manager
    ):
        queries = [
            StarQuery.build(small_schema, (1, 1), {"D0": (0, 3)}),
            StarQuery.build(small_schema, (1, 1), {"D0": (0, 3)}),
            StarQuery.build(small_schema, (1, 0), {"D0": (2, 5)}),
        ]
        traces = [manager.answer(query).trace for query in queries]
        stages = stage_totals(traces)
        assert stages["analyze"]["calls"] == 3
        assert stages["resolve:cache"]["calls"] == 3
        # Query 2 was a full hit; only queries 1 and 3 hit the backend.
        assert stages["resolve:backend"]["calls"] == 2
        assert stages["resolve:backend"]["pages_read"] == (
            manager.metrics.total_pages_read()
        )
        resolved = resolver_totals(traces)
        total = sum(r.chunks_total for r in manager.metrics.records)
        assert resolved["cache"] + resolved["backend"] == total

    def test_aggregation_helpers_match_metrics(self, small_schema, manager):
        # The reference fold of the answers' traces agrees with the sums
        # the stream's records carry.
        query = StarQuery.build(small_schema, (1, 1), {"D0": (0, 3)})
        traces = [manager.answer(query).trace for _ in range(2)]
        records = manager.metrics.records
        stages = stage_totals(traces)
        assert sum(b["pages_read"] for b in stages.values()) == (
            manager.metrics.total_pages_read()
        )
        assert sum(t.modelled_time for t in traces) == (
            manager.metrics.total_time()
        )
        assert resolver_totals(traces) == {
            "cache": records[1].chunks_total,
            "backend": records[0].chunks_total,
        }


class TestGoldenStream:
    def test_deterministic_trace_fields_match_parent(
        self, small_schema, manager, fresh_small_engine
    ):
        # trace_golden.json is this test's ``observed`` dumped at
        # d944af0, the commit before execute() was rewritten: 30 queries
        # through a 4000-byte chunk cache (10 full hits, 7 partial hits,
        # 13 misses, evictions) and the first 10 through a query cache.
        queries = QueryGenerator(small_schema, seed=21).stream(30, EQPR)
        manager.cache.capacity_bytes = 4000
        baseline = QueryCacheManager(small_schema, fresh_small_engine, 4000)
        observed = []
        for answerer, stream in ((manager, queries), (baseline, queries[:10])):
            for query in stream:
                trace = answerer.answer(query).trace
                observed.append([
                    [
                        [s.name, s.partitions, s.pages_read, s.tuples_scanned]
                        for s in trace.stages
                    ],
                    trace.resolved_by,
                ])
        golden = Path(__file__).with_name("trace_golden.json")
        assert observed == json.loads(golden.read_text(encoding="utf-8"))
