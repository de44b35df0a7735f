"""Tests for repro.serve.session — the multi-stream executor."""

import time
from types import SimpleNamespace

import pytest

from repro.core.metrics import QueryRecord
from repro.exceptions import ServeError
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import (
    get_system,
    make_chunk_manager,
    run_stream,
)
from repro.experiments.multiuser import user_streams
import repro.serve
from repro.serve import FAIR, ServeSession, ShardedChunkCache
from repro.workload.stream import QueryStream, interleave_streams


def totals(metrics):
    """Bit-exact fingerprint of a run's accounting totals."""
    return repr(
        (
            metrics.cost_saving_ratio(),
            metrics.mean_time(),
            metrics.total_pages_read(),
            len(metrics),
        )
    )


@pytest.fixture(scope="module")
def system():
    return get_system(SMOKE_SCALE)


@pytest.fixture(scope="module")
def streams(system):
    return user_streams(system, num_users=4, per_user=25)


@pytest.fixture(scope="module")
def sequential(system, streams):
    """The reference sequential run over the canonical interleave."""
    ordered = sorted(streams, key=lambda stream: stream.name)
    combined = interleave_streams("all-users", ordered)
    manager = make_chunk_manager(system)
    metrics = run_stream(manager, combined)
    return totals(metrics), repr(list(metrics.records))


def serve_run(system, streams, **kwargs):
    cache = ShardedChunkCache(system.cache_bytes, num_shards=1)
    manager = make_chunk_manager(system, cache=cache)
    session = ServeSession(manager, streams, **kwargs)
    return session.run()


class TestFairDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_totals_bit_identical_to_sequential(
        self, system, streams, sequential, workers
    ):
        report = serve_run(system, streams, max_workers=workers)
        seq_totals, seq_records = sequential
        assert totals(report.metrics) == seq_totals
        assert repr(list(report.metrics.records)) == seq_records

    def test_worker_count_capped_at_stream_count(self, system, streams):
        report = serve_run(system, streams, max_workers=16)
        assert report.max_workers == len(streams)

    def test_simulated_speedup_with_more_workers(self, system, streams):
        one = serve_run(system, streams, max_workers=1)
        four = serve_run(system, streams, max_workers=4)
        assert one.simulated_makespan > four.simulated_makespan
        assert four.simulated_throughput > one.simulated_throughput
        # One worker's makespan is the whole stream's simulated time.
        assert repr(one.simulated_makespan) == repr(
            sum(r.time for r in one.metrics.records)
        )


class TestReportShape:
    @pytest.fixture(scope="class")
    def report(self, system, streams):
        return serve_run(system, streams, max_workers=2)

    def test_per_stream_metrics(self, report, streams):
        assert sorted(report.per_stream) == sorted(s.name for s in streams)
        per_user = len(streams[0])
        for name, metrics in report.per_stream.items():
            assert len(metrics) == per_user
        assert sum(map(len, report.per_stream.values())) == report.queries

    def test_contention_counters(self, report):
        backend = report.contention["backend"]
        assert backend["lock_acquisitions"] > 0
        assert backend["lock_wait_seconds"] >= 0.0
        cache = report.contention["cache"]
        assert cache["num_shards"] == 1
        assert cache["lock_acquisitions"] > 0

    def test_snapshot_surfaces_shard_contention(self, system, streams):
        cache = ShardedChunkCache(system.cache_bytes, num_shards=4)
        manager = make_chunk_manager(system, cache=cache)
        ServeSession(manager, streams).run()
        shards = manager.snapshot().cache.contention
        assert shards["num_shards"] == 4
        assert len(shards["per_shard"]) == 4
        assert shards["lock_acquisitions"] > 0

    def test_simulated_worker_seconds_per_worker(self, report):
        assert len(report.simulated_worker_seconds) == 2
        assert report.simulated_makespan == max(
            report.simulated_worker_seconds
        )
        assert report.wall_seconds > 0.0


class TestValidation:
    def make(self, streams=None, **kwargs):
        manager = SimpleNamespace()
        if streams is None:
            streams = [QueryStream(name="a", queries=())]
        return ServeSession(manager, streams, **kwargs)

    def test_rejects_empty_streams(self):
        with pytest.raises(ServeError):
            self.make(streams=[])

    def test_rejects_duplicate_names(self):
        streams = [
            QueryStream(name="a", queries=()),
            QueryStream(name="a", queries=()),
        ]
        with pytest.raises(ServeError):
            self.make(streams=streams)

    def test_rejects_unknown_schedule(self):
        with pytest.raises(ServeError):
            self.make(schedule="chaotic")

    def test_rejects_the_racing_schedule_with_the_contract(self):
        with pytest.raises(ServeError, match="not thread-safe"):
            self.make(schedule="free")

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ServeError):
            self.make(timeout_seconds=0.0)

    def test_rejects_zero_workers(self):
        with pytest.raises(ServeError):
            self.make(max_workers=0)

    def test_the_only_schedule_is_fair(self):
        assert FAIR == "fair"
        constants = [name for name in repro.serve.__all__ if name.isupper()]
        assert constants == ["FAIR"]


def _free_answer():
    """What a stub pipeline returns: an answer that cost nothing."""
    return SimpleNamespace(
        record=QueryRecord(
            time=0.0, full_cost=0.0, saved_cost=0.0, chunks_total=0,
            chunks_hit=0,
        ),
        trace=None,
    )


class _SlowPipeline:
    """A pipeline whose every query takes longer than the deadline."""

    def __init__(self, delay):
        self.delay = delay

    def execute(self, query):
        time.sleep(self.delay)
        return _free_answer()


def _stub_manager(pipeline):
    return SimpleNamespace(
        pipeline=pipeline,
        backend=SimpleNamespace(
            lock_wait_seconds=0.0,
            lock_acquisitions=0,
        ),
        cache=None,
    )


class TestTimeout:
    def test_deadline_becomes_serve_error(self):
        manager = _stub_manager(_SlowPipeline(delay=0.4))
        stream = QueryStream(name="slow", queries=(object(), object()))
        session = ServeSession(
            manager, [stream], timeout_seconds=0.15
        )
        started = time.perf_counter()
        with pytest.raises(ServeError):
            session.run()
        # The guard fired at the deadline, not after the full workload.
        assert time.perf_counter() - started < 5.0
