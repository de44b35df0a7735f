"""Tests for repro.serve.session — the concurrent stream executor."""

import threading
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
from repro.serve import FAIR, FREE, ServeSession, ShardedChunkCache
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

    def test_lock_wait_bucket_in_stage_summary(self, report):
        summary = report.metrics.stage_summary()
        assert summary  # the pipeline traced its stages
        for stage in summary.values():
            assert "lock_wait_seconds" in stage
            assert stage["lock_wait_seconds"] >= 0.0

    def test_simulated_worker_seconds_per_worker(self, report):
        assert len(report.simulated_worker_seconds) == 2
        assert report.simulated_makespan == max(
            report.simulated_worker_seconds
        )
        assert report.wall_seconds > 0.0


class TestFreeSchedule:
    def test_completes_and_conserves(self, system, streams):
        cache = ShardedChunkCache(system.cache_bytes, num_shards=4)
        manager = make_chunk_manager(system, cache=cache)
        reads_before = system.backend.disk.stats.reads
        session = ServeSession(
            manager, streams, schedule=FREE, timeout_seconds=120.0
        )
        report = session.run()
        assert report.queries == sum(len(s) for s in streams)
        # Conservation holds under any interleaving: records account
        # for every page the disk served, exactly.
        delta = system.backend.disk.stats.reads - reads_before
        assert report.metrics.total_pages_read() == delta
        cache.check_conservation()

    def test_describe_cache_surfaces_shard_contention(self, system, streams):
        cache = ShardedChunkCache(system.cache_bytes, num_shards=4)
        manager = make_chunk_manager(system, cache=cache)
        ServeSession(
            manager, streams, schedule=FREE, timeout_seconds=120.0
        ).run()
        shards = manager.snapshot().cache.contention
        assert shards.num_shards == 4
        assert len(shards.per_shard) == 4
        assert shards.lock_acquisitions > 0

    def test_checkpoint_callback_fires(self, system, streams):
        seen = []
        cache = ShardedChunkCache(system.cache_bytes, num_shards=2)
        manager = make_chunk_manager(system, cache=cache)
        session = ServeSession(
            manager,
            streams,
            schedule=FREE,
            checkpoint_every=25,
            on_checkpoint=seen.append,
            timeout_seconds=120.0,
        )
        report = session.run()
        assert report.checkpoints == report.queries // 25
        assert len(seen) == report.checkpoints
        assert all(count % 25 == 0 for count in seen)


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

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ServeError):
            self.make(timeout_seconds=0.0)

    def test_rejects_zero_workers(self):
        with pytest.raises(ServeError):
            self.make(max_workers=0)

    def test_schedules_are_fair_and_free(self):
        assert FAIR == "fair"
        assert FREE == "free"


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


class _BlockedPipeline:
    """A pipeline whose queries hang until the test lets them go (or,
    so a regression fails instead of hanging, for five seconds)."""

    def __init__(self):
        self.release = threading.Event()

    def execute(self, query):
        self.release.wait(timeout=5.0)
        return _free_answer()


def _stub_manager(pipeline):
    return SimpleNamespace(
        pipeline=pipeline,
        backend=SimpleNamespace(
            lock_wait_recorder=None,
            lock_wait_seconds=0.0,
            lock_acquisitions=0,
        ),
        cache=None,
    )


class TestTimeout:
    def test_free_deadline_does_not_wait_for_the_stuck_worker(self):
        pipeline = _BlockedPipeline()
        streams = [
            QueryStream(name=name, queries=(object(), object()))
            for name in ("a", "b")
        ]
        session = ServeSession(
            _stub_manager(pipeline),
            streams,
            schedule=FREE,
            timeout_seconds=0.2,
        )
        started = time.perf_counter()
        try:
            with pytest.raises(ServeError, match="deadline"):
                session.run()
            # run() came back at the deadline with both workers still
            # inside their first query.
            assert time.perf_counter() - started < 1.2
        finally:
            pipeline.release.set()
        # Released, each worker finds the session failed at its next
        # ticket and exits: nothing is left running.
        workers = [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("serve_")
        ]
        for thread in workers:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in workers)

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
