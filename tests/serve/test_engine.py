"""What both sessions inherit from the one serving engine.

``FrontSession`` is a ``ServeSession`` over an admission schedule, so
the engine's threading, failure, deadline and checkpoint behaviour is
pinned once, for both.
"""

import threading
import time

import pytest

from repro.exceptions import InjectedFault, ServeError
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import get_system, make_chunk_manager
from repro.experiments.multiuser import user_streams
from repro.serve import (
    FrontConfig,
    FrontSession,
    ServeSession,
    ShardedChunkCache,
)
from repro.serve.soak import run_digest

NUM_STREAMS = 4
PER_USER = 6
CHECKPOINT_EVERY = 5


class ProbedPipeline:
    """Delegates to a pipeline; ``probe(n)`` runs ahead of the ``n``-th
    ``execute`` and may raise, sleep or take notes."""

    def __init__(self, inner, probe):
        self.inner = inner
        self.analyzer = inner.analyzer
        self.probe = probe
        self.calls = 0

    def execute(self, query):
        self.calls += 1
        self.probe(self.calls)
        return self.inner.execute(query)


def failing(calls, error):
    """A probe raising ``error`` on the chosen ``execute`` calls."""

    def probe(call):
        if call in calls:
            raise error

    return probe


@pytest.fixture(scope="module")
def system():
    return get_system(SMOKE_SCALE)


@pytest.fixture(scope="module")
def streams(system):
    return user_streams(
        system, num_users=NUM_STREAMS, per_user=PER_USER, paired=True
    )


def _session(
    kind,
    system,
    streams,
    probe,
    max_workers=4,
    timeout_seconds=60.0,
    **hooks,
):
    """A session of ``kind`` (``"serve"`` a ``ServeSession``,
    ``"front"`` a ``FrontSession``) over a pipeline running ``probe``
    ahead of every ``execute``; returns ``(session, pipeline)``."""
    cache = ShardedChunkCache(system.cache_bytes, num_shards=2)
    manager = make_chunk_manager(system, cache=cache)
    if kind == "front":
        session = FrontSession(
            manager,
            streams,
            FrontConfig(
                window=3,
                max_workers=max_workers,
                checkpoint_every=CHECKPOINT_EVERY,
                timeout_seconds=timeout_seconds,
            ),
            **hooks,
        )
        pipeline = ProbedPipeline(session.pipeline, probe)
        session.pipeline = pipeline
    else:
        session = ServeSession(
            manager,
            streams,
            max_workers=max_workers,
            checkpoint_every=CHECKPOINT_EVERY,
            timeout_seconds=timeout_seconds,
            **hooks,
        )
        pipeline = ProbedPipeline(manager.pipeline, probe)
        manager.pipeline = pipeline
    return session, pipeline


class ThreadLog:
    """Which thread ran each hook, and how many were alive meanwhile."""

    def __init__(self):
        self.names = set()
        self.most_alive = 0

    def note(self, *_args):
        self.names.add(threading.current_thread().name)
        self.most_alive = max(self.most_alive, threading.active_count())


@pytest.mark.parametrize("kind", ["serve", "front"])
def test_deterministic_schedules_run_on_the_calling_thread(
    kind, system, streams
):
    log = ThreadLog()
    session, pipeline = _session(
        kind,
        system,
        streams,
        log.note,
        on_answer=log.note,
        on_checkpoint=log.note,
    )
    alive_before = threading.active_count()
    report = session.run()
    assert pipeline.calls == NUM_STREAMS * PER_USER
    assert report.checkpoints > 0
    assert log.names == {threading.current_thread().name}
    assert log.most_alive <= alive_before


class TestWorkerCountOnlyMovesSimulatedTime:
    """``max_workers`` deals tickets to simulated clocks and changes
    nothing else."""

    STREAMS = 8
    FAILING = {3, 17}

    @pytest.fixture(scope="class")
    def eight_streams(self, system):
        return user_streams(
            system, num_users=self.STREAMS, per_user=PER_USER, paired=True
        )

    def run(self, system, eight_streams, workers):
        answered = []
        session, _pipeline = _session(
            "serve",
            system,
            eight_streams,
            failing(self.FAILING, InjectedFault("tolerated")),
            max_workers=workers,
            tolerate=(InjectedFault,),
            on_answer=lambda seq, *_rest: answered.append(seq),
        )
        report = session.run()
        cache = session.manager.cache
        digest = run_digest(report, {}, cache.used_bytes, len(cache))
        return session, report, answered, digest

    def test_outcome_identical_at_every_worker_count(
        self, system, eight_streams
    ):
        outcomes = set()
        for workers in (1, 2, 4, 8):
            _, report, answered, digest = self.run(
                system, eight_streams, workers
            )
            assert report.max_workers == workers
            assert len(report.failures) == len(self.FAILING)
            outcomes.add(
                (
                    repr(list(report.metrics.records)),
                    repr(report.failures),
                    tuple(answered),
                    digest,
                )
            )
        assert len(outcomes) == 1

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_simulated_seconds_are_the_dealt_tickets_times(
        self, system, eight_streams, workers
    ):
        session, report, answered, _digest = self.run(
            system, eight_streams, workers
        )
        modelled = {
            seq: record.time
            for seq, record in zip(answered, report.metrics.records)
        }
        expected = []
        for tickets in session._tickets():
            seconds = 0.0
            for seq, _stream, _query in tickets:
                seconds += modelled.get(seq, 0.0)
            expected.append(seconds)
        assert repr(report.simulated_worker_seconds) == repr(
            tuple(expected)
        )
        assert repr(report.simulated_makespan) == repr(max(expected))


@pytest.mark.parametrize("kind", ["serve", "front"])
@pytest.mark.parametrize("slow_at", [5, NUM_STREAMS * PER_USER])
def test_overrun_raises_when_the_overrunning_ticket_completes(
    kind, slow_at, system, streams
):
    deadline = 0.5  # a dozen times what the whole run takes

    def probe(call):
        if call == slow_at:
            time.sleep(deadline + 0.05)

    answered = []
    session, pipeline = _session(
        kind,
        system,
        streams,
        probe,
        timeout_seconds=deadline,
        on_answer=lambda seq, *_rest: answered.append(seq),
    )
    with pytest.raises(ServeError, match="deadline"):
        session.run()
    # The slow ticket ran to completion; the one after it never started
    # — and a run whose *last* ticket overran does not report success.
    assert pipeline.calls == slow_at
    assert len(answered) == slow_at


@pytest.mark.parametrize("kind", ["serve", "front"])
@pytest.mark.parametrize("fatal_at", [1, 4, 11])
def test_fatal_error_aborts_without_advancing(
    kind, fatal_at, system, streams
):
    # No ticket after the fatal one may run against a session that has
    # already failed, and the error surfaces as itself, not wrapped.
    session, pipeline = _session(
        kind, system, streams, failing({fatal_at}, RuntimeError("boom"))
    )
    with pytest.raises(RuntimeError, match="boom"):
        session.run()
    assert pipeline.calls == fatal_at


@pytest.mark.parametrize("kind", ["serve", "front"])
def test_checkpoints_count_answered_and_failed_queries(
    kind, system, streams
):
    seen = []
    session, pipeline = _session(
        kind,
        system,
        streams,
        failing({2, 9, 10}, InjectedFault("tolerated")),
        tolerate=(InjectedFault,),
        on_checkpoint=seen.append,
    )
    report = session.run()
    assert len(report.failures) == 3
    assert report.queries == NUM_STREAMS * PER_USER - 3
    assert pipeline.calls == NUM_STREAMS * PER_USER
    assert report.checkpoints == (
        (report.queries + len(report.failures)) // CHECKPOINT_EVERY
    )
    assert sorted(seen) == [
        CHECKPOINT_EVERY * (n + 1) for n in range(report.checkpoints)
    ]
