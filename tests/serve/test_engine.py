"""What both sessions inherit from the one serving engine.

``FrontSession`` is a ``ServeSession`` over an admission schedule, so
the turnstile's failure and checkpoint behaviour is pinned once, for
both.
"""

import pytest

from repro.exceptions import InjectedFault, ServeError
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import get_system, make_chunk_manager
from repro.experiments.multiuser import user_streams
from repro.serve import (
    FAIR,
    FrontConfig,
    FrontSession,
    ServeSession,
    ShardedChunkCache,
)

NUM_STREAMS = 4
PER_USER = 6
CHECKPOINT_EVERY = 5


class FailingPipeline:
    """Delegates to a pipeline; chosen ``execute`` calls raise instead."""

    def __init__(self, inner, failing, error):
        self.inner = inner
        self.analyzer = inner.analyzer
        self.failing = failing
        self.error = error
        self.calls = 0

    def execute(self, query):
        self.calls += 1
        if self.calls in self.failing:
            raise self.error
        return self.inner.execute(query)


@pytest.fixture(scope="module")
def system():
    return get_system(SMOKE_SCALE)


@pytest.fixture(scope="module")
def streams(system):
    return user_streams(
        system, num_users=NUM_STREAMS, per_user=PER_USER, paired=True
    )


def _session(kind, system, streams, failing, error, **hooks):
    """A 4-worker session of ``kind`` over a pipeline that fails on the
    ``failing``-th ``execute`` calls; returns ``(session, pipeline)``."""
    cache = ShardedChunkCache(system.cache_bytes, num_shards=2)
    manager = make_chunk_manager(system, cache=cache)
    if kind == "serve":
        session = ServeSession(
            manager,
            streams,
            max_workers=4,
            schedule=FAIR,
            checkpoint_every=CHECKPOINT_EVERY,
            timeout_seconds=60.0,
            **hooks,
        )
        pipeline = FailingPipeline(manager.pipeline, failing, error)
        manager.pipeline = pipeline
    else:
        session = FrontSession(
            manager,
            streams,
            FrontConfig(
                window=3,
                max_workers=4,
                checkpoint_every=CHECKPOINT_EVERY,
                timeout_seconds=60.0,
            ),
            **hooks,
        )
        pipeline = FailingPipeline(session.pipeline, failing, error)
        session.pipeline = pipeline
    return session, pipeline


@pytest.mark.parametrize("kind", ["serve", "front"])
@pytest.mark.parametrize("fatal_at", [1, 4, 11])
def test_fatal_error_aborts_without_advancing(
    kind, fatal_at, system, streams
):
    # The worker holding the turn dies; the turnstile must not move, or
    # the next ticket would run against a session that has already
    # failed.
    session, pipeline = _session(
        kind, system, streams, {fatal_at}, RuntimeError("boom")
    )
    with pytest.raises((RuntimeError, ServeError)) as raised:
        session.run()
    error = raised.value
    if isinstance(error, ServeError):
        error = error.__cause__
    assert isinstance(error, RuntimeError) and str(error) == "boom"
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
        {2, 9, 10},
        InjectedFault("tolerated"),
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
