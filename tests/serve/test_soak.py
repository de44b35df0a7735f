"""The multi-user soak gate — tier-1 regression test for the serving layer.

Eight user streams of 250 queries each run under the fair schedule
against one shared sharded cache with ``REPRO_INVARIANTS=deep`` forced
on.  The run must produce zero invariant violations, account for every
disk page exactly at every 100-query checkpoint and at the end, and
return — for every one of the queries — the rows a fault-free oracle
replays afterwards.  The soak takes any store: a plain cache and a
tiered one are verified end to end as well.
"""

import pytest

from repro import invariants
from repro.core.cache import ChunkCache
from repro.core.tiered import TieredChunkCache
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import get_system, make_chunk_manager
from repro.experiments.multiuser import user_streams
from repro.serve import FAIR, ShardedChunkCache, SoakConfig, run_soak
from repro.storage.chunklog import ChunkLog

NUM_STREAMS = 8
PER_USER = 250
CHECKPOINT_EVERY = 100
# Hard deadline: a runaway soak becomes a ServeError, never a hung suite.
TIMEOUT_SECONDS = 150.0


def test_multiuser_soak_conserves_everything():
    system = get_system(SMOKE_SCALE)
    streams = user_streams(
        system, num_users=NUM_STREAMS, per_user=PER_USER
    )
    cache = ShardedChunkCache(system.cache_bytes, num_shards=8)
    oracle_manager = make_chunk_manager(system)
    manager = make_chunk_manager(system, cache=cache)

    previous_mode = invariants.mode()
    report = run_soak(
        manager,
        streams,
        SoakConfig(
            checkpoint_every=CHECKPOINT_EVERY,
            timeout_seconds=TIMEOUT_SECONDS,
        ),
        oracle=lambda query: oracle_manager.pipeline.execute(query).rows,
    )

    assert report.queries == NUM_STREAMS * PER_USER
    # Every answer equals the oracle's fault-free replay.
    assert report.wrong_answers == 0
    assert report.failures == 0 and report.fault_counters == {}
    # A checkpoint fired at every 100-query boundary...
    assert report.checkpoints == report.queries // CHECKPOINT_EVERY
    # ...each running the cross-shard conservation check in deep mode.
    assert report.deep_checks > 0
    # Global I/O conservation: the records account for every page the
    # backend disk actually served — exactly, not approximately.
    assert report.pages_read == report.disk_read_delta
    assert report.pages_read > 0
    # The harness restored the invariant mode it found.
    assert invariants.mode() == previous_mode

    serve = report.serve
    assert serve.schedule == FAIR
    assert serve.max_workers == NUM_STREAMS
    assert len(serve.traces) == len(serve.metrics) == report.queries
    contention = serve.contention["cache"]
    assert contention["num_shards"] == 8
    assert contention["lock_acquisitions"] > 0


@pytest.mark.parametrize("store", ["plain", "tiered"])
def test_soak_verifies_any_store(store):
    """A plain cache has no ``check_conservation``: the soak runs it
    without checkpoints and still verifies every answer and page."""
    system = get_system(SMOKE_SCALE)
    streams = user_streams(system, num_users=4, per_user=60)
    cache = ChunkCache(system.cache_bytes // 4)
    if store == "tiered":
        cache = TieredChunkCache(cache, ChunkLog(page_size=1024))
    oracle_manager = make_chunk_manager(system)
    manager = make_chunk_manager(system, cache=cache)
    try:
        report = run_soak(
            manager,
            streams,
            SoakConfig(checkpoint_every=50),
            oracle=lambda query: oracle_manager.pipeline.execute(query).rows,
        )
    finally:
        if store == "tiered":
            cache.close()

    assert report.queries == 4 * 60
    assert report.wrong_answers == 0
    assert report.pages_read == report.disk_read_delta > 0
    assert report.deep_checks > 0
    assert report.checkpoints == (4 * 60 // 50 if store == "tiered" else 0)
    assert report.serve.contention == {
        "backend": report.serve.contention["backend"]
    }


def test_two_tier_soak_spills_and_conserves():
    """The 2-tier soak over a sharded L1: conservation still exact, and
    the tight L1 makes the run spill."""
    system = get_system(SMOKE_SCALE)
    streams = user_streams(system, num_users=4, per_user=100)
    # A deliberately tight L1 so evictions (and therefore spills and
    # promotions) happen.
    l1 = ShardedChunkCache(system.cache_bytes // 4, num_shards=4)
    cache = TieredChunkCache(l1, ChunkLog(page_size=1024))
    manager = make_chunk_manager(system, cache=cache)

    report = run_soak(
        manager,
        streams,
        SoakConfig(
            checkpoint_every=CHECKPOINT_EVERY,
            timeout_seconds=TIMEOUT_SECONDS,
        ),
    )

    assert report.queries == 4 * 100
    assert report.pages_read == report.disk_read_delta
    cache.check_conservation()
    assert cache.tiers()["l2"]["spills"] > 0, (
        "test needs spill traffic to exercise the tier"
    )
