"""The multi-user soak gate — tier-1 regression test for concurrency.

Eight user streams of 250 queries each race on eight worker threads
against one shared sharded cache with ``REPRO_INVARIANTS=deep`` forced
on.  The run must produce zero invariant violations, account for every
disk page exactly at every 100-query checkpoint and at the end, and
return — for every one of the racing queries — the rows a fault-free
oracle replays afterwards.  These are the properties that must hold
under *any* thread interleaving — the test is a genuine race, not a
reproducible schedule.

The run also records a lock-order witness (:mod:`repro.lockorder`):
every nested pair of lock levels actually held by one thread.  The
observed edges must be a subset of the static lock-order graph that
``tools/reprolint`` derives (pinned in ``tests/tools/lockorder.txt``)
— an acquisition order the analyzer did not predict fails this gate
before it can deadlock in production.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import invariants, lockorder
from repro.exceptions import ServeError
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import get_system, make_chunk_manager
from repro.experiments.multiuser import user_streams
from repro.serve import FREE, ShardedChunkCache, SoakConfig, run_soak

NUM_STREAMS = 8
PER_USER = 250
CHECKPOINT_EVERY = 100
# Hard deadline: a deadlock becomes a ServeError, never a hung suite.
TIMEOUT_SECONDS = 150.0
# The static lock-order graph pinned by tools/reprolint (R009).
STATIC_GRAPH = Path(__file__).resolve().parents[1] / "tools" / "lockorder.txt"


def _static_edges() -> frozenset[tuple[str, str]]:
    edges = set()
    for line in STATIC_GRAPH.read_text().splitlines():
        outer, _, inner = line.partition(" -> ")
        edges.add((outer, inner))
    return frozenset(edges)


def test_multiuser_soak_conserves_everything():
    system = get_system(SMOKE_SCALE)
    streams = user_streams(
        system, num_users=NUM_STREAMS, per_user=PER_USER
    )
    cache = ShardedChunkCache(system.cache_bytes, num_shards=8)
    oracle_manager = make_chunk_manager(system)
    manager = make_chunk_manager(system, cache=cache)

    previous_mode = invariants.mode()
    with lockorder.capture() as witness_log:
        report = run_soak(
            manager,
            streams,
            SoakConfig(
                checkpoint_every=CHECKPOINT_EVERY,
                timeout_seconds=TIMEOUT_SECONDS,
                schedule=FREE,
            ),
            oracle=lambda query: oracle_manager.pipeline.execute(query).rows,
        )

    assert report.queries == NUM_STREAMS * PER_USER
    # Every racing answer equals the oracle's fault-free replay.
    assert report.wrong_answers == 0
    assert report.failures == 0 and report.fault_counters == {}
    # A checkpoint fired at every 100-query boundary...
    assert report.checkpoints == report.queries // CHECKPOINT_EVERY
    # ...each running the cross-shard conservation check in deep mode.
    assert report.deep_checks > 0
    # Global I/O conservation: worker records account for every page
    # the backend disk actually served — exactly, not approximately.
    assert report.pages_read == report.disk_read_delta
    assert report.pages_read > 0
    # The harness restored the invariant mode it found.
    assert invariants.mode() == previous_mode

    serve = report.serve
    assert serve.schedule == "free"
    assert serve.max_workers == NUM_STREAMS
    assert sorted(serve.per_stream) == [s.name for s in sorted(
        streams, key=lambda s: s.name
    )]
    contention = serve.contention["cache"]
    assert contention["num_shards"] == 8
    assert contention["lock_acquisitions"] > 0

    # Static/dynamic cross-check: every lock-order edge a thread
    # actually exercised was predicted by the static analyzer.  The
    # witness must also have seen the shard lock at all — an empty log
    # would mean the instrumentation fell off the hot path.
    observed = witness_log.edges()
    unexpected = observed - _static_edges()
    assert not unexpected, (
        f"runtime lock orders not in the static graph: {sorted(unexpected)}"
        " — regenerate tests/tools/lockorder.txt if this is intentional"
    )
    assert ("shard", "accounting") in observed


def test_soak_requires_a_conservation_checking_store():
    manager = SimpleNamespace(cache=object())
    with pytest.raises(ServeError):
        run_soak(manager, [])


def test_two_tier_soak_witnesses_the_tiering_lock_order():
    """The 2-tier soak under real thread interleavings: conservation
    still exact, and every runtime lock-order edge — now including the
    spill path's shard -> tiered -> l2 nesting — was predicted by
    the static graph."""
    from repro.core.tiered import TieredChunkCache
    from repro.storage.chunklog import ChunkLog

    system = get_system(SMOKE_SCALE)
    streams = user_streams(system, num_users=4, per_user=100)
    # A deliberately tight L1 so evictions (and therefore spills and
    # promotions) happen under concurrency.
    l1 = ShardedChunkCache(system.cache_bytes // 4, num_shards=4)
    cache = TieredChunkCache(l1, ChunkLog(page_size=1024))
    manager = make_chunk_manager(system, cache=cache)

    with lockorder.capture() as witness_log:
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
        "test needs spill traffic to witness the tiering lock order"
    )

    observed = witness_log.edges()
    unexpected = observed - _static_edges()
    assert not unexpected, (
        f"runtime lock orders not in the static graph: {sorted(unexpected)}"
        " — regenerate tests/tools/lockorder.txt if this is intentional"
    )
    assert ("shard", "tiered") in observed
    assert ("tiered", "l2") in observed
