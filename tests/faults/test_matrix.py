"""The chaos regression matrix: fault kind × rate over a real workload.

Every cell runs the chaos soak on a fresh sharded manager and checks
the degradation contract — every query answers correctly or fails with
a typed :class:`~repro.exceptions.InjectedFault`, byte/benefit and I/O
accounting conserve exactly, and quarantined shards re-admit.
"""

import pytest

from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import get_system, make_chunk_manager
from repro.experiments.multiuser import user_streams
from repro.faults import (
    BACKEND_QUERY,
    CACHE_POISON,
    CACHE_PRESSURE,
    DISK_PERMANENT,
    DISK_SLOW,
    DISK_TRANSIENT,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.serve import ShardedChunkCache, SoakConfig, run_soak

#: Kinds that degrade service but can never fail a query outright.
HARMLESS_KINDS = frozenset({DISK_SLOW, CACHE_POISON, CACHE_PRESSURE})

NUM_USERS = 4
PER_USER = 10
CONFIG = SoakConfig(
    checkpoint_every=10, timeout_seconds=120.0
)


@pytest.fixture(scope="module")
def system():
    return get_system(SMOKE_SCALE)


@pytest.fixture(scope="module")
def streams(system):
    return user_streams(system, num_users=NUM_USERS, per_user=PER_USER)


def spec_for(kind, rate):
    if kind == DISK_SLOW:
        return FaultSpec(kind, rate, latency=1.5)
    if kind == CACHE_PRESSURE:
        return FaultSpec(kind, rate, pressure=2)
    return FaultSpec(kind, rate)


def chaos_run(system, streams, spec, seed=99, **store_kwargs):
    cache = ShardedChunkCache(
        system.cache_bytes, num_shards=store_kwargs.pop("num_shards", 4),
        **store_kwargs,
    )
    manager = make_chunk_manager(system, cache=cache)
    oracle_manager = make_chunk_manager(system)
    injector = FaultInjector(FaultPlan(seed=seed, specs=(spec,)))
    report = run_soak(
        manager,
        streams,
        CONFIG,
        injector=injector,
        oracle=lambda query: oracle_manager.pipeline.execute(query).rows,
    )
    return report, manager


@pytest.mark.parametrize("rate", [0.02, 0.2])
@pytest.mark.parametrize(
    "kind",
    [
        DISK_TRANSIENT,
        DISK_PERMANENT,
        DISK_SLOW,
        BACKEND_QUERY,
        CACHE_POISON,
        CACHE_PRESSURE,
    ],
)
class TestMatrix:
    def test_correct_or_typed_failure(self, system, streams, kind, rate):
        report, manager = chaos_run(system, streams, spec_for(kind, rate))
        total = sum(len(stream) for stream in streams)
        # Every query either answered (and matched the oracle — checked
        # inside the harness) or failed typed; nothing vanished.
        assert report.queries + report.failures == total
        assert report.wrong_answers == 0
        if kind in HARMLESS_KINDS:
            assert report.failures == 0
        # Exact conservation re-stated from the report's own fields.
        assert (
            report.pages_read + report.failed_pages
            == report.disk_read_delta
        )
        assert report.deep_checks > 0
        # The store's cross-shard accounting survived the run.
        manager.cache.check_conservation()
        for failure in report.serve.failures:
            assert failure.kind in ("DiskFault", "BackendFault")


class TestQuarantine:
    def test_poisoned_shard_quarantines_and_readmits(
        self, system, streams
    ):
        report, manager = chaos_run(
            system,
            streams,
            FaultSpec(CACHE_POISON, 1.0),
            num_shards=1,
            quarantine_after=2,
            quarantine_ops=4,
        )
        assert report.failures == 0
        assert report.wrong_answers == 0
        contention = manager.cache.contention()
        assert contention["quarantines"] >= 1
        assert contention["readmissions"] >= 1
        manager.cache.check_conservation()

    def test_quarantine_rejects_count_and_conserve(self, system, streams):
        report, manager = chaos_run(
            system,
            streams,
            FaultSpec(CACHE_POISON, 0.5),
            num_shards=2,
            quarantine_after=2,
            quarantine_ops=8,
        )
        contention = manager.cache.contention()
        stats = manager.cache.stats
        assert stats.poisoned >= contention["quarantines"]
        assert report.pages_read + report.failed_pages == (
            report.disk_read_delta
        )
        manager.cache.check_conservation()
