"""Fault injection on the 2-tier write path: spills, promotes, torn writes.

The degradation contract for the persistent tier mirrors the read
path's: a failed spill loses a *copy* (never the truth), a failed
promotion is an L2 miss, a torn write is detected by checksum and
quarantined — and the whole circus stays deterministic: the chaos
digest is a pure function of (workload, seed, config), identical at
any worker count.
"""

from types import SimpleNamespace

import pytest

from repro.core.cache import ChunkCache
from repro.core.tiered import FAILURE_LIMIT, TieredChunkCache, chunk_token
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.jobs import cache_config, run_chaos_job
from repro.faults import (
    LOG_COMPACT,
    LOG_PERMANENT,
    LOG_TORN,
    PROMOTE_READ,
    SPILL_WRITE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    tiered_specs,
)
from repro.serve import FAIR, SoakConfig
from repro.storage.chunklog import ChunkLog
from repro.storage.disk import SimulatedDisk

from tests.core.test_tiered import make_chunk

PAGE = 256


def make_tiered(capacity, **kwargs):
    return TieredChunkCache(
        ChunkCache(capacity), ChunkLog(page_size=PAGE), **kwargs
    )


def injector_for(*specs, seed=7):
    return FaultInjector(FaultPlan(seed=seed, specs=specs))


def activate_on(injector, tiered):
    """Wrap the tiered cache in a minimal duck-typed manager."""
    backend = SimpleNamespace(disk=SimulatedDisk(), fault_hook=None)
    return injector.activate(SimpleNamespace(backend=backend, cache=tiered))


def force_spill(tiered, numbers=(0, 1)):
    """Fill a one-entry L1 so every earlier put gets evicted."""
    for n in numbers:
        tiered.put(make_chunk(number=n, fill=n))


class TestSpillWriteFaults:
    def test_transient_spill_fault_drops_the_copy(self):
        tiered = make_tiered(make_chunk().size_bytes)
        injector = injector_for(FaultSpec(SPILL_WRITE, 1.0))
        with activate_on(injector, tiered):
            force_spill(tiered)
        assert injector.counters()[SPILL_WRITE] >= 2  # first try + retry
        l2 = tiered.tiers()["l2"]
        assert (l2["spills"], l2["spill_faults"]) == (0, 1)
        assert len(tiered.log) == 0  # nothing reached the log
        # The truth is untouched: L1 still serves the resident entry.
        assert tiered.get(make_chunk(number=1).key) is not None
        tiered.check_conservation()  # aborted writes reconcile exactly

    def test_permanent_spill_fault_is_not_retried(self):
        tiered = make_tiered(make_chunk().size_bytes)
        injector = injector_for(FaultSpec(LOG_PERMANENT, 1.0))
        with activate_on(injector, tiered):
            force_spill(tiered)
        assert injector.counters()[LOG_PERMANENT] == 1  # single strike
        assert tiered.tiers()["l2"]["spill_faults"] == 1
        tiered.check_conservation()

    def test_spill_faults_eventually_degrade_the_tier(self):
        tiered = make_tiered(make_chunk().size_bytes)
        injector = injector_for(FaultSpec(SPILL_WRITE, 1.0))
        with activate_on(injector, tiered):
            force_spill(tiered, numbers=range(FAILURE_LIMIT + 2))
        l2 = tiered.tiers()["l2"]
        assert l2["degraded"] is True
        # Strikes stop once disabled.
        assert l2["spill_faults"] == FAILURE_LIMIT


class TestPromoteReadFaults:
    def test_transient_promote_fault_is_an_l2_miss(self):
        tiered = make_tiered(make_chunk().size_bytes)
        force_spill(tiered)  # entry 0 now lives only in the log
        key = make_chunk(number=0).key
        injector = injector_for(FaultSpec(PROMOTE_READ, 1.0))
        with activate_on(injector, tiered):
            assert tiered.get(key) is None
        assert injector.counters()[PROMOTE_READ] >= 2  # first try + retry
        l2 = tiered.tiers()["l2"]
        assert l2["promote_faults"] == 1
        assert l2["degraded"] is False
        # The record survived: with faults gone, promotion succeeds.
        got = tiered.get(key)
        assert got is not None and got.rows["D0"][0] == 0
        tiered.check_conservation()

    def test_permanent_promote_fault_keys_by_page(self):
        tiered = make_tiered(make_chunk().size_bytes)
        force_spill(tiered)
        key = make_chunk(number=0).key
        injector = injector_for(FaultSpec(LOG_PERMANENT, 1.0))
        with activate_on(injector, tiered):
            assert tiered.get(key) is None
            assert tiered.get(key) is None  # dead page stays dead
        assert injector.counters()[LOG_PERMANENT] == 2
        assert tiered.tiers()["l2"]["promote_faults"] == 2
        tiered.check_conservation()


class TestTornWriteQuarantine:
    def test_torn_spill_is_quarantined_at_promotion(self):
        tiered = make_tiered(make_chunk().size_bytes)
        injector = injector_for(FaultSpec(LOG_TORN, 1.0))
        with activate_on(injector, tiered):
            force_spill(tiered)
            key = make_chunk(number=0).key
            token = chunk_token(key)
            assert token in tiered.log  # the spill "succeeded"
            # ...but the checksum catches the corruption on promotion:
            # a miss and a quarantine, never a wrong answer.
            assert tiered.get(key) is None
        assert injector.counters()[LOG_TORN] == 1
        assert tiered.log.stats.torn_writes == 1
        assert tiered.log.stats.crc_failures == 1
        l2 = tiered.tiers()["l2"]
        assert l2["quarantined"] == 1
        assert token not in tiered.log

    def test_hooks_are_restored_on_exit(self):
        tiered = make_tiered(1_000)
        injector = injector_for(FaultSpec(LOG_TORN, 1.0))
        with activate_on(injector, tiered):
            assert tiered.log.torn_hook == injector.torn_write
            assert tiered.log.disk.write_hook == injector.spill_write
            assert tiered.log.disk.read_hook == injector.promote_read
        assert tiered.log.torn_hook is None
        assert tiered.log.disk.write_hook is None
        assert tiered.log.disk.read_hook is None


class TestTieredSpecs:
    def test_extends_standard_mix(self):
        from repro.faults import standard_specs

        base = standard_specs("mid")
        extended = tiered_specs("mid")
        assert extended[: len(base)] == base  # pinned digests never move
        kinds = {spec.kind for spec in extended[len(base):]}
        assert kinds == {SPILL_WRITE, PROMOTE_READ, LOG_TORN, LOG_COMPACT}

    def test_high_arms_dead_pages(self):
        kinds = {spec.kind for spec in tiered_specs("high")}
        assert LOG_PERMANENT in kinds

    def test_unknown_preset_rejected(self):
        from repro.exceptions import FaultError

        with pytest.raises(FaultError):
            tiered_specs("apocalyptic")


CHAOS_ARGS = dict(
    scale=SMOKE_SCALE,
    rate="mid",
    seed=20260806,
    num_users=4,
    per_user=20,
    with_oracle=False,
)


def chaos_run(workers, **cache):
    return run_chaos_job(
        cache=cache_config(SMOKE_SCALE, num_shards=4, **cache),
        config=SoakConfig(
            max_workers=workers,
            checkpoint_every=25,
            timeout_seconds=120.0,
            schedule=FAIR,
        ),
        **CHAOS_ARGS,
    )


class TestTieredChaosDigest:
    """The 2-tier chaos digest is schedule-independent: the digest is
    a pure function of (workload, seed, config)."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {
            workers: chaos_run(workers, cache_tiers=2)
            for workers in (1, 2, 4)
        }

    def test_digest_identical_across_worker_counts(self, runs):
        digests = {workers: run["digest"] for workers, run in runs.items()}
        assert len(set(digests.values())) == 1, digests

    def test_fault_counters_identical_across_worker_counts(self, runs):
        counters = [run["fault_counters"] for run in runs.values()]
        assert counters[0] == counters[1] == counters[2]

    def test_tier_summary_present_and_identical(self, runs):
        tiers = [run["tiers"] for run in runs.values()]
        assert tiers[0] == tiers[1] == tiers[2]
        assert runs[1]["cache_tiers"] == 2
        assert runs[1]["tiers"]["l2"]["spills"] > 0  # the tier saw traffic

    def test_one_tier_summary_has_no_tier_keys(self):
        run = chaos_run(2, cache_tiers=1)
        assert "tiers" not in run
        assert "cache_tiers" not in run
