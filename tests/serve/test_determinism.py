"""Determinism regression gates for the serving layer.

Two contracts pinned bit-for-bit (all comparisons are on ``repr``
strings, so any last-ulp drift fails loudly):

1. the multiuser experiment's shared-concurrent arm reproduces the
   sequential shared arm exactly — serving the streams must not change
   a single accounting number, at any worker count;
2. pre-existing experiments (Figure 9) are repeatable run to run —
   the serving layer must not have perturbed the plain paths.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments import fig9, multiuser
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import (
    get_system,
    make_chunk_manager,
    run_stream,
)
from repro.faults import FaultInjector, FaultPlan, standard_specs
from repro.serve import ShardedChunkCache, SoakConfig, run_soak
from repro.workload.stream import interleave_streams


@pytest.fixture(scope="module")
def system():
    return get_system(SMOKE_SCALE)


@pytest.fixture(scope="module")
def streams(system):
    return multiuser.user_streams(system)


def sequential_records(system, streams):
    ordered = sorted(streams, key=lambda stream: stream.name)
    manager = make_chunk_manager(system)
    metrics = run_stream(
        manager, interleave_streams("all-users", ordered)
    )
    return metrics


class TestSharedConcurrentMatchesSequential:
    def test_single_worker_is_bit_identical(self, system, streams):
        sequential = sequential_records(system, streams)
        report = multiuser.run_shared_concurrent(
            system, streams, max_workers=1
        )
        assert repr(list(report.metrics.records)) == repr(
            list(sequential.records)
        )
        assert repr(report.metrics.cost_saving_ratio()) == repr(
            sequential.cost_saving_ratio()
        )
        assert repr(report.metrics.mean_time()) == repr(
            sequential.mean_time()
        )
        assert (
            report.metrics.total_pages_read()
            == sequential.total_pages_read()
        )

    def test_experiment_rows_agree(self):
        result = multiuser.run(SMOKE_SCALE)
        by_config = {row["configuration"]: row for row in result.rows}
        shared = by_config["shared"]
        concurrent = by_config["shared-concurrent"]
        assert repr(shared["csr"]) == repr(concurrent["csr"])
        assert repr(shared["mean_time"]) == repr(concurrent["mean_time"])
        assert shared["pages_read"] == concurrent["pages_read"]


@pytest.fixture(scope="module")
def chaos_streams(system):
    return multiuser.user_streams(system, num_users=4, per_user=8)


class TestChaosDigestIsSeedDeterministic:
    """Property: the soak digest is a pure function of the seed.

    For any fault-plan seed, and for no fault plan at all (``seed``
    None, the fault-free soak), the soak yields the *same* digest on
    every run and at every worker count — the whole point of hashing
    the plan instead of sampling a shared RNG, and of running one
    schedule.
    """

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=None)
    @settings(max_examples=5, deadline=None)
    def test_same_seed_same_digest_at_any_worker_count(
        self, system, chaos_streams, seed
    ):
        digests = []
        # The repeated 1 is a second run of an identical configuration.
        for max_workers in (1, 2, 4, 1):
            cache = ShardedChunkCache(system.cache_bytes, num_shards=4)
            manager = make_chunk_manager(system, cache=cache)
            injector = None
            if seed is not None:
                injector = FaultInjector(
                    FaultPlan(seed=seed, specs=standard_specs("mid"))
                )
            report = run_soak(
                manager,
                chaos_streams,
                SoakConfig(
                    checkpoint_every=10,
                    max_workers=max_workers,
                    timeout_seconds=120.0,
                ),
                injector=injector,
            )
            digests.append(report.digest)
        assert len(set(digests)) == 1


class TestExistingExperimentsUnperturbed:
    def test_fig9_is_repeatable(self):
        first = fig9.run(SMOKE_SCALE)
        second = fig9.run(SMOKE_SCALE)
        assert first.render() == second.render()
        assert repr(first.rows) == repr(second.rows)

    def test_multiuser_is_repeatable(self):
        first = multiuser.run(SMOKE_SCALE)
        second = multiuser.run(SMOKE_SCALE)
        assert repr(first.rows) == repr(second.rows)
