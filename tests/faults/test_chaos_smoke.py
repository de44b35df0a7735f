"""The tier-1 chaos smoke gate.

One small chaos soak runs as part of the ordinary test suite: deep
invariants on, at least three fault kinds firing, zero wrong answers
against the fault-free oracle, exact I/O conservation, and a digest
that reproduces bit-for-bit on a back-to-back rerun.  A separate test
pins the other half of the contract — with faults disabled the stack
behaves identically to one that has never seen the fault layer.
"""

import pytest

from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import get_system, make_chunk_manager
from repro.experiments.jobs import cache_config, run_chaos_job
from repro.experiments.multiuser import user_streams
from repro.faults import FaultInjector, FaultPlan
from repro.serve import SoakConfig
from tests.reference.stages import stage_totals

CONFIG = SoakConfig(
    checkpoint_every=25, timeout_seconds=120.0
)
JOB_ARGS = dict(
    scale=SMOKE_SCALE,
    rate="mid",
    seed=20260806,
    num_users=4,
    per_user=20,
    cache=cache_config(SMOKE_SCALE, num_shards=4),
    config=CONFIG,
)


@pytest.fixture(scope="module")
def first_run():
    return run_chaos_job(with_oracle=True, **JOB_ARGS)


@pytest.fixture(scope="module")
def second_run(first_run):
    # Ordered after first_run so the runs are strictly back-to-back.
    return run_chaos_job(with_oracle=False, **JOB_ARGS)


class TestChaosSmoke:
    def test_no_wrong_answers(self, first_run):
        assert first_run["oracle_replayed"] is True
        assert first_run["wrong_answers"] == 0

    def test_at_least_three_fault_kinds_fired(self, first_run):
        fired = {
            kind
            for kind, count in first_run["fault_counters"].items()
            if count > 0
        }
        assert len(fired) >= 3, f"only {sorted(fired)} fired"

    def test_exact_io_conservation(self, first_run):
        assert (
            first_run["pages_read"] + first_run["failed_pages"]
            == first_run["disk_read_delta"]
        )

    def test_deep_invariants_and_checkpoints_ran(self, first_run):
        assert first_run["deep_checks"] > 0
        assert first_run["checkpoints"] >= 1

    def test_every_query_accounted(self, first_run):
        total = JOB_ARGS["num_users"] * JOB_ARGS["per_user"]
        assert first_run["queries"] + first_run["failures"] == total
        assert first_run["failures"] > 0

    def test_digest_reproduces_back_to_back(self, first_run, second_run):
        assert first_run["digest"] == second_run["digest"]
        assert first_run["fault_counters"] == second_run["fault_counters"]
        assert first_run["queries"] == second_run["queries"]


class TestFaultsDisabledBitIdentity:
    def test_empty_plan_is_invisible(self):
        # An activated-but-empty fault plan must leave no trace at all:
        # identical per-query accounting records, zero fault counters.
        system = get_system(SMOKE_SCALE)
        streams = user_streams(system, num_users=2, per_user=6)
        queries = [query for stream in streams for query in stream]

        baseline = make_chunk_manager(system)
        plain = [repr(baseline.answer(query).record) for query in queries]

        manager = make_chunk_manager(system)
        injector = FaultInjector(FaultPlan(seed=1, specs=()))
        with injector.activate(manager):
            answers = [manager.answer(query) for query in queries]

        assert [repr(answer.record) for answer in answers] == plain
        assert injector.counters() == {}
        stats = manager.cache.stats
        assert stats.poisoned == stats.pressure_evictions == 0
        totals = stage_totals(answer.trace for answer in answers)
        for field in ("faults", "retries", "degraded", "backoff_seconds"):
            assert all(bucket[field] == 0 for bucket in totals.values())
