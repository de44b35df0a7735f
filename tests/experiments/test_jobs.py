"""The four verified serving jobs × cache tiers, at smoke scale.

Every job kind the nightly runs — soak, chaos-soak, front, front-chaos —
goes through the one job runner in :mod:`repro.experiments.jobs` and
the one verifying harness in :mod:`repro.serve`, so the same properties
are asserted on all of them: exact I/O conservation, no wrong answer
where an oracle replayed, and tier keys only when there are two tiers.
"""

from collections import Counter

import pytest

from repro import invariants
from repro.api import StackConfig
from repro.experiments import jobs
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import get_system
from repro.serve import FrontConfig, SoakConfig

WORKLOAD = dict(scale=SMOKE_SCALE, num_users=4, per_user=8)
SOAK = SoakConfig(checkpoint_every=10, timeout_seconds=120.0)
CHAOS = SoakConfig(checkpoint_every=10, timeout_seconds=120.0)
FRONT = FrontConfig(window=4, timeout_seconds=120.0)

#: kind -> (job function, harness config, does an oracle replay?)
JOBS = {
    "soak": (jobs.run_soak_job, SOAK, False),
    "chaos-soak": (jobs.run_chaos_job, CHAOS, True),
    "front": (jobs.run_front_job, FRONT, False),
    "front-chaos": (jobs.run_front_chaos_job, FRONT, True),
}


@pytest.mark.parametrize("cache_tiers", [1, 2])
@pytest.mark.parametrize("kind", sorted(JOBS))
def test_job_conserves_and_summarizes(kind, cache_tiers):
    run, config, has_oracle = JOBS[kind]
    summary = run(
        cache=jobs.cache_config(
            SMOKE_SCALE, num_shards=4, cache_tiers=cache_tiers
        ),
        config=config,
        **WORKLOAD,
    )
    assert summary["job"] == kind
    assert summary["num_shards"] == 4
    assert (summary["num_users"], summary["per_user"]) == (4, 8)
    assert summary["queries"] + summary.get("failures", 0) == 32
    assert summary["pages_read"] + summary.get("failed_pages", 0) == (
        summary["disk_read_delta"]
    )
    assert summary["deep_checks"] > 0
    if has_oracle:
        assert summary["oracle_replayed"] is True
        assert summary["wrong_answers"] == 0
        assert summary["failures"] > 0
        assert sum(summary["fault_counters"].values()) > 0
    if kind == "front":
        assert summary["pages_saved"] > 0
        assert summary["pages_saved"] == (
            summary["baseline_pages_read"] - summary["pages_read"]
        )
    if cache_tiers == 2:
        assert summary["cache_tiers"] == 2
        assert set(summary["tiers"]) >= {"l1", "l2"}
    else:
        assert "cache_tiers" not in summary and "tiers" not in summary


@pytest.mark.parametrize("kind", ["soak", "front"])
def test_job_checks_the_closure_of_every_dimension(kind, monkeypatch):
    # The jobs share one memoized system whose chunk ranges were built
    # before any run turned deep checking on; the run itself must still
    # check each dimension's closure.
    checked = Counter()
    check = invariants.check_closure

    def counting(chunking):
        checked[chunking.dimension.name] += 1
        check(chunking)

    monkeypatch.setattr(invariants, "check_closure", counting)
    run, config, _has_oracle = JOBS[kind]
    run(cache=jobs.cache_config(SMOKE_SCALE), config=config, **WORKLOAD)
    names = [
        dimension.name
        for dimension in get_system(SMOKE_SCALE).schema.dimensions
    ]
    assert len(names) == 4
    assert all(checked[name] >= 1 for name in names), checked


def test_cache_config_is_the_scale_derived_default():
    default = jobs.cache_config(SMOKE_SCALE)
    assert isinstance(default, StackConfig)
    assert default.num_shards == jobs.NUM_SHARDS
    assert default.cache_tiers == 1
    tight = jobs.cache_config(SMOKE_SCALE, cache_bytes=40_000)
    assert tight.cache_bytes == 40_000 < default.cache_bytes
    # A job given no cache uses exactly that default.
    summary = jobs.run_chaos_job(
        config=CHAOS, with_oracle=False, **WORKLOAD
    )
    assert summary["num_shards"] == jobs.NUM_SHARDS
    assert summary["oracle_replayed"] is False
