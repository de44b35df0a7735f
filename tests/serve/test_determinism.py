"""Determinism regression gates for the serving layer.

Three contracts pinned bit-for-bit (all comparisons are on ``repr``
strings or exact JSON values, so any last-ulp drift fails loudly):

1. the multiuser experiment's shared-concurrent arm reproduces the
   sequential shared arm exactly — serving the streams must not change
   a single accounting number, at any worker count;
2. pre-existing experiments (Figure 9) are repeatable run to run —
   the serving layer must not have perturbed the plain paths;
3. no clock, global RNG or hash seed reaches a digest or a
   deterministic summary field (the time-warp test).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


#: The arm script of the time-warp test, and the tree it imports.
TIMEWARP = Path(__file__).with_name("timewarp.py")
SRC = Path(__file__).resolve().parents[2] / "src"

#: Summary fields that hold wall-clock time, as (enclosing key, key):
#: the counted locks' waits of the backend, of the sharded cache and of
#: each shard, under ``contention``.  They are the only fields the
#: comparison skips; they leave with the counted locks, which the
#: end-to-end benchmark still reads.
WALL_CLOCK_FIELDS = frozenset(
    {
        ("backend", "lock_wait_seconds"),
        ("cache", "lock_wait_seconds"),
        ("per_shard", "lock_wait_seconds"),
    }
)


def _leaves(value, path=()):
    """Every scalar of a JSON value, keyed by its path of keys/indices."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, path + (index,))
    else:
        yield path, value


def _field(path):
    """A leaf's last two keys, list indices skipped."""
    return tuple(part for part in path if isinstance(part, str))[-2:]


class TestTimeWarp:
    """Digests are pure functions of (workload, seed, configuration).

    Two subprocesses run every digest-producing job (the soak, chaos,
    2-tier chaos, front and front-chaos jobs, and the multiuser
    shared-concurrent summary): one with every clock scaled and
    offset, one with every clock jittered per call, each with its own
    global RNG seeds and ``PYTHONHASHSEED``.  Any clock, unseeded RNG
    or ``hash()`` order that reached a digest or a counter shows up as
    a field that differs.  What it cannot see is a code path no job
    runs.
    """

    def test_clocks_rngs_and_hash_seed_reach_no_summary_field(self):
        pythonpath = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        outputs = []
        for arm, hash_seed in (("A", "1"), ("B", "2")):
            done = subprocess.run(
                [sys.executable, str(TIMEWARP), arm],
                env=dict(
                    os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath
                ),
                capture_output=True,
                text=True,
                timeout=600,
                check=False,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(json.loads(done.stdout))
        warped, jittered = outputs
        assert warped["clock_reads"] > 0 and jittered["clock_reads"] > 0

        first = dict(_leaves(warped["jobs"]))
        second = dict(_leaves(jittered["jobs"]))
        assert first.keys() == second.keys()
        skipped = {
            path
            for path in first
            if path[1] == "contention" and _field(path) in WALL_CLOCK_FIELDS
        }
        assert {_field(path) for path in skipped} == WALL_CLOCK_FIELDS
        differing = [
            f"{path}: {first[path]!r} != {second[path]!r}"
            for path in first
            if path not in skipped and first[path] != second[path]
        ]
        assert not differing, "\n".join(differing)
