"""The admission front door — tier-1 gate for coalesced serving.

Pins the front door's three contracts at smoke scale:

- **determinism** — the FrontReport digest is a pure function of
  (workload, fault seed, config): identical at 1, 2 and 4 workers and
  across back-to-back runs;
- **conservation** — ``pages_read + failed_pages`` equals the disk
  read delta exactly, with coalesced waiters charging zero pages (the
  flight leader's fetch carries them all) and shed queries charging
  nothing at all;
- **typed degradation** — under fault injection every coalesced waiter
  of a failed fetch receives the *same* typed failure as the leader,
  and every answered query replays fault-free to the same rows.
"""

from dataclasses import replace

import pytest

from repro.exceptions import ServeError
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import get_system, make_chunk_manager
from repro.experiments.multiuser import user_streams
from repro.faults import FaultInjector, FaultPlan, standard_specs
from repro.serve import FrontConfig, FrontSession, run_front

NUM_STREAMS = 4
PER_USER = 6
CONFIG = FrontConfig(window=4, timeout_seconds=150.0)
CHAOS_SEED = 20260807


def _system_and_streams():
    system = get_system(SMOKE_SCALE)
    streams = user_streams(
        system, num_users=NUM_STREAMS, per_user=PER_USER, paired=True
    )
    return system, streams


def _injector():
    return FaultInjector(
        FaultPlan(seed=CHAOS_SEED, specs=standard_specs("mid"))
    )


class TestDeterminism:
    def test_digest_pure_in_worker_count_and_repetition(self):
        system, streams = _system_and_streams()
        digests = []
        for workers in (1, 2, 4, 4):
            report = run_front(
                make_chunk_manager(system),
                streams,
                replace(CONFIG, max_workers=workers),
            )
            digests.append(report.digest)
        assert len(set(digests)) == 1

    def test_windows_log_is_the_admission_order(self):
        system, streams = _system_and_streams()
        report = run_front(make_chunk_manager(system), streams, CONFIG)
        admitted = [seq for window in report.windows for seq in window]
        # Every admitted query appears exactly once, in seq order
        # within each window, and none exceeds the window size.
        assert sorted(admitted) == list(range(report.queries))
        for window in report.windows:
            assert 1 <= len(window) <= CONFIG.window
            assert list(window) == sorted(window)

    def test_report_shape(self):
        system, streams = _system_and_streams()
        report = run_front(make_chunk_manager(system), streams, CONFIG)
        assert report.queries == NUM_STREAMS * PER_USER
        serve = report.serve
        assert serve.schedule == "front"
        assert set(serve.per_stream) == {s.name for s in streams}
        assert sum(len(m) for m in serve.per_stream.values()) == (
            report.queries
        )
        assert len(serve.metrics) == report.queries
        assert report.wrong_answers == 0


class _CountingAnalyzer:
    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def analyze(self, query):
        self.calls += 1
        return self.inner.analyze(query)


class TestCoalescing:
    def test_admitted_query_is_analysed_once(self):
        system, streams = _system_and_streams()
        manager = make_chunk_manager(system)
        analyses = _CountingAnalyzer(manager.pipeline.analyzer)
        manager.pipeline.analyzer = analyses
        front = FrontSession(manager, streams, CONFIG)
        # Wrapped after construction, as benchmarks/e2e's proxy is.
        asked = _CountingAnalyzer(front.pipeline.analyzer)
        front.pipeline.analyzer = asked
        queries = len(front.run().metrics)
        # Window planning and execute both ask the stage; it analyses
        # once and execute gets the window's analysis back.
        assert (asked.calls, analyses.calls) == (2 * queries, queries)

    def test_coalescing_cuts_physical_pages(self):
        system, streams = _system_and_streams()
        baseline = run_front(
            make_chunk_manager(system),
            streams,
            replace(CONFIG, coalesce=False),
        )
        coalesced = run_front(
            make_chunk_manager(system), streams, CONFIG
        )
        assert coalesced.pages_read < baseline.pages_read
        assert coalesced.flights > 0
        assert coalesced.coalesced_chunks >= coalesced.flights
        assert baseline.flights == 0 and baseline.shared_pages == 0

    def test_conservation_holds_on_both_sides(self):
        system, streams = _system_and_streams()
        for coalesce in (False, True):
            report = run_front(
                make_chunk_manager(system),
                streams,
                replace(CONFIG, coalesce=coalesce),
            )
            assert report.failed_pages == 0
            assert report.pages_read == report.disk_read_delta
            assert report.pages_read > 0
            assert report.deep_checks > 0


class TestBackpressure:
    def test_shed_is_deterministic_and_conserving(self):
        system, streams = _system_and_streams()
        config = replace(
            CONFIG, window=2, queue_limit=2, arrivals_per_tick=3
        )
        first = run_front(make_chunk_manager(system), streams, config)
        second = run_front(make_chunk_manager(system), streams, config)
        assert len(first.shed) > 0
        assert first.shed == second.shed
        assert first.digest == second.digest
        # Shed queries never execute: admitted + shed covers the offer.
        assert first.queries + len(first.shed) == (
            NUM_STREAMS * PER_USER
        )
        assert first.pages_read == first.disk_read_delta
        for shed in first.shed:
            assert shed.depth == config.queue_limit

    def test_roomy_queue_sheds_nothing(self):
        system, streams = _system_and_streams()
        report = run_front(make_chunk_manager(system), streams, CONFIG)
        assert report.shed == ()


class TestChaos:
    def test_waiters_inherit_the_leaders_typed_failure(self):
        system, streams = _system_and_streams()
        oracle_manager = make_chunk_manager(system)
        report = run_front(
            make_chunk_manager(system),
            streams,
            replace(CONFIG, max_workers=2),
            injector=_injector(),
            oracle=lambda q: oracle_manager.pipeline.execute(q).rows,
        )
        assert report.failures == len(report.serve.failures) > 0
        assert report.wrong_answers == 0
        # Exact conservation including wasted I/O of failed attempts.
        assert report.pages_read + report.failed_pages == (
            report.disk_read_delta
        )
        by_message = {}
        for failure in report.serve.failures:
            by_message.setdefault(failure.message, []).append(failure)
        shared = [
            group for group in by_message.values() if len(group) > 1
        ]
        assert shared, "expected at least one coalesced failure group"
        for group in shared:
            kinds = {failure.kind for failure in group}
            assert len(kinds) == 1
            # One leader paid for the attempt; every waiter charged 0.
            zero_page = [f for f in group if f.pages_read == 0]
            assert len(zero_page) == len(group) - 1

    def test_chaos_digest_stable_across_workers(self):
        system, streams = _system_and_streams()
        digests = {
            run_front(
                make_chunk_manager(system),
                streams,
                replace(CONFIG, max_workers=workers),
                injector=_injector(),
            ).digest
            for workers in (1, 2, 4)
        }
        assert len(digests) == 1


class TestValidation:
    def test_rejects_bad_configs(self):
        system, streams = _system_and_streams()
        manager = make_chunk_manager(system)
        for knobs in (
            {"window": 0},
            {"queue_limit": 0},
            {"arrivals_per_tick": 0},
            {"timeout_seconds": 0.0},
            {"max_workers": 0},
        ):
            # The admission knobs are refused by FrontConfig itself, the
            # engine's by the session.
            with pytest.raises(ServeError):
                FrontSession(manager, streams, FrontConfig(**knobs))

    def test_rejects_empty_and_duplicate_streams(self):
        system, streams = _system_and_streams()
        manager = make_chunk_manager(system)
        with pytest.raises(ServeError):
            FrontSession(manager, [], CONFIG)
        with pytest.raises(ServeError):
            FrontSession(manager, [streams[0], streams[0]], CONFIG)
