"""Tests for the recovery policy: retry, degrade, bounded failure.

The backend resolver's contract under injected faults: transient
failures are retried with deterministic backoff; an aggregate-level
fault degrades to recomputing from base chunks; exhaustion re-raises
the typed fault carrying the complete wasted-I/O accounting — and the
answer, when one is produced, is always correct.
"""

import pytest

from repro.backend.plans import CostReport
from repro.exceptions import BackendFault, PipelineError
from repro.pipeline.resolvers import RetryPolicy
from repro.query.model import StarQuery
from tests.conftest import canon_rows


class OneShotFault:
    """A backend fault hook that raises a queue of errors, then passes."""

    def __init__(self, *errors):
        self.pending = list(errors)
        self.fired = 0

    def __call__(self, operation):
        if self.pending:
            self.fired += 1
            raise self.pending.pop(0)


def transient_fault():
    return BackendFault(
        "injected transient", operation="compute_chunks", transient=True
    )


def permanent_fault():
    return BackendFault(
        "injected permanent", operation="compute_chunks", transient=False
    )


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.backoff(0) == pytest.approx(0.5)
        assert policy.backoff(1) == pytest.approx(1.0)
        assert policy.backoff(2) == pytest.approx(2.0)

    def test_zero_attempts_rejected(self):
        with pytest.raises(PipelineError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_negative_backoff_rejected(self):
        with pytest.raises(PipelineError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(PipelineError):
            RetryPolicy(backoff_factor=-0.5)


class TestRetry:
    def test_transient_fault_is_retried_to_success(
        self, small_schema, small_manager
    ):
        backend = small_manager.backend
        query = StarQuery.build(small_schema, (1, 1), {"D0": (0, 3)})
        expected, _ = backend.answer(query, "scan")
        backend.buffer_pool.flush()
        backend.disk.reset_stats()

        hook = OneShotFault(transient_fault())
        backend.fault_hook = hook
        answer = small_manager.answer(query)
        backend.fault_hook = None

        assert hook.fired == 1
        assert canon_rows(answer.rows) == canon_rows(expected)
        stage = answer.trace.stage("resolve:backend")
        assert stage is not None
        assert stage.faults == 1
        assert stage.retries == 1
        assert stage.degraded == 0
        assert stage.backoff_seconds == pytest.approx(0.5)

    def test_wasted_io_is_conserved(self, small_schema, small_manager):
        backend = small_manager.backend
        query = StarQuery.build(small_schema, (1, 1))
        backend.buffer_pool.flush()
        backend.disk.reset_stats()

        backend.fault_hook = OneShotFault(transient_fault())
        answer = small_manager.answer(query)
        backend.fault_hook = None

        # Every page the disk served — including any read by the failed
        # attempt — lands in the answer's accounting record.
        assert answer.record.pages_read == backend.disk.stats.reads

    def test_fault_counters_reach_describe_cache(
        self, small_schema, small_manager
    ):
        backend = small_manager.backend
        backend.fault_hook = OneShotFault(transient_fault())
        small_manager.answer(StarQuery.build(small_schema, (1, 1)))
        backend.fault_hook = None
        faults = small_manager.snapshot().cache.fault_stats()
        assert faults.faults >= 1
        assert faults.retries >= 1
        assert faults.backoff_seconds > 0.0


class TestDegrade:
    def test_aggregate_fault_degrades_to_base(
        self, small_schema, small_manager
    ):
        backend = small_manager.backend
        backend.materialize((1, 1))
        query = StarQuery.build(small_schema, (1, 1))
        expected, _ = backend.answer(query, "scan")
        backend.buffer_pool.flush()
        backend.disk.reset_stats()

        hook = OneShotFault(permanent_fault())
        backend.fault_hook = hook
        answer = small_manager.answer(query)
        backend.fault_hook = None

        assert hook.fired == 1
        assert canon_rows(answer.rows) == canon_rows(expected)
        stage = answer.trace.stage("resolve:backend")
        assert stage is not None
        assert stage.degraded == 1
        assert stage.faults == 1
        assert stage.retries == 0
        assert answer.record.pages_read == backend.disk.stats.reads

    def test_base_fault_does_not_degrade(
        self, small_schema, small_manager
    ):
        # With no materialized aggregate the failed source is already
        # the base table; a permanent fault must fail, not loop.
        backend = small_manager.backend
        backend.fault_hook = OneShotFault(permanent_fault())
        with pytest.raises(BackendFault) as excinfo:
            small_manager.answer(StarQuery.build(small_schema, (1, 1)))
        backend.fault_hook = None
        assert excinfo.value.source_level == "base"
        report = excinfo.value.cost_report
        assert isinstance(report, CostReport)
        assert report.degraded == 0


class TestExhaustion:
    def test_persistent_faults_raise_after_bounded_retries(
        self, small_schema, small_manager
    ):
        backend = small_manager.backend

        def always_fail(operation):
            raise transient_fault()

        backend.fault_hook = always_fail
        with pytest.raises(BackendFault) as excinfo:
            small_manager.answer(StarQuery.build(small_schema, (1, 1)))
        backend.fault_hook = None

        report = excinfo.value.cost_report
        assert isinstance(report, CostReport)
        assert report.faults == 3
        assert report.retries == 2
        # No accounting record for a failed query.
        assert len(small_manager.metrics) == 0

    def test_degrade_then_exhaust(self, small_schema, small_manager):
        backend = small_manager.backend
        backend.materialize((1, 1))
        backend.fault_hook = OneShotFault(
            permanent_fault(), permanent_fault()
        )
        with pytest.raises(BackendFault) as excinfo:
            small_manager.answer(StarQuery.build(small_schema, (1, 1)))
        backend.fault_hook = None
        report = excinfo.value.cost_report
        assert isinstance(report, CostReport)
        assert report.degraded == 1
        assert report.faults == 2

    def test_manager_recovers_after_exhaustion(
        self, small_schema, small_manager
    ):
        backend = small_manager.backend
        query = StarQuery.build(small_schema, (1, 1), {"D0": (1, 4)})
        expected, _ = backend.answer(query, "scan")

        def always_fail(operation):
            raise transient_fault()

        backend.fault_hook = always_fail
        with pytest.raises(BackendFault):
            small_manager.answer(query)
        backend.fault_hook = None

        # The engine's big lock and the cache were released cleanly:
        # the same manager answers the same query correctly afterwards.
        answer = small_manager.answer(query)
        assert canon_rows(answer.rows) == canon_rows(expected)
        assert len(small_manager.metrics) == 1
