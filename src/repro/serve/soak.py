"""The concurrency soak harness.

:func:`run_soak` hammers one shared
:class:`~repro.core.manager.ChunkCacheManager` (whose store must be a
:class:`~repro.serve.ShardedChunkCache`) with racing multi-user streams
under the **free** schedule and ``REPRO_INVARIANTS=deep``, and verifies
the properties that must hold under *any* thread interleaving:

- no :class:`~repro.exceptions.InvariantViolation` anywhere — every
  cache mutation re-checks byte/benefit conservation shard-locally, and
  a periodic checkpoint (every ``checkpoint_every`` completed queries)
  plus a final pass run the cross-shard conservation check
  (:meth:`~repro.serve.ShardedChunkCache.check_conservation`);
- **global I/O conservation**: the sum of ``pages_read`` over every
  worker's accounting records equals the backend disk's read-counter
  delta exactly.  The backend's big lock makes every
  :func:`~repro.backend.plans.measure_cost` window disjoint, so this
  equality is exact, not approximate — any cross-thread leakage of
  I/O accounting breaks it.

The harness composes over a manager and streams built by the caller
(the experiments layer or a test): the serving layer itself never
builds systems or workloads, keeping it importable from anywhere above
the pipeline (R001).
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from repro import invariants
from repro.core.manager import ChunkCacheManager
from repro.exceptions import InjectedFault, ServeError
from repro.query.model import StarQuery
from repro.serve.session import (
    FAIR,
    FREE,
    QueryFailure,
    ServeReport,
    ServeSession,
)
from repro.workload.stream import QueryStream

__all__ = [
    "SoakConfig",
    "SoakReport",
    "run_soak",
    "ChaosConfig",
    "ChaosReport",
    "FaultSource",
    "run_chaos_soak",
]


@dataclass(frozen=True)
class SoakConfig:
    """Tuning knobs of one soak run.

    Attributes:
        checkpoint_every: Queries between cross-shard conservation
            checkpoints (0 disables mid-run checkpoints; the final check
            always runs).
        max_workers: Worker threads (default: one per stream).
        timeout_seconds: Hard deadline — a deadlocked worker becomes a
            :class:`~repro.exceptions.ServeError`, never a hung test.
    """

    checkpoint_every: int = 100
    max_workers: int | None = None
    timeout_seconds: float = 300.0


@dataclass(frozen=True)
class SoakReport:
    """Everything a soak run verified.

    Attributes:
        queries: Queries executed across all streams.
        checkpoints: Mid-run conservation checkpoints that fired.
        pages_read: Sum of per-record backend pages over all workers.
        disk_read_delta: The backend disk's read-counter delta over the
            run (equals ``pages_read`` — asserted).
        deep_checks: Deep invariant checks executed during the run.
        serve: The underlying session report (contention, throughput).
    """

    queries: int
    checkpoints: int
    pages_read: int
    disk_read_delta: int
    deep_checks: int
    serve: ServeReport


def run_soak(
    manager: ChunkCacheManager,
    streams: Sequence[QueryStream],
    config: SoakConfig = SoakConfig(),
) -> SoakReport:
    """Race the streams against the manager and verify conservation.

    Forces deep invariant checking for the duration of the run (the
    previous mode is restored afterwards) and the free schedule — the
    point is genuine races, not reproducible interleavings.

    Raises:
        ServeError: If the manager's store has no cross-shard
            conservation check (i.e. is not sharded), or on deadline.
        InvariantViolation: On any conservation failure, shard-local,
            cross-shard, or global.
    """
    conserve = getattr(manager.cache, "check_conservation", None)
    if not callable(conserve):
        raise ServeError(
            "soak testing requires a sharded store with a "
            "check_conservation() method; got "
            f"{type(manager.cache).__name__}"
        )
    previous_mode = invariants.set_mode(invariants.DEEP)
    checks_before = invariants.counters()["deep"]
    try:
        session = ServeSession(
            manager,
            streams,
            max_workers=config.max_workers,
            schedule=FREE,
            checkpoint_every=config.checkpoint_every,
            on_checkpoint=lambda _count: conserve(),
            timeout_seconds=config.timeout_seconds,
        )
        disk = manager.backend.disk
        reads_before = disk.stats.reads
        report = session.run()
        conserve()
        delta = disk.stats.reads - reads_before
        pages = report.metrics.total_pages_read()
        invariants.require(
            pages == delta,
            f"global I/O conservation broken: records sum to {pages} "
            f"pages read but the disk counter advanced by {delta} "
            "(a cost window leaked across threads)",
        )
        deep_checks = invariants.counters()["deep"] - checks_before
    finally:
        invariants.set_mode(previous_mode)
    return SoakReport(
        queries=report.queries,
        checkpoints=report.checkpoints,
        pages_read=pages,
        disk_read_delta=delta,
        deep_checks=deep_checks,
        serve=report,
    )


# ----------------------------------------------------------------------
# Chaos soak: the fault-injection variant
# ----------------------------------------------------------------------
class FaultSource(Protocol):
    """What the chaos harness needs from a fault injector.

    Structural so the serving layer never imports :mod:`repro.faults`
    (reprolint rule R006): the composition root — a test or the
    experiments layer — constructs the
    :class:`~repro.faults.FaultInjector` and hands it in duck-typed.
    """

    def activate(
        self, manager: Any
    ) -> AbstractContextManager[Any]: ...

    def counters(self) -> dict[str, int]: ...


@dataclass(frozen=True)
class ChaosConfig:
    """Tuning knobs of one chaos-soak run.

    Attributes:
        checkpoint_every: Queries between cross-shard conservation
            checkpoints (0 disables mid-run checkpoints; the final check
            always runs).
        max_workers: Worker threads (default: one per stream).
        timeout_seconds: Hard deadline for the serving session.
        schedule: ``"fair"`` (the default) serializes execution into the
            canonical order, which is what makes the run digest
            reproducible and worker-count-independent; ``"free"`` races
            for real and still checks every conservation property, but
            its digest is interleaving-dependent.
    """

    checkpoint_every: int = 100
    max_workers: int | None = None
    timeout_seconds: float = 300.0
    schedule: str = FAIR


@dataclass(frozen=True)
class ChaosReport:
    """Everything one chaos-soak run verified.

    Attributes:
        queries: Queries answered successfully.
        failures: Queries that failed with a tolerated
            :class:`~repro.exceptions.InjectedFault` (never a wrong
            answer — asserted via oracle replay when an oracle is
            given).
        checkpoints: Mid-run conservation checkpoints that fired.
        pages_read: Backend pages consumed by *answered* queries
            (including pages wasted by retried and degraded attempts —
            those merge into the answer's accounting).
        failed_pages: Backend pages consumed by queries that ultimately
            failed (carried on the raised fault's cost report).
        disk_read_delta: The disk read-counter delta over the run.
            Equals ``pages_read + failed_pages`` exactly — asserted.
        deep_checks: Deep invariant checks executed during the run.
        fault_counters: Injected-fault counts by kind, from the
            injector.
        wrong_answers: Answers that disagreed with the fault-free
            oracle (0 — asserted — whenever an oracle was supplied).
        digest: SHA-256 over the run's deterministic outcome (records,
            failures, fault counters, traces, final cache occupancy).
            Under the fair schedule two runs from cold state with the
            same plan and workload produce the same digest for any
            worker count.
        serve: The underlying session report.
    """

    queries: int
    failures: int
    checkpoints: int
    pages_read: int
    failed_pages: int
    disk_read_delta: int
    deep_checks: int
    fault_counters: dict[str, int]
    wrong_answers: int
    digest: str
    serve: ServeReport


def _canonical_rows(rows: Any) -> tuple[tuple[Any, ...], ...]:
    """Order- and representation-insensitive form of a result array.

    Group-by result rows carry no meaningful order and the degraded
    path recomputes aggregates from base chunks, which may reassociate
    float additions — so values are compared rounded, not bit-exact.
    """
    out: list[tuple[Any, ...]] = []
    for row in rows:
        values: list[Any] = []
        for value in tuple(row):
            if isinstance(value, (float, np.floating)):
                values.append(round(float(value), 6))
            elif isinstance(value, (int, np.integer)):
                values.append(int(value))
            else:
                values.append(value)
        out.append(tuple(values))
    return tuple(sorted(out, key=repr))


def _chaos_digest(
    serve: ServeReport,
    fault_counters: dict[str, int],
    cache_bytes: int,
    cache_entries: int,
) -> str:
    """Hash the deterministic outcome of a chaos run.

    Includes only values that are a pure function of (plan seed,
    workload, configuration) under the fair schedule: accounting
    records, failures, fault counters, per-stage trace projections and
    final cache occupancy.  Wall-clock fields never enter the digest.
    """
    parts: list[str] = []
    for record in serve.metrics.records:
        parts.append(repr(record))
    for failure in serve.failures:
        parts.append(
            f"failure:{failure.seq}:{failure.stream}:"
            f"{failure.kind}:{failure.pages_read}"
        )
    for name, count in sorted(fault_counters.items()):
        parts.append(f"fault:{name}:{count}")
    for trace in serve.metrics.traces:
        parts.append(
            f"trace:{sorted(trace.resolved_by.items())!r}:"
            f"{trace.partitions_total}:{trace.backend_pages}"
        )
        for stage in trace.stages:
            parts.append(
                f"stage:{stage.name}:{stage.partitions}:"
                f"{stage.pages_read}:{stage.tuples_scanned}:"
                f"{stage.faults}:{stage.retries}:{stage.degraded}:"
                f"{stage.backoff_seconds!r}"
            )
    parts.append(f"cache:{cache_bytes}:{cache_entries}")
    return sha256("\n".join(parts).encode()).hexdigest()


def _failed_pages(failures: Sequence[QueryFailure]) -> int:
    return sum(failure.pages_read for failure in failures)


def run_chaos_soak(
    manager: ChunkCacheManager,
    streams: Sequence[QueryStream],
    injector: FaultSource,
    config: ChaosConfig = ChaosConfig(),
    oracle: Callable[[StarQuery], Any] | None = None,
) -> ChaosReport:
    """Soak the manager under an active fault plan and verify recovery.

    Runs the streams with the injector's hooks installed and
    :class:`~repro.exceptions.InjectedFault` tolerated per query, under
    ``REPRO_INVARIANTS=deep``, and asserts the degradation contract:

    - **correct or typed** — every query either answers or fails with a
      typed :class:`~repro.exceptions.InjectedFault`; when ``oracle`` is
      given, every answer is replayed fault-free after the run and must
      match (canonicalized rows), so a wrong answer is impossible, not
      just unobserved;
    - **exact conservation** — byte/benefit accounting checkpoints plus
      ``pages_read + failed_pages == disk read delta`` exactly: wasted
      I/O from retries, degraded recomputes and failed attempts is all
      accounted, never leaked;
    - **reproducibility** — under the fair schedule the report's
      ``digest`` is a pure function of (plan seed, workload, config).

    The oracle replay runs *after* the injector deactivates and
    *outside* the disk-read bracket, so it neither trips faults nor
    perturbs the conservation equality.

    Raises:
        ServeError: If the store has no cross-shard conservation check,
            or on deadline.
        InvariantViolation: On any conservation failure or any wrong
            answer.
    """
    conserve = getattr(manager.cache, "check_conservation", None)
    if not callable(conserve):
        raise ServeError(
            "chaos soak testing requires a sharded store with a "
            "check_conservation() method; got "
            f"{type(manager.cache).__name__}"
        )
    answers: dict[int, tuple[StarQuery, Any]] = {}

    def capture(
        seq: int, stream: str, query: StarQuery, rows: Any
    ) -> None:
        if oracle is not None:
            answers[seq] = (query, rows)

    previous_mode = invariants.set_mode(invariants.DEEP)
    checks_before = invariants.counters()["deep"]
    try:
        session = ServeSession(
            manager,
            streams,
            max_workers=config.max_workers,
            schedule=config.schedule,
            checkpoint_every=config.checkpoint_every,
            on_checkpoint=lambda _count: conserve(),
            timeout_seconds=config.timeout_seconds,
            tolerate=(InjectedFault,),
            on_answer=capture,
        )
        disk = manager.backend.disk
        reads_before = disk.stats.reads
        with injector.activate(manager):
            report = session.run()
            conserve()
            delta = disk.stats.reads - reads_before
        pages = report.metrics.total_pages_read()
        failed = _failed_pages(report.failures)
        invariants.require(
            pages + failed == delta,
            "chaos I/O conservation broken: answered queries account "
            f"for {pages} pages and failed queries for {failed}, but "
            f"the disk counter advanced by {delta} (wasted I/O leaked)",
        )
        deep_checks = invariants.counters()["deep"] - checks_before
    finally:
        invariants.set_mode(previous_mode)

    # Oracle replay: fault-free recomputation of every answered query,
    # after the hooks are gone and outside the disk bracket above.
    wrong = 0
    if oracle is not None:
        for seq in sorted(answers):
            query, rows = answers[seq]
            if _canonical_rows(oracle(query)) != _canonical_rows(rows):
                wrong += 1
        invariants.require(
            wrong == 0,
            f"{wrong} answers under fault injection disagreed with the "
            "fault-free oracle — degradation must never change results",
        )

    cache = manager.cache
    digest = _chaos_digest(
        report,
        injector.counters(),
        int(cache.used_bytes),
        len(cache),
    )
    return ChaosReport(
        queries=report.queries,
        failures=len(report.failures),
        checkpoints=report.checkpoints,
        pages_read=pages,
        failed_pages=failed,
        disk_read_delta=delta,
        deep_checks=deep_checks,
        fault_counters=injector.counters(),
        wrong_answers=wrong,
        digest=digest,
        serve=report,
    )
