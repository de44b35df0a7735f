"""The verifying soak harness.

:func:`verified_run` is the one place a multi-stream run is *proved*
right; :func:`run_soak` (serving sessions) and
:func:`repro.serve.front.run_front` (the admission front door) are its
two entry points.  Under ``REPRO_INVARIANTS=deep`` it checks the
properties that must hold under any fault schedule:

- no :class:`~repro.exceptions.InvariantViolation` anywhere — every
  cache mutation re-checks byte/benefit conservation, and when the
  store has a ``check_conservation`` (the sharded and tiered stores) a
  periodic checkpoint plus a final pass run it
  (:meth:`~repro.serve.ShardedChunkCache.check_conservation`);
- **global I/O conservation**: the pages accounted to answered queries
  plus the pages carried by failed queries equal the backend disk's
  read-counter delta exactly — any wasted I/O of a retried, degraded
  or failed attempt that goes uncounted breaks it;
- **correct or typed**: with an injector, every query either answers
  or fails with a typed :class:`~repro.exceptions.InjectedFault`; with
  an oracle, every answer is replayed fault-free afterwards and must
  match.

The harness composes over a manager and streams built by the caller
(the experiments layer or a test): the serving layer itself never
builds systems or workloads, keeping it importable from anywhere above
the pipeline (R001).
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Callable, Protocol, Sequence, TypeVar

import numpy as np

from repro import invariants
from repro.core.manager import ChunkCacheManager
from repro.exceptions import InjectedFault
from repro.query.model import StarQuery
from repro.serve.session import ServeReport, ServeSession
from repro.workload.stream import QueryStream

__all__ = [
    "SoakConfig",
    "SoakReport",
    "FaultSource",
    "run_soak",
    "verified_run",
]

#: What a front-door session adds to the digest: its sheds, its window
#: compositions and its flight counters.
Admission = tuple[Sequence[Any], Sequence[tuple[int, ...]], dict[str, int]]


class _Runnable(Protocol):
    def run(self) -> ServeReport: ...


_Session = TypeVar("_Session", bound=_Runnable)


class FaultSource(Protocol):
    """What the harness needs from a fault injector.

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
class SoakConfig:
    """Tuning knobs of one soak run.

    Attributes:
        checkpoint_every: Queries between conservation checkpoints (0
            disables mid-run checkpoints; the final check always runs
            when the store has one).
        max_workers: Simulated workers the streams are dealt to
            (default: one per stream).
        timeout_seconds: Hard deadline — an overrun becomes a
            :class:`~repro.exceptions.ServeError`, never a hung test.
    """

    checkpoint_every: int = 100
    max_workers: int | None = None
    timeout_seconds: float = 300.0


@dataclass(frozen=True)
class SoakReport:
    """Everything one verified run checked.

    Attributes:
        queries: Queries answered successfully.
        failures: Queries that failed with a tolerated
            :class:`~repro.exceptions.InjectedFault` (never a wrong
            answer — asserted via oracle replay when an oracle is
            given; 0 without an injector).
        checkpoints: Mid-run conservation checkpoints that fired.
        pages_read: Backend pages consumed by *answered* queries
            (including pages wasted by retried and degraded attempts —
            those merge into the answer's accounting).
        failed_pages: Backend pages consumed by queries that ultimately
            failed (carried on the raised fault's cost report).
        disk_read_delta: The disk read-counter delta over the run.
            Equals ``pages_read + failed_pages`` exactly — asserted.
        deep_checks: Deep invariant checks executed during the run.
        fault_counters: Injected-fault counts by kind (empty without an
            injector).
        wrong_answers: Answers that disagreed with the fault-free
            oracle (0 — asserted — whenever an oracle was supplied).
        digest: SHA-256 over the run's deterministic outcome (records,
            failures, fault counters, traces, final cache occupancy).
            Two runs from cold state with the same plan and workload
            produce the same digest for any worker count.
        serve: The underlying session report (per-stream metrics, the
            failures themselves, contention, throughput).
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


def run_digest(
    serve: ServeReport,
    fault_counters: dict[str, int],
    cache_bytes: int,
    cache_entries: int,
    admission: Admission | None = None,
) -> str:
    """Hash the deterministic outcome of a verified run.

    Includes only values that are a pure function of (plan seed,
    workload, configuration): accounting
    records, failures, fault counters, per-stage trace projections and
    final cache occupancy.  A front-door session (``admission``) also
    contributes its admission schedule (sheds, window compositions),
    its coalescing counters and each stage's modelled coalescing wait.
    Wall-clock fields never enter the digest.
    """
    parts: list[str] = []
    for record in serve.metrics.records:
        parts.append(repr(record))
    for failure in serve.failures:
        parts.append(
            f"failure:{failure.seq}:{failure.stream}:"
            f"{failure.kind}:{failure.pages_read}"
        )
    if admission is not None:
        for entry in admission[0]:
            parts.append(f"shed:{entry.seq}:{entry.stream}:{entry.depth}")
        for seqs in admission[1]:
            parts.append("window:" + ",".join(str(seq) for seq in seqs))
    for name, count in sorted(fault_counters.items()):
        parts.append(f"fault:{name}:{count}")
    if admission is not None:
        for name, count in sorted(admission[2].items()):
            parts.append(f"flight:{name}:{count}")
    for trace in serve.metrics.traces:
        parts.append(
            f"trace:{sorted(trace.resolved_by.items())!r}:"
            f"{trace.partitions_total}:{trace.backend_pages}"
        )
        for stage in trace.stages:
            coalesce = (
                f":{stage.coalesce_seconds!r}"
                if admission is not None
                else ""
            )
            parts.append(
                f"stage:{stage.name}:{stage.partitions}:"
                f"{stage.pages_read}:{stage.tuples_scanned}:"
                f"{stage.faults}:{stage.retries}:{stage.degraded}:"
                f"{stage.backoff_seconds!r}{coalesce}"
            )
    parts.append(f"cache:{cache_bytes}:{cache_entries}")
    return sha256("\n".join(parts).encode()).hexdigest()


def verified_run(
    manager: ChunkCacheManager,
    make_session: Callable[
        [
            tuple[type[BaseException], ...],
            Callable[[int, str, StarQuery, object], None] | None,
            Callable[[int], None] | None,
        ],
        _Session,
    ],
    injector: FaultSource | None,
    oracle: Callable[[StarQuery], Any] | None,
    admission: Callable[[_Session], Admission] | None = None,
) -> tuple[_Session, SoakReport]:
    """Run one session under deep invariants and verify what it did.

    The core of :func:`run_soak` and
    :func:`~repro.serve.front.run_front`.  ``make_session`` receives
    the ``tolerate`` / ``on_answer`` / ``on_checkpoint`` hooks the
    harness needs and returns a session whose ``run()`` yields a
    :class:`~repro.serve.session.ServeReport`; conservation
    checkpoints run when the store has a ``check_conservation``.

    The oracle replay runs *after* the injector deactivates and
    *outside* the disk-read bracket, so it neither trips faults nor
    perturbs the conservation equality.

    Raises:
        ServeError: On the session's deadline.
        InvariantViolation: On any conservation failure or any wrong
            answer.
    """
    conserve = getattr(manager.cache, "check_conservation", None)
    answers: dict[int, tuple[StarQuery, Any]] = {}

    def capture(
        seq: int, stream: str, query: StarQuery, rows: Any
    ) -> None:
        answers[seq] = (query, rows)

    on_checkpoint: Callable[[int], None] | None = None
    if callable(conserve):
        checker = conserve

        def _checkpoint(_count: int) -> None:
            checker()

        on_checkpoint = _checkpoint

    previous_mode = invariants.set_mode(invariants.DEEP)
    checks_before = invariants.counters()["deep"]
    try:
        session = make_session(
            (InjectedFault,) if injector is not None else (),
            capture if oracle is not None else None,
            on_checkpoint,
        )
        disk = manager.backend.disk
        reads_before = disk.stats.reads
        activation = (
            injector.activate(manager)
            if injector is not None
            else nullcontext()
        )
        with activation:
            serve = session.run()
            if callable(conserve):
                conserve()
            delta = disk.stats.reads - reads_before
        pages = serve.metrics.total_pages_read()
        failed = sum(failure.pages_read for failure in serve.failures)
        invariants.require(
            pages + failed == delta,
            "global I/O conservation broken: answered queries account "
            f"for {pages} pages and failed queries for {failed}, but "
            f"the disk counter advanced by {delta} (wasted I/O went "
            "uncounted, or a coalesced fetch was double-counted)",
        )
        deep_checks = invariants.counters()["deep"] - checks_before
    finally:
        invariants.set_mode(previous_mode)

    wrong = 0
    if oracle is not None:
        for seq in sorted(answers):
            query, rows = answers[seq]
            if _canonical_rows(oracle(query)) != _canonical_rows(rows):
                wrong += 1
        invariants.require(
            wrong == 0,
            f"{wrong} answers disagreed with the fault-free oracle — "
            "neither degradation nor coalescing may change results",
        )

    fault_counters = (
        dict(injector.counters()) if injector is not None else {}
    )
    cache = manager.cache
    digest = run_digest(
        serve,
        fault_counters,
        int(cache.used_bytes),
        len(cache),
        admission(session) if admission is not None else None,
    )
    return session, SoakReport(
        queries=serve.queries,
        failures=len(serve.failures),
        checkpoints=serve.checkpoints,
        pages_read=pages,
        failed_pages=failed,
        disk_read_delta=delta,
        deep_checks=deep_checks,
        fault_counters=fault_counters,
        wrong_answers=wrong,
        digest=digest,
        serve=serve,
    )


def run_soak(
    manager: ChunkCacheManager,
    streams: Sequence[QueryStream],
    config: SoakConfig = SoakConfig(),
    injector: FaultSource | None = None,
    oracle: Callable[[StarQuery], Any] | None = None,
) -> SoakReport:
    """Soak the manager with several streams and verify the run.

    The streams run under the fair schedule over any
    :class:`~repro.core.cache.ChunkStore`.  Without an ``injector`` it
    is the fault-free soak; with one it is the chaos soak: the streams
    run under the injector's hooks with
    :class:`~repro.exceptions.InjectedFault` tolerated per query.
    Either way the report's ``digest`` is a pure function of (plan
    seed, workload, config), and :func:`verified_run` asserts deep
    invariants, exact I/O conservation and — with an ``oracle`` — that
    no answer is wrong.

    Raises:
        ServeError: On the session's deadline.
        InvariantViolation: On any conservation failure, or any wrong
            answer.
    """
    _session, report = verified_run(
        manager,
        lambda tolerate, on_answer, on_checkpoint: ServeSession(
            manager,
            streams,
            max_workers=config.max_workers,
            checkpoint_every=config.checkpoint_every,
            on_checkpoint=on_checkpoint,
            timeout_seconds=config.timeout_seconds,
            tolerate=tolerate,
            on_answer=on_answer,
        ),
        injector,
        oracle,
    )
    return report
