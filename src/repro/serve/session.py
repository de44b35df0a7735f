"""Multi-stream serving sessions.

:class:`ServeSession` runs K user :class:`~repro.workload.stream.QueryStream`s
against one shared :class:`~repro.core.manager.ChunkCacheManager`, every
query executing through the manager's existing
:class:`~repro.pipeline.executor.StagedPipeline`.  Streams are dealt to
``max_workers`` workers (each stream is wholly owned by one worker),
each stream accumulates its own
:class:`~repro.core.metrics.StreamMetrics`, and the per-stream
accumulators are merged deterministically after the run.

Two schedules:

- ``"fair"`` — the deterministic schedule: the tickets run one at a time
  in the *canonical order* — the round-robin interleave of the
  name-sorted streams, exactly what
  :func:`repro.workload.stream.interleave_streams` produces — **on the
  thread that called** :meth:`ServeSession.run`.  No thread is started
  and nothing waits on anything, so the run *is* the sequential run
  over the interleaved stream at every ``max_workers``; the worker
  count only decides which worker's simulated clock each query is
  charged to.  This is the determinism contract the regression tests
  pin.
- ``"free"`` — one pool thread per worker, racing unsynchronized; real
  lock contention on the cache shards and the backend.
  Interleaving-dependent values (which query was a hit) vary run to
  run, but conservation properties (invariants, Σ pages read == backend
  read delta) must hold under any interleaving — that is what the soak
  harness hammers, and the only reason this module still owns a thread
  pool.

CPython threads cannot buy wall time on this CPU-bound simulation (two
shared-nothing stacks on two threads run at 0.9–1.05× the speed of the
same two back to back — ``docs/SERVING.md``, "Why the deterministic
schedules start no thread"), so parallelism is reported in *simulated*
time: each worker's makespan is the sum of the modelled execution times
of the queries dealt to it, the session's makespan is the slowest
worker, and throughput is queries per simulated second — the quantity a
real multi-core deployment of this architecture would observe.

The session is the layer's one serving engine.  It has two internal
seams — :meth:`ServeSession._tickets` (which worker is charged for
which query, and in what order they run) and
:meth:`ServeSession._execute` (how one query is answered) — and the
admission front door (:class:`~repro.serve.front.FrontSession`) is this
engine with both overridden, not a second one.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.manager import ChunkCacheManager
from repro.core.metrics import QueryRecord, StreamMetrics
from repro.exceptions import ServeError
from repro.pipeline.executor import PipelineResult
from repro.pipeline.trace import ExecutionTrace, record_blocked_wait
from repro.query.model import StarQuery
from repro.workload.stream import QueryStream

__all__ = [
    "QueryFailure",
    "ServeReport",
    "ServeSession",
    "FAIR",
    "FREE",
]

FAIR = "fair"
FREE = "free"
_SCHEDULES = (FAIR, FREE)

#: One unit of work: (sequence number, stream name, query).
Ticket = tuple[int, str, StarQuery]


@dataclass(frozen=True)
class QueryFailure:
    """One query that raised a tolerated exception instead of answering.

    Attributes:
        seq: The query's canonical sequence number.
        stream: Owning stream's name.
        kind: Exception class name (e.g. ``"DiskFault"``).
        message: The exception's message.
        pages_read: Physical pages the failed attempt(s) consumed (from
            the exception's attached cost report, when present) — what
            the soak harness adds back to conserve global I/O.
    """

    seq: int
    stream: str
    kind: str
    message: str
    pages_read: int

    @classmethod
    def from_error(
        cls, seq: int, stream: str, error: BaseException
    ) -> QueryFailure:
        """Record a tolerated exception as a failure.

        The pages the failed attempts read ride on the exception's
        attached cost report, so the soak harness can keep global I/O
        conservation exact.
        """
        report = getattr(error, "cost_report", None)
        return cls(
            seq=seq,
            stream=stream,
            kind=type(error).__name__,
            message=str(error),
            pages_read=int(getattr(report, "pages_read", 0) or 0),
        )


@dataclass(frozen=True)
class ServeReport:
    """Outcome of one serving session.

    Attributes:
        queries: Queries executed (all streams).
        max_workers: Workers the tickets were dealt to (threads only
            under ``"free"``).
        schedule: ``"fair"`` or ``"free"`` (``"front"`` from the
            front door, which is fair over its admitted tickets).
        wall_seconds: Real elapsed time of the run.
        simulated_worker_seconds: Per-worker sums of the modelled times
            of the queries dealt to each worker, in worker order.
        simulated_makespan: The slowest worker's simulated time — the
            session's modelled completion time.
        simulated_throughput: Queries per simulated second
            (``queries / simulated_makespan``; 0.0 for an empty run).
        metrics: All streams' records merged in canonical order.
        per_stream: Each stream's own metrics, keyed by stream name.
        contention: Cache-shard and backend lock contention counters.
        checkpoints: How many checkpoint callbacks fired.
        failures: Tolerated per-query failures in canonical order
            (empty unless the session was given exception types to
            tolerate — see :class:`ServeSession`).
    """

    queries: int
    max_workers: int
    schedule: str
    wall_seconds: float
    simulated_worker_seconds: tuple[float, ...]
    simulated_makespan: float
    simulated_throughput: float
    metrics: StreamMetrics
    per_stream: dict[str, StreamMetrics]
    contention: dict[str, object]
    checkpoints: int
    failures: tuple[QueryFailure, ...] = ()


class ServeSession:
    """Runs several user streams against one shared manager.

    Args:
        manager: The shared chunk-cache manager.  Its cache should be a
            :class:`~repro.serve.ShardedChunkCache` (any
            :class:`~repro.core.cache.ChunkStore` works, but only a
            thread-safe store is safe under ``"free"`` with
            ``max_workers > 1``).
        streams: The user streams; names must be unique.  Streams are
            processed in name order — the canonical order — regardless
            of the order given here.
        max_workers: Workers the streams are dealt to (default: one per
            stream; capped at the stream count since streams are not
            split).  Under ``"free"`` each worker is a pool thread;
            under ``"fair"`` it is a simulated clock only — the tickets
            run on the calling thread, and the worker count moves
            ``simulated_*`` and nothing else, wall time included.
        schedule: ``"fair"`` (deterministic, sequential on the calling
            thread) or ``"free"`` (one racing thread per worker).
        checkpoint_every: When positive, ``on_checkpoint`` is invoked
            with the completed-query count after every that many
            queries (globally; under ``"free"`` the other workers keep
            running meanwhile).
        on_checkpoint: Callback for periodic mid-run verification (the
            soak harness passes the cache's conservation check).
        timeout_seconds: Hard deadline for the whole run: a session
            that overran raises :class:`~repro.exceptions.ServeError`,
            never reports success.  Under ``"fair"`` it is checked as
            each ticket completes (nothing there can deadlock); under
            ``"free"`` :meth:`run` returns *at* the deadline, leaving a
            stuck worker behind rather than waiting for it.
        tolerate: Exception types that fail a *query* without failing
            the session: the query is recorded as a
            :class:`QueryFailure` and the next ticket runs.  Empty (the
            default) tolerates nothing — any exception aborts the
            session, and no later ticket of a fair session runs.  The
            chaos-soak harness passes
            :class:`~repro.exceptions.InjectedFault`.
        on_answer: Callback receiving ``(seq, stream, query, rows)`` for
            every successfully answered query (under the fair schedule
            in canonical order, on the calling thread).  The chaos
            harness uses it to capture answers for oracle replay.
    """

    def __init__(
        self,
        manager: ChunkCacheManager,
        streams: Sequence[QueryStream],
        max_workers: int | None = None,
        schedule: str = FAIR,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[int], None] | None = None,
        timeout_seconds: float = 300.0,
        tolerate: tuple[type[BaseException], ...] = (),
        on_answer: (
            Callable[[int, str, StarQuery, object], None] | None
        ) = None,
    ) -> None:
        if not streams:
            raise ServeError("a serving session needs at least one stream")
        names = [stream.name for stream in streams]
        if len(set(names)) != len(names):
            raise ServeError(f"duplicate stream names in {sorted(names)}")
        if schedule not in _SCHEDULES:
            raise ServeError(
                f"unknown schedule {schedule!r}; expected one of "
                f"{_SCHEDULES}"
            )
        if timeout_seconds <= 0:
            raise ServeError(
                f"timeout_seconds must be positive, got {timeout_seconds}"
            )
        self.manager = manager
        self.streams = tuple(
            sorted(streams, key=lambda stream: stream.name)
        )
        workers = len(self.streams) if max_workers is None else max_workers
        if workers < 1:
            raise ServeError(f"max_workers must be >= 1, got {workers}")
        self.max_workers = min(workers, len(self.streams))
        self.schedule = schedule
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        self.timeout_seconds = timeout_seconds
        self.tolerate = tuple(tolerate)
        self.on_answer = on_answer
        # Progress state (rebuilt per run()); the lock matters only
        # under FREE, where the workers are threads.
        self._lock = threading.Lock()
        self._completed = 0
        self._checkpoints_fired = 0
        self._failure: BaseException | None = None
        self._failures: list[QueryFailure] = []

    # ------------------------------------------------------------------
    # The two seams
    # ------------------------------------------------------------------
    def _tickets(self) -> list[list[Ticket]]:
        """Per-worker work lists carrying canonical sequence numbers.

        The canonical order is the round-robin interleave of the
        name-sorted streams (identical to
        :func:`repro.workload.stream.interleave_streams` over them).
        Worker ``w`` owns streams ``w, w+W, w+2W, ...`` and receives its
        queries in canonical order — a worker draining its own list in
        order therefore visits its queries exactly as the canonical
        order does.  A serialized schedule runs the lists merged by
        sequence number; the worker a ticket was dealt to is then only
        the simulated clock its modelled time is charged to.

        An override may deal any tickets it likes as long as every
        worker's list ascends in sequence number; the numbers need not
        be contiguous (a serialized run sorts whatever was dealt).
        """
        per_worker: list[list[Ticket]] = [
            [] for _ in range(self.max_workers)
        ]
        owner = {
            stream.name: index % self.max_workers
            for index, stream in enumerate(self.streams)
        }
        cursors = [0] * len(self.streams)
        remaining = sum(len(stream) for stream in self.streams)
        seq = 0
        while remaining:
            for index, stream in enumerate(self.streams):
                if cursors[index] < len(stream):
                    query = stream[cursors[index]]
                    per_worker[owner[stream.name]].append(
                        (seq, stream.name, query)
                    )
                    cursors[index] += 1
                    remaining -= 1
                    seq += 1
        return per_worker

    def _execute(self, seq: int, query: StarQuery) -> PipelineResult:
        """Answer one query.  The pipeline is read off the manager per
        call, so a caller may swap it between runs."""
        return self.manager.pipeline.execute(query)

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def _finish_query(self) -> None:
        """Count one completed query and fire the checkpoint callback
        on the boundary."""
        with self._lock:
            self._completed += 1
            fire = (
                self.checkpoint_every > 0
                and self.on_checkpoint is not None
                and self._completed % self.checkpoint_every == 0
            )
            count = self._completed
        if fire:
            assert self.on_checkpoint is not None
            self.on_checkpoint(count)
            with self._lock:
                self._checkpoints_fired += 1

    def _abort(self, error: BaseException) -> None:
        with self._lock:
            if self._failure is None:
                self._failure = error

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _overrun(self) -> ServeError:
        return ServeError(
            f"serving session exceeded its {self.timeout_seconds}s deadline"
        )

    def _drain(
        self,
        tasks: list[tuple[int, Ticket]],
        per_stream: dict[str, StreamMetrics],
        answered: list[tuple[int, QueryRecord, ExecutionTrace]],
        sim_seconds: list[float],
        deadline: float,
    ) -> None:
        """Run ``(worker index, ticket)`` pairs in the order given.

        The one execution loop: a serialized schedule drains every
        ticket through it on the calling thread, a FREE worker drains
        its own list on its pool thread.  A tolerated failure is
        recorded and the loop moves on; anything else propagates from
        the ticket that raised it — no later ticket runs, and FREE's
        other workers stop at their next one.  The deadline is checked
        as each ticket completes.
        """
        try:
            for worker, (seq, stream_name, query) in tasks:
                if self._failure is not None:
                    raise ServeError(
                        "serving session aborted by another worker"
                    ) from self._failure
                try:
                    result = self._execute(seq, query)
                except self.tolerate as error:
                    failure = QueryFailure.from_error(
                        seq, stream_name, error
                    )
                    with self._lock:
                        self._failures.append(failure)
                else:
                    per_stream[stream_name].record(
                        result.record, result.trace
                    )
                    answered.append((seq, result.record, result.trace))
                    sim_seconds[worker] += result.record.time
                    if self.on_answer is not None:
                        self.on_answer(seq, stream_name, query, result.rows)
                self._finish_query()
                if time.monotonic() > deadline:
                    raise self._overrun()
        except BaseException as error:
            self._abort(error)
            raise

    def _race(
        self,
        per_worker: list[list[tuple[int, Ticket]]],
        per_stream: dict[str, StreamMetrics],
        sim_seconds: list[float],
        deadline: float,
    ) -> list[tuple[int, QueryRecord, ExecutionTrace]]:
        """The FREE schedule: one pool thread per worker list.

        Returns at the deadline or at the first fatal error *without*
        joining the pool — a stuck worker must not hold the caller —
        the survivors having been told (``_failure``) to stop at their
        next ticket.
        """
        answered_parts: list[
            list[tuple[int, QueryRecord, ExecutionTrace]]
        ] = [[] for _ in per_worker]
        pool = ThreadPoolExecutor(
            max_workers=len(per_worker), thread_name_prefix="serve"
        )
        try:
            futures = [
                pool.submit(
                    self._drain,
                    tasks,
                    per_stream,
                    answered,
                    sim_seconds,
                    deadline,
                )
                for tasks, answered in zip(per_worker, answered_parts)
            ]
            for future in futures:
                remaining = deadline - time.monotonic()
                try:
                    future.result(timeout=max(remaining, 0.01))
                except TimeoutError as error:
                    self._abort(error)
                    raise self._overrun() from error
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
        return [item for part in answered_parts for item in part]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> ServeReport:
        """Execute every ticket to completion and merge the results."""
        per_worker = [
            [(worker, ticket) for ticket in tasks]
            for worker, tasks in enumerate(self._tickets())
        ]
        self._completed = 0
        self._checkpoints_fired = 0
        self._failure = None
        self._failures = []
        per_stream = {
            stream.name: StreamMetrics() for stream in self.streams
        }
        sim_seconds = [0.0] * self.max_workers
        deadline = time.monotonic() + self.timeout_seconds
        backend = self.manager.backend
        previous_recorder = backend.lock_wait_recorder
        backend.lock_wait_recorder = record_blocked_wait
        started = time.perf_counter()
        try:
            if self.schedule == FREE:
                answered = self._race(
                    per_worker, per_stream, sim_seconds, deadline
                )
            else:
                # Any other schedule is the sequential run over its
                # tickets in ascending sequence number, right here.
                answered = []
                self._drain(
                    sorted(
                        (task for tasks in per_worker for task in tasks),
                        key=lambda task: task[1][0],
                    ),
                    per_stream,
                    answered,
                    sim_seconds,
                    deadline,
                )
        finally:
            backend.lock_wait_recorder = previous_recorder
        wall = time.perf_counter() - started

        # Records and failures are ordered by sequence number — a pure
        # function of (streams, config), never of thread completion
        # order.
        metrics = StreamMetrics()
        for _seq, record, trace in sorted(
            answered, key=lambda item: item[0]
        ):
            metrics.record(record, trace)
        makespan = max(sim_seconds)
        queries = len(metrics)
        contention: dict[str, object] = {
            "backend": {
                "lock_wait_seconds": backend.lock_wait_seconds,
                "lock_acquisitions": backend.lock_acquisitions,
            }
        }
        # contention() is a declared ChunkStore member: unsharded stores
        # return {} ("nothing to report"), which keeps the report's
        # shape identical to the pre-protocol getattr probe.
        cache_contention = self.manager.cache.contention()
        if cache_contention:
            contention["cache"] = cache_contention
        return ServeReport(
            queries=queries,
            max_workers=self.max_workers,
            schedule=self.schedule,
            wall_seconds=wall,
            simulated_worker_seconds=tuple(sim_seconds),
            simulated_makespan=makespan,
            simulated_throughput=(
                queries / makespan if makespan > 0.0 else 0.0
            ),
            metrics=metrics,
            per_stream=per_stream,
            contention=contention,
            checkpoints=self._checkpoints_fired,
            failures=tuple(sorted(self._failures, key=lambda f: f.seq)),
        )
