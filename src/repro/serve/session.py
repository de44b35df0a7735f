"""Multi-stream serving sessions.

:class:`ServeSession` runs K user :class:`~repro.workload.stream.QueryStream`s
against one shared :class:`~repro.core.manager.ChunkCacheManager`, every
query executing through the manager's existing
:class:`~repro.pipeline.executor.StagedPipeline`.  Streams are dealt to
``max_workers`` simulated workers (each stream is wholly owned by one
worker), and every answer is recorded once, in ticket order, into one
:class:`~repro.core.metrics.StreamMetrics` beside its trace.

There is one schedule, ``"fair"``: the tickets run one at a time in the
*canonical order* — the round-robin interleave of the name-sorted
streams, exactly what :func:`repro.workload.stream.interleave_streams`
produces — **on the thread that called** :meth:`ServeSession.run`.  No
thread is started and nothing waits on anything, so the run *is* the
sequential run over the interleaved stream at every ``max_workers``;
the worker count only decides which worker's simulated clock each query
is charged to.  This is the determinism contract the regression tests
pin.

A stack is not thread-safe: use one stack per thread or process.
CPython threads cannot buy wall time on this CPU-bound simulation (two
shared-nothing stacks on two threads run at 0.9–1.05× the speed of the
same two back to back — ``docs/DECISIONS.md``), so parallelism is
reported in *simulated* time: each worker's makespan is the sum of the
modelled execution times of the queries dealt to it, the session's
makespan is the slowest worker, and throughput is queries per simulated
second — the quantity a real multi-core deployment of this architecture
would observe.

The session is the layer's one serving engine.  It has two internal
seams — :meth:`ServeSession._tickets` (which worker is charged for
which query, and in what order they run) and
:meth:`ServeSession._execute` (how one query is answered) — and the
admission front door (:class:`~repro.serve.front.FrontSession`) is this
engine with both overridden, not a second one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.manager import ChunkCacheManager
from repro.core.metrics import StreamMetrics
from repro.exceptions import ServeError
from repro.pipeline.executor import PipelineResult
from repro.pipeline.trace import ExecutionTrace
from repro.query.model import StarQuery
from repro.workload.stream import QueryStream

__all__ = [
    "QueryFailure",
    "ServeReport",
    "ServeSession",
    "FAIR",
]

FAIR = "fair"

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
        max_workers: Simulated workers the tickets were dealt to.
        schedule: ``"fair"`` (``"front"`` from the front door, which is
            fair over its admitted tickets).
        wall_seconds: Real elapsed time of the run.
        simulated_worker_seconds: Per-worker sums of the modelled times
            of the queries dealt to each worker, in worker order.
        simulated_makespan: The slowest worker's simulated time — the
            session's modelled completion time.
        simulated_throughput: Queries per simulated second
            (``queries / simulated_makespan``; 0.0 for an empty run).
        metrics: All streams' records in canonical order.
        traces: The answered queries' execution traces, in the same
            order as ``metrics``' records.
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
    traces: tuple[ExecutionTrace, ...]
    contention: dict[str, object]
    checkpoints: int
    failures: tuple[QueryFailure, ...] = ()


class ServeSession:
    """Runs several user streams against one shared manager.

    Args:
        manager: The shared chunk-cache manager.  Any
            :class:`~repro.core.cache.ChunkStore` works as its cache.
        streams: The user streams; names must be unique.  Streams are
            processed in name order — the canonical order — regardless
            of the order given here.
        max_workers: Simulated workers the streams are dealt to
            (default: one per stream; capped at the stream count since
            streams are not split).  The tickets run on the calling
            thread, and the worker count moves ``simulated_*`` and
            nothing else, wall time included.
        schedule: ``"fair"``, the only schedule.  Anything else raises
            :class:`~repro.exceptions.ServeError`: a stack is not
            thread-safe, so no schedule races threads over one.
        checkpoint_every: When positive, ``on_checkpoint`` is invoked
            with the completed-query count after every that many
            queries.
        on_checkpoint: Callback for periodic mid-run verification (the
            soak harness passes the cache's conservation check).
        timeout_seconds: Hard deadline for the whole run, checked as
            each ticket completes: a session that overran raises
            :class:`~repro.exceptions.ServeError`, never reports
            success.
        tolerate: Exception types that fail a *query* without failing
            the session: the query is recorded as a
            :class:`QueryFailure` and the next ticket runs.  Empty (the
            default) tolerates nothing — any exception aborts the
            session, and no later ticket runs.  The chaos-soak harness
            passes :class:`~repro.exceptions.InjectedFault`.
        on_answer: Callback receiving ``(seq, stream, query, rows)`` for
            every successfully answered query, in canonical order.  The
            chaos harness uses it to capture answers for oracle replay.
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
        if schedule != FAIR:
            raise ServeError(
                f"unknown schedule {schedule!r}; the only schedule is "
                f"{FAIR!r}: a stack is not thread-safe, use one stack per "
                "thread or process"
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

    # ------------------------------------------------------------------
    # The two seams
    # ------------------------------------------------------------------
    def _tickets(self) -> list[list[Ticket]]:
        """Per-worker work lists carrying canonical sequence numbers.

        The canonical order is the round-robin interleave of the
        name-sorted streams (identical to
        :func:`repro.workload.stream.interleave_streams` over them).
        Worker ``w`` owns streams ``w, w+W, w+2W, ...`` and receives its
        queries in canonical order.  :meth:`run` executes the lists
        merged by sequence number; the worker a ticket was dealt to is
        only the simulated clock its modelled time is charged to.

        An override may deal any tickets it likes; the sequence numbers
        need not be contiguous (the run sorts whatever was dealt).
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
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> ServeReport:
        """Execute every ticket in sequence-number order, on the calling
        thread, and record the results.

        A tolerated failure is recorded and the next ticket runs;
        anything else propagates from the ticket that raised it, and no
        later ticket runs.
        """
        tickets = sorted(
            (
                (worker, ticket)
                for worker, tasks in enumerate(self._tickets())
                for ticket in tasks
            ),
            key=lambda task: task[1][0],
        )
        metrics = StreamMetrics()
        traces: list[ExecutionTrace] = []
        failures: list[QueryFailure] = []
        sim_seconds = [0.0] * self.max_workers
        completed = checkpoints = 0
        deadline = time.monotonic() + self.timeout_seconds
        started = time.perf_counter()
        for worker, (seq, stream_name, query) in tickets:
            try:
                result = self._execute(seq, query)
            except self.tolerate as error:
                failures.append(
                    QueryFailure.from_error(seq, stream_name, error)
                )
            else:
                metrics.record(result.record)
                traces.append(result.trace)
                sim_seconds[worker] += result.record.time
                if self.on_answer is not None:
                    self.on_answer(seq, stream_name, query, result.rows)
            completed += 1
            if (
                self.checkpoint_every > 0
                and self.on_checkpoint is not None
                and completed % self.checkpoint_every == 0
            ):
                self.on_checkpoint(completed)
                checkpoints += 1
            if time.monotonic() > deadline:
                raise ServeError(
                    "serving session exceeded its "
                    f"{self.timeout_seconds}s deadline"
                )
        wall = time.perf_counter() - started

        # Records, traces and failures are in sequence-number order, the
        # order the tickets ran in: a pure function of (streams, config).
        backend = self.manager.backend
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
            traces=tuple(traces),
            contention=contention,
            checkpoints=checkpoints,
            failures=tuple(failures),
        )
