"""The admission front door with single-flight coalescing.

K per-user query streams are offered to a bounded admission queue that
applies deterministic backpressure (one recorded :class:`ShedQuery` per
rejection — never silent) and is drained in fixed-size **admission
windows**.  Admission never depends on execution, so the whole schedule
is computed up front by the pure function :func:`admission_schedule`;
:class:`FrontSession` then *is* a
:class:`~repro.serve.session.ServeSession` running the admitted
tickets in sequence order on the calling thread — the front door has no
failure handling of its own.

Determinism is the load-bearing property, as for the fair schedule:

- **Arrivals** follow a tick protocol: each tick, every stream with
  queries left (in name order) offers ``arrivals_per_tick`` of them,
  each stamped with a global admission sequence number; at one arrival
  per tick, admission order is precisely the round-robin interleave of
  the name-sorted streams — the canonical order.
- **Backpressure** is part of the protocol, not a race: which queries
  are shed is a pure function of (workload, config).
- **Execution** is the engine's sequential run in admission order, so
  the cache sees one deterministic query sequence at any worker count.

Within a window, planned-duplicate missing chunks are **coalesced**
through a :class:`~repro.pipeline.flight.FlightTable`: the first
requester fetches, waiters share the published rows at their fair-share
modelled cost, and a failed fetch propagates the same typed fault to
every waiter (see :mod:`repro.pipeline.flight`).

:func:`run_front` puts the front door through the verifying harness
(:func:`repro.serve.soak.verified_run`); its :class:`FrontReport`
digest is a pure function of (workload, seed, config) at any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.manager import ChunkCacheManager
from repro.exceptions import ServeError
from repro.pipeline.executor import (
    PipelineResult,
    QueryAnalyzer,
    StagedPipeline,
)
from repro.pipeline.flight import FlightResolver, FlightTable
from repro.pipeline.resolvers import (
    BackendChunkResolver,
    CacheHitResolver,
    PartitionResolver,
)
from repro.pipeline.stages import AnalyzedQuery
from repro.query.model import StarQuery
from repro.serve.session import FAIR, ServeSession, Ticket
from repro.serve.soak import FaultSource, SoakReport, verified_run
from repro.workload.stream import QueryStream

__all__ = [
    "FrontConfig",
    "FrontReport",
    "FrontSession",
    "ShedQuery",
    "admission_schedule",
    "run_front",
]

#: Schedule tag the front door stamps on its session reports.
FRONT = "front"


@dataclass(frozen=True)
class FrontConfig:
    """Tuning knobs of one front-door session.

    Attributes:
        window: Queries admitted (and executed) per admission window.
        queue_limit: Backlog bound; a query offered while the backlog
            holds this many is shed (recorded as a :class:`ShedQuery`).
        arrivals_per_tick: Queries each unexhausted stream offers per
            admission tick.  At the default of 1 the admission order is
            the canonical round-robin interleave; raising it models
            burstier sessions (and, with ``window`` < offered load,
            deterministic shedding).
        max_workers: Simulated workers the admitted tickets are dealt
            to (default: one per stream).  No thread is started: it
            moves the report's ``simulated_*`` attribution and nothing
            else — not results, not wall time.
        coalesce: Enable single-flight chunk coalescing.  ``False``
            keeps the same admission and masking behavior but forces
            every planned-duplicate chunk to refetch — the benchmark's
            baseline.
        checkpoint_every: Completed queries between conservation
            checkpoints (0 disables; used by :func:`run_front` when the
            store supports cross-shard checks).
        timeout_seconds: Hard deadline for the whole session.
    """

    window: int = 8
    queue_limit: int = 64
    arrivals_per_tick: int = 1
    max_workers: int | None = None
    coalesce: bool = True
    checkpoint_every: int = 0
    timeout_seconds: float = 300.0


@dataclass(frozen=True)
class ShedQuery:
    """One query rejected by admission backpressure.

    Attributes:
        seq: The admission sequence number the query was offered as.
        stream: The offering stream's name.
        depth: Backlog depth at rejection (== the queue limit).
    """

    seq: int
    stream: str
    depth: int


@dataclass(frozen=True)
class FrontReport(SoakReport):
    """Everything one verified front-door run produced.

    The verified totals of a :class:`~repro.serve.soak.SoakReport`
    plus the front door's own admission outcome, which the ``digest``
    here additionally covers (sheds, window compositions, flights).

    Attributes:
        shed: Queries rejected by backpressure, in admission order.
        windows: The admitted sequence numbers of every window, in
            admission order — the run's full admission schedule.
        flights: Chunk fetches published to at least one waiter.
        coalesced_chunks: Chunk requests served from a flight instead
            of the backend (those waiters report 0 pages).
        shared_pages: Estimated physical pages those claims avoided.
    """

    shed: tuple[ShedQuery, ...]
    windows: tuple[tuple[int, ...], ...]
    flights: int
    coalesced_chunks: int
    shared_pages: int


def admission_schedule(
    streams: Sequence[QueryStream], config: FrontConfig
) -> tuple[list[list[Ticket]], list[ShedQuery]]:
    """The front door's whole admission outcome: ``(windows, shed)``.

    Runs the tick protocol to exhaustion.  Each tick, every stream
    that still has queries offers ``arrivals_per_tick`` of them in name
    order, each stamped with the next global sequence number; an offer
    that finds ``queue_limit`` queries already waiting is shed, any
    other joins the backlog; then the first ``window`` backlog entries
    are admitted as one window.  Exhausted streams leave the remaining
    backlog to drain a window per tick.  Nothing here reads a clock, a
    cache or a thread: a pure function of (streams, config).
    """
    ordered = sorted(streams, key=lambda stream: stream.name)
    cursors = [0] * len(ordered)
    pending = sum(len(stream) for stream in ordered)
    backlog: list[Ticket] = []
    windows: list[list[Ticket]] = []
    shed: list[ShedQuery] = []
    seq = 0
    while pending or backlog:
        for index, stream in enumerate(ordered):
            upto = min(
                cursors[index] + config.arrivals_per_tick, len(stream)
            )
            for cursor in range(cursors[index], upto):
                if len(backlog) >= config.queue_limit:
                    shed.append(ShedQuery(seq, stream.name, len(backlog)))
                else:
                    backlog.append((seq, stream.name, stream[cursor]))
                seq += 1
            pending -= upto - cursors[index]
            cursors[index] = upto
        # Anything offered either joined the backlog or found it full,
        # so the backlog is never empty here.
        windows.append(backlog[: config.window])
        del backlog[: config.window]
    return windows, shed


class _WindowAnalyzer:
    """Analysis stage of the front door's pipeline: each admitted query
    is analysed once.

    Planning a window analyses its queries; ``execute`` then asks for
    the same analysis again.  This stage keeps the analyses of the
    window being executed, by query object (each analysis keeps its
    query alive, so an ``id`` cannot be reused while it is held), and
    hands them back; the next window forgets them.
    """

    def __init__(self, inner: QueryAnalyzer) -> None:
        self.inner = inner
        self._window: dict[int, AnalyzedQuery] = {}

    def open_window(self) -> None:
        """Forget the previous window's analyses."""
        self._window = {}

    def analyze(self, query: StarQuery) -> AnalyzedQuery:
        analyzed = self._window.get(id(query))
        if analyzed is None:
            analyzed = self._window[id(query)] = self.inner.analyze(query)
        return analyzed


class FrontSession(ServeSession):
    """Admits K user streams through the front door.

    A :class:`~repro.serve.session.ServeSession` whose tickets are the
    :func:`admission_schedule`'s windows and whose queries execute
    inside the flight table's bracket; the execution loop, deadline,
    failure handling, checkpoints and report merge are the engine's.

    Its pipeline is the manager's with the flight table woven in (see
    :meth:`_build_pipeline`); the manager's own pipeline is untouched,
    so answering queries outside the front door remains bit-identical.

    Args:
        manager: The shared chunk-cache manager.
        streams: The user streams; names must be unique.  Processed in
            name order regardless of the order given.
        config: Admission and coalescing knobs.
        tolerate: Exception types that fail a query without failing the
            session (recorded as :class:`~repro.serve.session.QueryFailure`).
        on_answer: Callback ``(seq, stream, query, rows)`` for every
            answered query, fired in admission order.
        on_checkpoint: Callback for periodic mid-run verification.

    Attributes:
        pipeline: The flight-aware pipeline; read at run time, so it
            may be wrapped between construction and :meth:`run`.
        flight: The session's flight table.
    """

    def __init__(
        self,
        manager: ChunkCacheManager,
        streams: Sequence[QueryStream],
        config: FrontConfig = FrontConfig(),
        tolerate: tuple[type[BaseException], ...] = (),
        on_answer: (
            Callable[[int, str, StarQuery, object], None] | None
        ) = None,
        on_checkpoint: Callable[[int], None] | None = None,
    ) -> None:
        if config.window < 1:
            raise ServeError(f"window must be >= 1, got {config.window}")
        if config.queue_limit < 1:
            raise ServeError(
                f"queue_limit must be >= 1, got {config.queue_limit}"
            )
        if config.arrivals_per_tick < 1:
            raise ServeError(
                "arrivals_per_tick must be >= 1, got "
                f"{config.arrivals_per_tick}"
            )
        super().__init__(
            manager,
            streams,
            max_workers=config.max_workers,
            schedule=FAIR,
            checkpoint_every=config.checkpoint_every,
            on_checkpoint=on_checkpoint,
            timeout_seconds=config.timeout_seconds,
            tolerate=tolerate,
            on_answer=on_answer,
        )
        # The report's tag; the engine runs fair.
        self.schedule = FRONT
        self.config = config
        self.flight = FlightTable(
            manager.cost_model, manager.estimator, coalesce=config.coalesce
        )
        self._analyses = _WindowAnalyzer(manager.pipeline.analyzer)
        self.pipeline = self._build_pipeline()
        # The last run's admission schedule: the windows in admission
        # order, keyed by their head's sequence number, and the sheds.
        self._windows: dict[int, list[Ticket]] = {}
        self._shed: list[ShedQuery] = []

    def _build_pipeline(self) -> StagedPipeline:
        """The manager's pipeline with the flight table woven in: a
        :class:`~repro.pipeline.flight.FlightResolver` ahead of the
        cache, flight-aware cache and backend links, the middle links
        unchanged."""
        base = self.manager.pipeline
        chain = list(base.resolvers)
        head = chain[0]
        tail = chain[-1]
        if not isinstance(head, CacheHitResolver) or not isinstance(
            tail, BackendChunkResolver
        ):
            raise ServeError(
                "the front door requires a chunk resolver chain "
                "(cache-hit head, backend terminal); got "
                f"{[type(link).__name__ for link in chain]}"
            )
        resolvers: list[PartitionResolver] = [
            FlightResolver(self.flight),
            CacheHitResolver(head.cache, flight=self.flight),
            *chain[1:-1],
            BackendChunkResolver(
                tail.schema,
                tail.backend,
                tail.admitter,
                retry=tail.retry,
                flight=self.flight,
            ),
        ]
        return StagedPipeline(
            analyzer=self._analyses,
            resolvers=resolvers,
            assembler=base.assembler,
            accountant=base.accountant,
            cost_model=base.cost_model,
        )

    # ------------------------------------------------------------------
    # The engine's two seams
    # ------------------------------------------------------------------
    def _tickets(self) -> list[list[Ticket]]:
        """Deal the admission schedule to the simulated workers:
        position ``p`` of a window goes to worker
        ``p % min(max_workers, len(window))`` (a window shorter than
        ``max_workers`` leaves the high workers idle, which the
        simulated per-worker seconds report)."""
        # run() starts here: a reused session's table starts clean.
        self.flight.reset()
        windows, self._shed = admission_schedule(self.streams, self.config)
        self._windows = {window[0][0]: window for window in windows}
        per_worker: list[list[Ticket]] = [
            [] for _ in range(self.max_workers)
        ]
        for window in windows:
            stride = min(self.max_workers, len(window))
            for position, ticket in enumerate(window):
                per_worker[position % stride].append(ticket)
        return per_worker

    def _execute(self, seq: int, query: StarQuery) -> PipelineResult:
        """Answer one admitted query inside its flight bracket.  The
        query heading a window first plans it: analysis is pure metadata
        (no disk I/O), and tickets run in sequence order, so the
        previous window is done.  ``execute`` gets the window's analyses
        back from the analysis stage instead of repeating them."""
        window = self._windows.get(seq)
        if window is not None:
            self._analyses.open_window()
            analyzer = self.pipeline.analyzer
            self.flight.plan_window(
                self.manager.cache,
                [(s, analyzer.analyze(q)) for s, _stream, q in window],
            )
        self.flight.begin(seq)
        try:
            return self.pipeline.execute(query)
        finally:
            self.flight.end()

    @property
    def shed_queries(self) -> tuple[ShedQuery, ...]:
        """Queries shed by the last run, in admission order."""
        return tuple(self._shed)

    @property
    def window_log(self) -> tuple[tuple[int, ...], ...]:
        """The last run's admitted sequence numbers, window by window."""
        return tuple(
            tuple(seq for seq, _stream, _query in window)
            for window in self._windows.values()
        )


def run_front(
    manager: ChunkCacheManager,
    streams: Sequence[QueryStream],
    config: FrontConfig = FrontConfig(),
    injector: FaultSource | None = None,
    oracle: Callable[[StarQuery], Any] | None = None,
) -> FrontReport:
    """Run the front door through the verifying harness.

    :func:`~repro.serve.soak.verified_run` asserts what it asserts for
    :func:`~repro.serve.soak.run_soak` — exact I/O conservation
    (coalesced waiters contribute zero pages, the leader's fetch
    carries them all), correct-or-typed answers (every coalesced waiter
    of a failed fetch receives the same typed failure) and a digest
    that is a pure function of (workload, fault seed, config) at any
    worker count.  Like the soak it accepts any store: conservation
    checkpoints simply do not run without a ``check_conservation``.

    Args:
        manager: The shared chunk-cache manager.
        streams: The user streams.
        config: Admission, coalescing and checkpoint knobs.
        injector: Optional fault source (activated for the duration;
            :class:`~repro.exceptions.InjectedFault` becomes a
            tolerated per-query failure).
        oracle: Optional fault-free replay oracle, checked after the
            injector deactivates and outside the disk bracket.
    """
    session, verified = verified_run(
        manager,
        lambda tolerate, on_answer, on_checkpoint: FrontSession(
            manager, streams, config, tolerate, on_answer, on_checkpoint
        ),
        injector,
        oracle,
        admission=lambda front: (
            front.shed_queries,
            front.window_log,
            front.flight.stats(),
        ),
    )
    flight_stats = session.flight.stats()
    return FrontReport(
        **vars(verified),
        shed=session.shed_queries,
        windows=session.window_log,
        flights=flight_stats["flights"],
        coalesced_chunks=flight_stats["coalesced_chunks"],
        shared_pages=flight_stats["shared_pages"],
    )
