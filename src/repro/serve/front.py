"""The asyncio admission front door with single-flight coalescing.

:class:`FrontSession` sits in front of the thread-based serving layer:
K per-user query streams are driven by asyncio producer coroutines, a
bounded admission queue applies deterministic backpressure (typed
:class:`~repro.exceptions.AdmissionShed`, recorded — never silent), and
an admission coroutine batches the backlog into fixed-size **admission
windows** that execute on thread-pool workers through the manager's
staged pipeline.

Determinism is the load-bearing property, exactly as for the fair
schedule of :class:`~repro.serve.session.ServeSession`:

- **Arrivals** follow a tick protocol: each tick, every still-active
  producer (in name order) offers ``arrivals_per_tick`` queries, each
  stamped with a global admission sequence number; with the default of
  one arrival per tick, admission order is precisely the round-robin
  interleave of the name-sorted streams — the canonical order.
- **Backpressure** is part of the protocol, not a race: a query offered
  while the backlog is full is shed, and which queries are shed is a
  pure function of (workload, config).
- **Execution** of a window is serialized into admission order by a
  window-local turnstile across the real worker threads, so the cache
  sees one deterministic query sequence at any worker count.

Within a window, planned-duplicate missing chunks are **coalesced**
through a :class:`~repro.pipeline.flight.FlightTable`: the first
requester fetches, waiters share the published rows and are charged
only their fair-share modelled cost, and a failed fetch propagates the
same typed fault to every waiter (see :mod:`repro.pipeline.flight`).

:func:`run_front` puts the front door through the verifying harness
(:func:`repro.serve.soak.verified_run`: deep invariants, exact I/O
conservation, optional fault injection and oracle replay); its
:class:`FrontReport` carries a digest that is — like a fair-schedule
:class:`~repro.serve.soak.SoakReport`'s — a pure function of
(workload, seed, config) at any worker count.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.manager import ChunkCacheManager
from repro.core.metrics import StreamMetrics
from repro.exceptions import AdmissionShed, ServeError
from repro.pipeline.executor import StagedPipeline
from repro.pipeline.flight import FlightResolver, FlightTable
from repro.pipeline.resolvers import (
    BackendChunkResolver,
    CacheHitResolver,
    PartitionResolver,
)
from repro.pipeline.stages import AnalyzedQuery
from repro.pipeline.trace import record_blocked_wait
from repro.query.model import StarQuery
from repro.serve.session import QueryFailure, ServeReport, merge_report
from repro.serve.soak import FaultSource, SoakReport, verified_run
from repro.workload.stream import QueryStream

__all__ = [
    "FrontConfig",
    "FrontReport",
    "FrontSession",
    "ShedQuery",
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
            holds this many is shed with a typed
            :class:`~repro.exceptions.AdmissionShed`.
        arrivals_per_tick: Queries each active producer offers per
            admission tick.  At the default of 1 the admission order is
            the canonical round-robin interleave; raising it models
            burstier sessions (and, with ``window`` < offered load,
            deterministic shedding).
        max_workers: Worker threads per window (default: one per
            stream).  Never changes results, only wall/simulated
            attribution — the determinism contract.
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
    (``serve`` holds the session report: merged and per-stream metrics,
    the failures themselves in admission order, simulated throughput)
    plus the front door's own admission outcome.  The ``digest`` here
    additionally covers sheds, window compositions and flight counters.

    Attributes:
        shed: Queries rejected by admission backpressure, in admission
            order.
        windows: The admitted sequence numbers of every executed
            window, in execution order — the run's full admission
            schedule.
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


class FrontSession:
    """Admits K user streams through the async front door.

    Composes its own resolver chain around the manager's: a
    :class:`~repro.pipeline.flight.FlightResolver` ahead of the cache,
    a flight-aware cache link, the manager's middle links unchanged,
    and a flight-aware terminal backend link.  The manager's own
    pipeline is untouched, so answering queries outside the front door
    remains bit-identical.

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
        if not streams:
            raise ServeError("a front-door session needs at least one stream")
        names = [stream.name for stream in streams]
        if len(set(names)) != len(names):
            raise ServeError(f"duplicate stream names in {sorted(names)}")
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
        if config.timeout_seconds <= 0:
            raise ServeError(
                "timeout_seconds must be positive, got "
                f"{config.timeout_seconds}"
            )
        self.manager = manager
        self.streams = tuple(
            sorted(streams, key=lambda stream: stream.name)
        )
        workers = (
            len(self.streams)
            if config.max_workers is None
            else config.max_workers
        )
        if workers < 1:
            raise ServeError(f"max_workers must be >= 1, got {workers}")
        self.max_workers = min(workers, len(self.streams))
        self.config = config
        self.tolerate = tuple(tolerate)
        self.on_answer = on_answer
        self.on_checkpoint = on_checkpoint
        self.flight = FlightTable(
            manager.cost_model,
            manager.estimator,
            coalesce=config.coalesce,
        )
        self.pipeline = self._build_pipeline()
        # Run state (rebuilt per run()).
        self._wcond = threading.Condition()
        self._win_next = 0
        self._failure: BaseException | None = None
        self._failures: list[QueryFailure] = []
        self._shed: list[ShedQuery] = []
        self._windows: list[tuple[int, ...]] = []
        self._merged: list[tuple[int, StreamMetrics]] = []
        self._per_stream: dict[str, StreamMetrics] = {}
        self._sim_seconds: list[float] = []
        self._completed = 0
        self._checkpoints = 0
        self._last_boundary = 0
        self._deadline = 0.0

    def _build_pipeline(self) -> StagedPipeline:
        """The manager's pipeline with the flight table woven in."""
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
            analyzer=base.analyzer,
            resolvers=resolvers,
            assembler=base.assembler,
            accountant=base.accountant,
            cost_model=base.cost_model,
        )

    # ------------------------------------------------------------------
    # Asyncio admission: the tick protocol
    # ------------------------------------------------------------------
    # Shared coroutine state: producers and the dispatcher alternate
    # phases under one asyncio.Condition.  In the "arrive" phase each
    # still-active producer, in name order, offers arrivals_per_tick
    # queries (stamping global sequence numbers; full backlog => typed
    # shed); the last active producer flips the phase to "admit", the
    # dispatcher drains one window, executes it, and starts the next
    # tick.  Every transition is a pure function of (streams, config),
    # which is what makes admission — including backpressure —
    # deterministic.

    def _first_active(self) -> int:
        for index, active in enumerate(self._active):
            if active:
                return index
        return -1

    def _advance_turn(self, index: int) -> None:
        for nxt in range(index + 1, len(self._active)):
            if self._active[nxt]:
                self._turn = nxt
                return
        self._phase = "admit"

    async def _produce(self, index: int, stream: QueryStream) -> None:
        cursor = 0
        total = len(stream)
        while cursor < total:
            async with self._acond:
                await self._acond.wait_for(
                    lambda: self._phase == "arrive"
                    and self._turn == index
                )
                for _ in range(self.config.arrivals_per_tick):
                    if cursor >= total:
                        break
                    seq = self._seq
                    self._seq += 1
                    query = stream[cursor]
                    cursor += 1
                    try:
                        if len(self._backlog) >= self.config.queue_limit:
                            raise AdmissionShed(
                                "admission backlog full at depth "
                                f"{len(self._backlog)}",
                                depth=len(self._backlog),
                                seq=seq,
                                stream=stream.name,
                            )
                        self._backlog.append((seq, stream.name, query))
                    except AdmissionShed as shed:
                        self._shed.append(
                            ShedQuery(
                                seq=shed.seq,
                                stream=shed.stream,
                                depth=shed.depth,
                            )
                        )
                if cursor >= total:
                    self._active[index] = False
                self._advance_turn(index)
                self._acond.notify_all()

    async def _dispatch(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            async with self._acond:
                if not any(self._active) and not self._backlog:
                    return
                if any(self._active):
                    self._phase = "arrive"
                    self._turn = self._first_active()
                    self._acond.notify_all()
                    await self._acond.wait_for(
                        lambda: self._phase == "admit"
                    )
                window = list(self._backlog[: self.config.window])
                del self._backlog[: len(window)]
            if window:
                self._windows.append(
                    tuple(seq for seq, _stream, _query in window)
                )
                await loop.run_in_executor(
                    None, self._execute_window, window
                )
                self._maybe_checkpoint()

    async def _run_async(self) -> None:
        self._acond = asyncio.Condition()
        self._phase = "admit"
        self._turn = -1
        self._seq = 0
        self._backlog: list[tuple[int, str, StarQuery]] = []
        self._active = [len(stream) > 0 for stream in self.streams]
        producers = [
            asyncio.ensure_future(self._produce(index, stream))
            for index, stream in enumerate(self.streams)
            if len(stream) > 0
        ]
        dispatcher = asyncio.ensure_future(self._dispatch())
        try:
            await asyncio.gather(dispatcher, *producers)
        finally:
            for task in (dispatcher, *producers):
                if not task.done():
                    task.cancel()

    # ------------------------------------------------------------------
    # Window execution (thread side)
    # ------------------------------------------------------------------
    def _execute_window(
        self, window: list[tuple[int, str, StarQuery]]
    ) -> None:
        # Plan: analyze every admitted query (pure metadata — no disk
        # I/O) and register the window's planned-duplicate chunks.
        requests: list[tuple[int, AnalyzedQuery]] = []
        for seq, _stream, query in window:
            requests.append((seq, self.pipeline.analyzer.analyze(query)))
        self.flight.plan_window(self.manager.cache, requests)
        with self._wcond:
            self._win_next = 0
        workers = min(self.max_workers, len(window))
        if workers <= 1:
            for task in window:
                self._execute_one(task, 0)
            return
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="front"
        ) as pool:
            futures = [
                pool.submit(self._window_worker, window, index, workers)
                for index in range(workers)
            ]
            for future in futures:
                future.result()

    def _window_worker(
        self,
        window: list[tuple[int, str, StarQuery]],
        start: int,
        stride: int,
    ) -> None:
        try:
            for position in range(start, len(window), stride):
                self._await_position(position)
                try:
                    self._execute_one(window[position], start)
                finally:
                    self._advance_position()
        except BaseException as error:
            self._abort(error)
            raise

    def _await_position(self, position: int) -> None:
        with self._wcond:
            while self._win_next != position:
                if self._failure is not None:
                    raise ServeError(
                        "front-door window aborted by another worker"
                    ) from self._failure
                remaining = self._deadline - time.monotonic()
                if remaining <= 0:
                    raise ServeError(
                        "front-door worker timed out waiting for window "
                        f"position {position} (deadline "
                        f"{self.config.timeout_seconds}s)"
                    )
                self._wcond.wait(remaining)

    def _advance_position(self) -> None:
        with self._wcond:
            self._win_next += 1
            self._wcond.notify_all()

    def _abort(self, error: BaseException) -> None:
        with self._wcond:
            if self._failure is None:
                self._failure = error
            self._wcond.notify_all()

    def _execute_one(
        self, task: tuple[int, str, StarQuery], worker_index: int
    ) -> None:
        seq, stream_name, query = task
        self.flight.begin(seq)
        try:
            try:
                result = self.pipeline.execute(query)
            except self.tolerate as error:
                # A tolerated failure (including a cloned flight fault)
                # is recorded and the window moves on.
                failure = QueryFailure.from_error(seq, stream_name, error)
                with self._wcond:
                    self._failures.append(failure)
                    self._completed += 1
                return
        finally:
            self.flight.end()
        self._per_stream[stream_name].record(result.record, result.trace)
        single = StreamMetrics()
        single.record(result.record, result.trace)
        with self._wcond:
            self._merged.append((seq, single))
            self._completed += 1
        self._sim_seconds[worker_index] += result.record.time
        if self.on_answer is not None:
            self.on_answer(seq, stream_name, query, result.rows)

    def _maybe_checkpoint(self) -> None:
        every = self.config.checkpoint_every
        if every <= 0 or self.on_checkpoint is None:
            return
        boundary = self._completed // every
        if boundary > self._last_boundary:
            self._last_boundary = boundary
            self.on_checkpoint(self._completed)
            self._checkpoints += 1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> ServeReport:
        """Admit and execute every stream; merge in admission order."""
        self._failure = None
        self._failures = []
        self._shed = []
        self._windows = []
        self._merged = []
        self._per_stream = {
            stream.name: StreamMetrics() for stream in self.streams
        }
        self._sim_seconds = [0.0] * self.max_workers
        self._completed = 0
        self._checkpoints = 0
        self._last_boundary = 0
        self.flight.reset()
        self._deadline = time.monotonic() + self.config.timeout_seconds
        backend = self.manager.backend
        previous_recorder = backend.lock_wait_recorder
        backend.lock_wait_recorder = record_blocked_wait
        started = time.perf_counter()
        try:
            try:
                asyncio.run(
                    asyncio.wait_for(
                        self._run_async(), self.config.timeout_seconds
                    )
                )
            except (asyncio.TimeoutError, TimeoutError) as error:
                raise ServeError(
                    "front-door session exceeded its "
                    f"{self.config.timeout_seconds}s deadline"
                ) from error
        finally:
            backend.lock_wait_recorder = previous_recorder
        wall = time.perf_counter() - started

        return merge_report(
            self.manager,
            FRONT,
            self.max_workers,
            wall,
            self._merged,
            self._sim_seconds,
            self._per_stream,
            self._checkpoints,
            self._failures,
        )

    @property
    def shed_queries(self) -> tuple[ShedQuery, ...]:
        """Queries shed by the last run, in admission order."""
        return tuple(sorted(self._shed, key=lambda s: s.seq))

    @property
    def window_log(self) -> tuple[tuple[int, ...], ...]:
        """Admitted sequence numbers per executed window, in order."""
        return tuple(self._windows)


def run_front(
    manager: ChunkCacheManager,
    streams: Sequence[QueryStream],
    config: FrontConfig = FrontConfig(),
    injector: FaultSource | None = None,
    oracle: Callable[[StarQuery], Any] | None = None,
) -> FrontReport:
    """Run the front door through the verifying harness.

    :func:`~repro.serve.soak.verified_run` asserts, as for
    :func:`~repro.serve.soak.run_soak`:

    - **exact conservation** — ``pages_read + failed_pages == disk read
      delta``, with coalesced waiters contributing zero pages (the
      leader's fetch carries them all) and every failed attempt's
      wasted I/O accounted;
    - **correct or typed** — with an ``injector``, queries either
      answer or fail with a typed
      :class:`~repro.exceptions.InjectedFault`; every coalesced waiter
      of a failed fetch receives the same typed failure.  With an
      ``oracle``, every answer is replayed fault-free afterwards and
      must match;
    - **reproducibility** — the report's digest is a pure function of
      (workload, fault seed, config) at any worker count.

    Conservation checkpoints run when the store supports cross-shard
    checks (``check_conservation``); a plain single-threaded store is
    accepted too — window execution is fully serialized, so the front
    door, unlike the racing soak, does not require a sharded store.

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
