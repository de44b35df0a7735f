"""Spans recorded from outside the program, and the proxies that record them.

The benchmark may not edit ``src/``, so a layer is timed by wrapping its
public seam: a proxy stands where the layer's object stood, opens a span
around each call into it, and delegates everything else.  Spans nest by
call order on each thread, which gives every span its parent; a layer's
*self* time is its spans' duration minus the part their child spans
cover.

Spans are aggregated as they close (count, busy, child-covered time per
name); only every ``sample_every``-th query keeps its raw spans, which
the workload writes out when it ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "Span",
    "LayerTotals",
    "Tracer",
    "Proxy",
    "TimedPipeline",
    "TracedPipeline",
    "TracedAnalyzer",
    "TracedResolver",
    "TracedAssembler",
    "TracedAccountant",
    "TracedStore",
    "TracedL1",
    "TracedL2",
    "TracedBackend",
    "trace_pipeline_stages",
]


@dataclass(frozen=True)
class Span:
    """One sampled call into a layer.

    ``parent`` is the id of the span that caused this one (``-1`` for a
    top-level span); ``query`` is shared by all spans of one request
    (``-1`` outside any request, e.g. the front door's planning pass).
    """

    id: int
    parent: int
    query: int
    name: str
    start: float
    end: float


@dataclass
class LayerTotals:
    """Aggregate of every closed span of one name."""

    calls: int = 0
    busy: float = 0.0
    child: float = 0.0
    longest: float = 0.0

    @property
    def self_time(self) -> float:
        """Busy time not covered by child spans."""
        return self.busy - self.child


class _ThreadState:
    """One thread's open-span stack and its share of the aggregates."""

    def __init__(self) -> None:
        self.stack: list[list[Any]] = []
        self.totals: dict[str, LayerTotals] = {}
        self.counts: dict[str, float] = {}
        self.top_level = 0.0
        self.spans: list[Span] = []


class Tracer:
    """Collects spans per thread and merges them on demand.

    Each thread aggregates into its own state, so recording takes no
    lock; :meth:`totals`, :meth:`counts` and :meth:`spans` merge the
    per-thread states and are meant to be read once the threads are
    done.  Nothing is recorded while ``enabled`` is false, so proxies
    can stay installed through warm-up.

    Args:
        sample_every: Keep the raw spans of every n-th query.
        clock: Monotonic clock in seconds (a test passes a scripted one).
    """

    def __init__(
        self,
        sample_every: int = 50,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = False
        self.sample_every = sample_every
        self._clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._span_ids = itertools.count()
        self._query_ids = itertools.count()

    def _state(self) -> _ThreadState:
        state: _ThreadState | None = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, root: bool = False) -> list[Any]:
        """Open a span; ``root`` marks the start of one query."""
        state = self._state()
        stack = state.stack
        if stack:
            parent = stack[-1]
            parent_id, query, sampled = parent[3], parent[5], parent[6]
        else:
            parent_id, query, sampled = -1, -1, False
        if root and query < 0:
            query = next(self._query_ids)
            sampled = query % self.sample_every == 0
        span_id = next(self._span_ids) if sampled else -1
        # [name, start, child time, id, parent id, query, sampled]
        frame = [name, 0.0, 0.0, span_id, parent_id, query, sampled]
        stack.append(frame)
        frame[1] = self._clock()
        return frame

    def end(self, frame: list[Any]) -> None:
        """Close the innermost open span (must be ``frame``)."""
        end = self._clock()
        state = self._state()
        state.stack.pop()
        name, start, child = frame[0], frame[1], frame[2]
        duration = end - start
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = LayerTotals()
        totals.calls += 1
        totals.busy += duration
        totals.child += child
        if duration > totals.longest:
            totals.longest = duration
        if state.stack:
            state.stack[-1][2] += duration
        else:
            state.top_level += duration
        if frame[6]:
            state.spans.append(
                Span(frame[3], frame[4], frame[5], name, start, end)
            )

    def call(
        self, name: str, func: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        """``func(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return func(*args, **kwargs)
        frame = self.begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            self.end(frame)

    def count(self, name: str, amount: float) -> None:
        """Add to a named counter (work done at a layer boundary)."""
        if self.enabled:
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, LayerTotals]:
        """Per-name aggregates over all threads."""
        merged: dict[str, LayerTotals] = {}
        for state in self._states:
            for name, part in state.totals.items():
                into = merged.setdefault(name, LayerTotals())
                into.calls += part.calls
                into.busy += part.busy
                into.child += part.child
                into.longest = max(into.longest, part.longest)
        return merged

    def counts(self) -> dict[str, float]:
        """Named counters summed over all threads."""
        merged: dict[str, float] = {}
        for state in self._states:
            for name, amount in state.counts.items():
                merged[name] = merged.get(name, 0) + amount
        return merged

    def top_level_time(self) -> float:
        """Total duration of spans that had no parent."""
        return sum(state.top_level for state in self._states)

    def unattributed_share(self, wall: float) -> float:
        """Share of ``wall`` seconds that no layer span covers."""
        return (wall - self.top_level_time()) / wall

    def spans(self) -> list[Span]:
        """The sampled raw spans, ordered by start time."""
        found = [span for state in self._states for span in state.spans]
        return sorted(found, key=lambda span: span.start)


class Proxy:
    """Delegates every attribute, read or written, to the wrapped object.

    Subclasses define the timed methods; everything else the program
    touches on the seam (``backend.disk``, ``lock_wait_recorder = …``,
    ``pipeline.analyzer``) reaches the real object unchanged.
    """

    def __init__(self, inner: Any, tracer: Tracer | None = None) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._inner, name, value)

    def __len__(self) -> int:
        return len(self._inner)

    def __contains__(self, item: object) -> bool:
        return item in self._inner


class TimedPipeline(Proxy):
    """The one shim of the untraced session runs: two clock reads around
    ``execute`` so a served query's service time can be recorded."""

    def __init__(self, inner: Any, latencies: list[float]) -> None:
        super().__init__(inner)
        object.__setattr__(self, "_latencies", latencies)

    def execute(self, query: Any) -> Any:
        start = time.perf_counter()
        result = self._inner.execute(query)
        self._latencies.append(time.perf_counter() - start)
        return result


class TracedPipeline(Proxy):
    """``StagedPipeline.execute`` as a query's root span."""

    def execute(self, query: Any) -> Any:
        tracer = self._tracer
        if not tracer.enabled:
            return self._inner.execute(query)
        frame = tracer.begin("pipeline.execute", root=True)
        try:
            return self._inner.execute(query)
        finally:
            tracer.end(frame)


class TracedAnalyzer(Proxy):
    def analyze(self, query: Any) -> Any:
        analyzed = self._tracer.call(
            "pipeline.analyze", self._inner.analyze, query
        )
        self._tracer.count(
            "pipeline.analyze.partitions", len(analyzed.partitions)
        )
        return analyzed


class TracedResolver(Proxy):
    """One resolver link; spans are named after the link
    (``pipeline.resolve_cache``, ``pipeline.resolve_backend`` …)."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        super().__init__(inner, tracer)
        object.__setattr__(self, "_span", f"pipeline.resolve_{inner.name}")

    def resolve(self, analyzed: Any, outstanding: Any) -> Any:
        outcome = self._tracer.call(
            self._span, self._inner.resolve, analyzed, outstanding
        )
        self._tracer.count(f"{self._span}.offered", len(outstanding))
        self._tracer.count(f"{self._span}.partitions", len(outcome.parts))
        return outcome


class TracedAssembler(Proxy):
    def assemble(self, analyzed: Any, resolution: Any) -> Any:
        rows = self._tracer.call(
            "pipeline.assemble", self._inner.assemble, analyzed, resolution
        )
        self._tracer.count("pipeline.assemble.rows_out", len(rows))
        return rows


class TracedAccountant(Proxy):
    def account(self, *args: Any) -> Any:
        return self._tracer.call(
            "pipeline.account", self._inner.account, *args
        )


def trace_pipeline_stages(pipeline: Any, tracer: Tracer) -> None:
    """Replace a ``StagedPipeline``'s public stage attributes by proxies."""
    pipeline.analyzer = TracedAnalyzer(pipeline.analyzer, tracer)
    pipeline.resolvers = tuple(
        TracedResolver(link, tracer) for link in pipeline.resolvers
    )
    pipeline.assembler = TracedAssembler(pipeline.assembler, tracer)
    pipeline.accountant = TracedAccountant(pipeline.accountant, tracer)


class TracedStore(Proxy):
    """``ChunkStore.get/put`` under a layer name (``core.cache`` for an
    in-memory store, ``core.tiered`` for the two-tier one)."""

    def __init__(self, inner: Any, tracer: Tracer, layer: str) -> None:
        super().__init__(inner, tracer)
        object.__setattr__(self, "_get", f"{layer}.get")
        object.__setattr__(self, "_put", f"{layer}.put")

    def get(self, key: Any) -> Any:
        return self._tracer.call(self._get, self._inner.get, key)

    def put(self, entry: Any) -> Any:
        return self._tracer.call(self._put, self._inner.put, entry)


class TracedL1(TracedStore):
    """The in-memory tier under a ``TieredChunkCache``.

    The tiered cache installs its spill hook on L1, and the hook then
    runs inside ``L1.put``.  Wrapping the hook in its own span hands
    that time (encode, L2 append, compaction) back to ``core.tiered``.
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        super().__init__(inner, tracer, "core.cache")

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "evict_hook" and value is not None:
            hook = value
            tracer = self._tracer

            def spill(victim: Any) -> None:
                tracer.call("core.tiered.spill", hook, victim)

            value = spill
        setattr(self._inner, name, value)


class TracedL2(Proxy):
    """``L2Backend.put/get/compact``."""

    def put(self, token: str, payload: bytes, benefit: float) -> int:
        self._tracer.count("storage.l2.put.bytes", len(payload))
        return self._tracer.call(
            "storage.l2.put", self._inner.put, token, payload, benefit
        )

    def get(self, token: str) -> bytes:
        return self._tracer.call("storage.l2.get", self._inner.get, token)

    def compact(self) -> int:
        return self._tracer.call("storage.l2.compact", self._inner.compact)


class TracedBackend(Proxy):
    """``BackendEngine.compute_chunks`` and the batched work estimate."""

    def compute_chunks(self, groupby: Any, numbers: Any, *args: Any,
                       **kwargs: Any) -> Any:
        computed, report = self._tracer.call(
            "backend.compute_chunks", self._inner.compute_chunks,
            groupby, numbers, *args, **kwargs,
        )
        count = self._tracer.count
        count("backend.compute_chunks.chunks", len(numbers))
        count("backend.compute_chunks.pages_read", report.pages_read)
        count("backend.compute_chunks.tuples_scanned", report.tuples_scanned)
        return computed, report

    def estimate_chunk_work_batch(self, groupby: Any, numbers: Any) -> Any:
        return self._tracer.call(
            "backend.estimate_work",
            self._inner.estimate_chunk_work_batch, groupby, numbers,
        )
