"""Per-stage execution instrumentation.

Every query answered through the staged pipeline carries an
:class:`ExecutionTrace`: one :class:`StageTrace` per pipeline stage
(analysis, each resolver in the chain, assembly, accounting) with wall
time, the modelled time attributed to the stage's physical work, and the
partition counts it handled, plus a per-resolver attribution map telling
which link of the chain answered which share of the query.

Traces are deliberately dependency-free (plain objects over floats and
ints; this module imports nothing from the package).  The stage record
is defined once, here: :class:`StageTrace` plus :data:`STAGE_FIELDS`,
the list its ``repr``, :func:`aggregate_stage_traces` and — through
that — ``StreamMetrics.stage_summary()``, which the snapshot keeps as
it is, all follow.  A :class:`StageTrace` is a ``NamedTuple``
the executor builds in one call when the stage ends; an
:class:`ExecutionTrace` is a plain slotted class that holds the list.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, NamedTuple, Sequence

__all__ = [
    "STAGE_FIELDS",
    "StageTrace",
    "ExecutionTrace",
    "aggregate_stage_traces",
    "aggregate_resolver_attribution",
    "sum_stages",
    "sum_attribution",
]


class StageTrace(NamedTuple):
    """Instrumentation of one pipeline stage for one query.

    Attributes:
        name: Stage name (``"analyze"``, ``"resolve:cache"``,
            ``"resolve:backend"``, ``"assemble"``, ``"account"``).
        wall_seconds: Real elapsed time in the stage.
        modelled_time: Simulated cost-model time attributed to the stage
            (backend resolvers: the modelled cost of their physical I/O;
            0.0 for purely administrative stages).
        partitions: Partitions (chunks) the stage handled — for a
            resolver, the number it *resolved*.
        pages_read: Physical backend pages the stage caused to be read.
        tuples_scanned: Backend tuples the stage pushed through operators.
        faults: Injected faults the stage absorbed (0 outside
            :mod:`repro.faults` injection, like the three below).
        retries: Retry attempts the stage's recovery policy made.
        degraded: Times the stage fell back to recomputing from base
            chunks.
        backoff_seconds: Simulated retry-backoff seconds charged to the
            stage.
        coalesce_seconds: Signed simulated seconds from single-flight
            coalescing (waiter fair-share charges, leader credits; 0.0
            outside the front door).
    """

    name: str
    wall_seconds: float = 0.0
    modelled_time: float = 0.0
    partitions: int = 0
    pages_read: int = 0
    tuples_scanned: int = 0
    faults: int = 0
    retries: int = 0
    degraded: int = 0
    backoff_seconds: float = 0.0
    coalesce_seconds: float = 0.0


#: The summable fields of a :class:`StageTrace`, in the order its
#: ``repr`` prints them and a ``stage_summary()`` bucket keys them
#: (after ``"calls"``).
STAGE_FIELDS: tuple[str, ...] = StageTrace._fields[1:]


class ExecutionTrace:
    """Full per-stage instrumentation of one answered query.

    Attributes:
        stages: One entry per executed stage, in execution order.
        resolved_by: Resolver name -> partitions it resolved (resolver
            attribution; resolvers that ran but resolved nothing appear
            with 0).
        partitions_total: Partitions the query decomposed into.
        backend_pages: Total physical pages read while answering.
        modelled_time: The answer's total modelled execution time.
    """

    __slots__ = (
        "stages", "resolved_by", "partitions_total", "backend_pages",
        "modelled_time",
    )

    def __init__(
        self,
        stages: list[StageTrace] | None = None,
        resolved_by: dict[str, int] | None = None,
        partitions_total: int = 0,
        backend_pages: int = 0,
        modelled_time: float = 0.0,
    ) -> None:
        # Adopted, not copied: the executor builds both per query.
        self.stages: list[StageTrace] = [] if stages is None else stages
        self.resolved_by: dict[str, int] = (
            {} if resolved_by is None else resolved_by
        )
        self.partitions_total = partitions_total
        self.backend_pages = backend_pages
        self.modelled_time = modelled_time

    def stage(self, name: str) -> StageTrace | None:
        """The first stage with the given name, or None."""
        for entry in self.stages:
            if entry.name == name:
                return entry
        return None

    @property
    def wall_seconds(self) -> float:
        """Total wall time across all stages."""
        return sum(entry.wall_seconds for entry in self.stages)

    def summary(self) -> dict[str, object]:
        """Compact dictionary form (for logs and reports)."""
        return {
            "wall_seconds": self.wall_seconds,
            "modelled_time": self.modelled_time,
            "partitions_total": self.partitions_total,
            "backend_pages": self.backend_pages,
            "resolved_by": dict(self.resolved_by),
            "stages": {
                entry.name: entry.wall_seconds for entry in self.stages
            },
        }


def aggregate_stage_traces(
    traces: Iterable[ExecutionTrace],
) -> dict[str, dict[str, float]]:
    """Aggregate many traces into per-stage totals.

    Returns a mapping ``stage name -> {"calls", *STAGE_FIELDS}`` summed
    over all traces, in first-seen stage order.
    """
    return sum_stages(chain.from_iterable(trace.stages for trace in traces))


def sum_stages(stages: Iterable[Sequence[Any]]) -> dict[str, dict[str, float]]:
    """:func:`aggregate_stage_traces` over the stages themselves, in
    order.  A stage may be a :class:`StageTrace` or the plain tuple of
    its fields, which is how ``StreamMetrics`` keeps them."""
    totals: dict[str, dict[str, float]] = {}
    for name, *values in stages:
        bucket = totals.get(name)
        if bucket is None:
            bucket = totals[name] = dict.fromkeys(
                ("calls", *STAGE_FIELDS), 0.0
            )
        bucket["calls"] += 1
        for field, value in zip(STAGE_FIELDS, values):
            bucket[field] += value
    return totals


def aggregate_resolver_attribution(
    traces: Iterable[ExecutionTrace],
) -> dict[str, int]:
    """Sum resolver attribution maps over many traces."""
    return sum_attribution(
        chain.from_iterable(trace.resolved_by.items() for trace in traces)
    )


def sum_attribution(pairs: Iterable[tuple[str, int]]) -> dict[str, int]:
    """:func:`aggregate_resolver_attribution` over ``(resolver,
    partitions)`` pairs, in order."""
    totals: dict[str, int] = {}
    for name, count in pairs:
        totals[name] = totals.get(name, 0) + count
    return totals
