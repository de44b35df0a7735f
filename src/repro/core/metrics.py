"""Performance metrics: per-query records, CSR, and summaries.

The paper evaluates caching schemes with two metrics (Section 6.1.3):

1. the average execution time of the **last 100 queries** of a stream
   (steady-state behaviour after warm-up), and
2. the **Cost Saving Ratio** [SSV]::

       CSR = sum_i(c_i * h_i) / sum_i(c_i * r_i)

   the fraction of total query *cost* saved by the cache — preferred over
   plain hit ratio because OLAP query costs vary by orders of magnitude
   with the level of aggregation.

For chunk-based caching a query can be a *partial* hit, so the natural
generalization used here charges each query its cost-to-compute estimate
``full_cost`` and credits ``saved_cost`` for the fraction served from the
cache; with whole-query hits/misses this reduces exactly to the [SSV]
formula.  Both the estimates (deterministic, buffer-independent) and the
measured simulated times (including buffer-pool effects) are recorded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Sequence

from repro.exceptions import ExperimentError

if TYPE_CHECKING:
    from repro.analysis.cost import CostModel
    from repro.backend.plans import CostReport

__all__ = ["QueryRecord", "StreamMetrics", "account_answer"]


class QueryRecord(NamedTuple):
    """Outcome of one query through a cache manager.

    Attributes:
        time: Modelled execution time actually incurred (cost units).
        full_cost: Modelled cost had the cache been empty.
        saved_cost: Portion of ``full_cost`` served from the cache.
        chunks_total: Chunks the query decomposed into (1 for query-level
            caching).
        chunks_hit: Chunks served from the cache.
        chunks_derived: Chunks derived by middle-tier aggregation of other
            cached chunks (the future-work extension; 0 otherwise).
        pages_read: Physical backend pages read.
        result_rows: Rows returned to the client.
    """

    time: float
    full_cost: float
    saved_cost: float
    chunks_total: int
    chunks_hit: int
    chunks_derived: int = 0
    pages_read: int = 0
    result_rows: int = 0

    @property
    def is_full_hit(self) -> bool:
        """Whether the query never touched the backend."""
        return self.chunks_hit + self.chunks_derived >= self.chunks_total


def account_answer(
    cost_model: "CostModel",
    report: "CostReport",
    *,
    full_cost: float,
    saved_cost: float,
    chunks_total: int,
    chunks_hit: int,
    chunks_derived: int = 0,
    tuples_from_cache: int = 0,
    result_rows: int = 0,
) -> QueryRecord:
    """Price one answered query — the accounting shared by both schemes.

    The modelled execution time combines the physical work the backend
    actually performed (``report``) with the middle-tier cost of reading
    ``tuples_from_cache`` cached tuples; ``full_cost`` / ``saved_cost``
    feed the stream's Cost Saving Ratio.  Hoisted here so chunk caching
    and the query-caching baseline cannot drift apart in how a record is
    priced.
    """
    time = cost_model.time(report, tuples_from_cache=tuples_from_cache)
    return QueryRecord(
        time,
        full_cost,
        saved_cost,
        chunks_total,
        chunks_hit,
        chunks_derived,
        report.pages_read,
        result_rows,
    )


#: A stored record's field positions, by name.
_AT = {name: at for at, name in enumerate(QueryRecord._fields)}


class StreamMetrics:
    """Accumulates per-query records and derives the paper's metrics.

    The stream keeps records only: every answer carries its own
    :class:`~repro.pipeline.trace.ExecutionTrace`, and a caller that
    wants a per-stage view reads the traces it holds.

    History is one list of flat, exact tuples of numbers (a record's
    fields).  CPython stops tracking such a tuple at the first garbage
    collection that sees it, so a long stream leaves the cyclic
    collector nothing to walk — a tuple holding tuples would stay
    tracked until a collection of its own generation.  :attr:`records`
    rebuilds the objects on demand.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Any, ...]] = []

    def record(self, record: QueryRecord) -> None:
        """Append one query outcome."""
        # Written so that a NaN cost fails too.
        if not (record.full_cost >= 0.0 and record.time >= 0.0):
            raise ExperimentError("costs must be non-negative")
        self._records.append(tuple(record))

    def absorb(self, other: "StreamMetrics") -> None:
        """Append another stream's records, preserving order.

        All headline metrics here are order-independent sums or ratios
        of sums, so an absorbed stream's totals equal those of one
        stream that recorded both in sequence.
        """
        self._records.extend(other._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Sequence[QueryRecord]:
        """All records in arrival order."""
        return tuple(map(QueryRecord._make, self._records))

    def _column(
        self, field: str, records: Sequence[tuple[Any, ...]] | None = None
    ) -> Iterator[Any]:
        """One record field over ``records`` (default: the stream)."""
        at = _AT[field]
        return (
            record[at]
            for record in (self._records if records is None else records)
        )

    # ------------------------------------------------------------------
    # The paper's metrics
    # ------------------------------------------------------------------
    def cost_saving_ratio(self) -> float:
        """CSR over the whole stream (0.0 for an empty stream).

        ``full_cost`` is non-negative by :meth:`record`'s validation, so
        the float sum is compared by ordering rather than ``==`` (R002):
        a zero-cost stream has no savings to express, not a 0/0.
        """
        total = sum(self._column("full_cost"))
        if total <= 0.0:
            return 0.0
        saved = sum(self._column("saved_cost"))
        return saved / total

    def mean_time_last(self, n: int = 100) -> float:
        """Mean modelled execution time of the last ``n`` queries."""
        if n < 1:
            raise ExperimentError(f"n must be >= 1, got {n}")
        tail = self._records[-n:]
        if not tail:
            return 0.0
        return sum(self._column("time", tail)) / len(tail)

    def mean_time(self) -> float:
        """Mean modelled execution time over the whole stream."""
        if not self._records:
            return 0.0
        return self.total_time() / len(self._records)

    def total_time(self) -> float:
        """Total modelled execution time."""
        return sum(self._column("time"))

    # ------------------------------------------------------------------
    # Secondary statistics
    # ------------------------------------------------------------------
    def chunk_hit_ratio(self) -> float:
        """Chunks served from cache over chunks requested."""
        total = sum(self._column("chunks_total"))
        if not total:
            return 0.0
        hit = sum(self._column("chunks_hit")) + sum(
            self._column("chunks_derived")
        )
        return hit / total

    def full_hit_ratio(self) -> float:
        """Queries answered without touching the backend."""
        if not self._records:
            return 0.0
        hits = sum(
            1
            for hit, derived, total in zip(
                self._column("chunks_hit"),
                self._column("chunks_derived"),
                self._column("chunks_total"),
            )
            if hit + derived >= total
        )
        return hits / len(self._records)

    def total_pages_read(self) -> int:
        """Total physical backend pages read."""
        return sum(self._column("pages_read"))
