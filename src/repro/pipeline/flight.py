"""Single-flight chunk coalescing for the admission front door.

When the front door (:mod:`repro.serve.front`) admits a window of
queries, several of them may need the *same* missing chunk.  Without
coordination each would recompute it at the backend — the classic
thundering-herd shape.  The :class:`FlightTable` turns every such
planned-duplicate chunk into a **flight**: the first requester (in
canonical admission order) computes the chunk once and *publishes* it;
every later requester in the window *claims* the published rows instead
of touching the backend.

Accounting follows the fair-share contract:

- **Physical pages** are attributed wholly to the leader's fetch, so
  global I/O conservation (Σ record pages == disk read delta) stays
  integer-exact.
- **Modelled time** is split fairly: at publish time the chunk's share
  of the fetch's modelled cost is divided evenly over the publisher and
  the requesters still waiting; each waiter is charged its share
  (positive ``CostReport.coalesce_time``) and the publisher is credited
  the complement (negative), so the flight's adjustments sum to zero.
- **Faults** propagate to everyone: if the fetch fails, every waiter
  receives a fresh clone of the same typed fault (without the leader's
  cost report, so failed pages are counted exactly once).

The table is driven through three hooks:

- :meth:`FlightTable.masked` — consulted by
  :class:`~repro.pipeline.resolvers.CacheHitResolver` so flight chunks
  bypass the cache (a waiter must take the flight path, not a free hit
  on the row the leader just admitted; with ``coalesce=False`` the
  bypass is what forces every requester to refetch, which is the
  baseline the benchmark compares against);
- :class:`FlightResolver` — a chain link ahead of the cache that claims
  published chunks and re-raises published failures;
- :meth:`FlightTable.publish` / :meth:`FlightTable.publish_failure` —
  called by :class:`~repro.pipeline.resolvers.BackendChunkResolver`
  after its terminal fetch.

The front door runs its admitted queries one at a time, in canonical
sequence order, on one thread, so the table needs no locking of its own;
the :meth:`FlightTable.begin` / :meth:`FlightTable.end` bracket tells
the hooks which admitted query is currently executing.
With no bracket active every hook is inert, so a pipeline that happens
to share resolvers with a front door still executes bit-identically
outside it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.cost import CostModel
from repro.backend.plans import CostReport
from repro.core.cache import ChunkStore
from repro.core.chunk import ChunkKey
from repro.exceptions import BackendFault, DiskFault, InjectedFault
from repro.pipeline.resolvers import PartitionResolver
from repro.pipeline.stages import (
    AnalyzedQuery,
    ResolvedPart,
    ResolverOutcome,
)
from repro.pipeline.work import ChunkWorkEstimator
from repro.schema.star import GroupBy

__all__ = ["ChunkFlight", "FlightTable", "FlightResolver", "clone_fault"]


def clone_fault(fault: InjectedFault) -> InjectedFault:
    """A fresh instance of the same typed fault, for one waiter.

    The clone carries the original's classification (class, message,
    transience, site, source level) but *not* its cost report: the
    leader's failed attempt already accounts for the wasted physical
    I/O, so each waiter's failure must report zero pages or the global
    conservation check would double-count the fetch.
    """
    message = str(fault.args[0]) if fault.args else str(fault)
    clone: InjectedFault
    if isinstance(fault, DiskFault):
        clone = DiskFault(
            message,
            page_id=fault.page_id,
            transient=fault.transient,
            site=fault.site,
        )
    elif isinstance(fault, BackendFault):
        clone = BackendFault(
            message,
            operation=fault.operation,
            transient=fault.transient,
            site=fault.site,
        )
    else:
        clone = InjectedFault(
            message, transient=fault.transient, site=fault.site
        )
    clone.source_level = fault.source_level
    return clone


class ChunkFlight:
    """One coalesced chunk: a planned duplicate within a window.

    A mutable accumulator (leader publishes into it, waiters mark
    themselves served), so a plain class rather than a frozen pipeline
    value (R003) — like :class:`~repro.pipeline.stages.Resolution`.

    Attributes:
        key: The chunk's cache key.
        groupby: The chunk's group-by (for work estimation).
        number: The chunk number within the group-by's grid.
        requesters: Admission sequence numbers of every query in the
            window that planned to fetch this chunk, ascending; the
            first is the expected leader.
        state: ``"pending"`` until the leader publishes, then
            ``"done"`` or ``"failed"``.
        rows: The published chunk rows (``state == "done"``).
        pages: Estimated data pages of the chunk — the physical reads
            each waiter avoided (feeds the ``shared_pages`` counter).
        share: Fair-share modelled time charged to each waiter's claim.
        fault: The published failure (``state == "failed"``), cloned
            per waiter.
        served: Requesters already served (published to, claimed by,
            or failed), excluded from later share splits.
    """

    def __init__(
        self,
        key: ChunkKey,
        groupby: GroupBy,
        number: int,
        requesters: tuple[int, ...],
    ) -> None:
        self.key = key
        self.groupby = groupby
        self.number = number
        self.requesters = requesters
        self.state = "pending"
        self.rows: np.ndarray | None = None
        self.pages = 0
        self.share = 0.0
        self.fault: InjectedFault | None = None
        self.served: set[int] = set()


class FlightTable:
    """In-flight registry of coalesced chunks for one front door.

    Args:
        cost_model: Prices the leader's fetch for fair-share splits.
        estimator: Memoized per-chunk work estimates, used both to
            apportion a batched fetch's cost over its chunks and to
            price the pages a waiter avoided.
        coalesce: When False the table still *masks* flight chunks away
            from the cache (so every requester physically refetches —
            the benchmark's no-coalescing baseline) but never publishes
            or serves a flight.

    Attributes:
        flights: Chunk fetches published to at least one waiter.
        coalesced_chunks: Chunk requests served from a flight instead
            of the backend.
        shared_pages: Estimated physical pages those claims avoided.
    """

    def __init__(
        self,
        cost_model: CostModel,
        estimator: ChunkWorkEstimator,
        coalesce: bool = True,
    ) -> None:
        self.cost_model = cost_model
        self.estimator = estimator
        self.coalesce = coalesce
        self.flights = 0
        self.coalesced_chunks = 0
        self.shared_pages = 0
        self._entries: dict[ChunkKey, ChunkFlight] = {}
        self._current: int | None = None

    # ------------------------------------------------------------------
    # Window planning (front-door side)
    # ------------------------------------------------------------------
    def plan_window(
        self,
        cache: ChunkStore,
        requests: Sequence[tuple[int, AnalyzedQuery]],
    ) -> int:
        """Register one admission window's planned-duplicate chunks.

        Tests the cache for every chunk every admitted query needs (a
        presence test: no read, no replacement or hit statistics); a
        chunk that is missing *and* wanted by two or more queries
        becomes a :class:`ChunkFlight`.  Replaces the previous window's
        entries.

        Returns:
            The number of flights planned.
        """
        self._entries = {}
        wanted: dict[ChunkKey, list[int]] = {}
        info: dict[ChunkKey, tuple[GroupBy, int]] = {}
        for seq, analyzed in requests:
            for number in analyzed.partitions:
                key = analyzed.shape.key(number)
                seqs = wanted.get(key)
                if seqs is not None:
                    if seq not in seqs:
                        seqs.append(seq)
                    continue
                if key in cache:
                    continue
                wanted[key] = [seq]
                info[key] = (analyzed.groupby, number)
        for key, seqs in wanted.items():
            if len(seqs) < 2:
                continue
            groupby, number = info[key]
            self._entries[key] = ChunkFlight(
                key=key,
                groupby=groupby,
                number=number,
                requesters=tuple(sorted(seqs)),
            )
        return len(self._entries)

    # ------------------------------------------------------------------
    # Execution bracket (session side)
    # ------------------------------------------------------------------
    def begin(self, seq: int) -> None:
        """Mark admitted query ``seq`` as the one now executing."""
        self._current = seq

    def end(self) -> None:
        """Clear the execution bracket."""
        self._current = None

    # ------------------------------------------------------------------
    # Resolver hooks
    # ------------------------------------------------------------------
    def masked(
        self, analyzed: AnalyzedQuery, outstanding: Sequence[int]
    ) -> frozenset[int]:
        """Chunk numbers the cache resolver must skip for this query.

        A flight chunk must flow through the flight path (or, for the
        leader and under ``coalesce=False``, through the backend) —
        never resolve as a cache hit, even after the leader admits it.
        """
        seq = self._current
        if seq is None or not self._entries:
            return frozenset()
        masked: set[int] = set()
        for number in outstanding:
            entry = self._entries.get(analyzed.shape.key(number))
            if entry is not None and seq in entry.requesters:
                masked.add(number)
        return frozenset(masked)

    def claim(
        self, analyzed: AnalyzedQuery, outstanding: Sequence[int]
    ) -> tuple[dict[int, ResolvedPart], float]:
        """Serve whatever published flights this query is waiting on.

        Returns ``(parts, charge)`` — the claimed chunk rows keyed by
        number, and the total fair-share modelled time to charge the
        claimer.  Raises a cloned typed fault if any awaited flight
        failed (checked before claiming anything, so a failed query
        never half-consumes its shares).  Pending flights are left
        outstanding: the leader falls through to the backend, and if
        the leader itself failed on an unrelated chunk, the next
        requester in sequence order inherits the fetch.
        """
        seq = self._current
        if seq is None or not self._entries:
            return {}, 0.0
        awaiting: list[tuple[int, ChunkFlight]] = []
        for number in outstanding:
            entry = self._entries.get(analyzed.shape.key(number))
            if entry is None or seq not in entry.requesters:
                continue
            if seq in entry.served:
                continue
            awaiting.append((number, entry))
        for _number, entry in awaiting:
            if entry.state == "failed" and entry.fault is not None:
                entry.served.add(seq)
                raise clone_fault(entry.fault)
        parts: dict[int, ResolvedPart] = {}
        charge = 0.0
        for number, entry in awaiting:
            if entry.state != "done" or entry.rows is None:
                continue
            entry.served.add(seq)
            parts[number] = ResolvedPart(
                number=number, rows=entry.rows, resolver="flight"
            )
            charge += entry.share
            self.coalesced_chunks += 1
            self.shared_pages += entry.pages
        return parts, charge

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    def publish(
        self,
        analyzed: AnalyzedQuery,
        computed: Mapping[int, np.ndarray],
        report: CostReport,
    ) -> float:
        """Publish freshly fetched chunks to their waiting flights.

        Apportions the fetch's modelled time over the batch's chunks
        (proportionally to their estimated backend work) and, for every
        chunk with a pending flight, splits that chunk's cost evenly
        over the publisher and the requesters not yet served.

        Returns:
            The publisher's credit: minus the waiters' summed shares
            (``<= 0``), to be added to the fetch report's
            ``coalesce_time``.
        """
        seq = self._current
        if seq is None or not self.coalesce or not self._entries:
            return 0.0
        pending: dict[int, ChunkFlight] = {}
        for number in computed:
            entry = self._entries.get(analyzed.shape.key(number))
            if (
                entry is not None
                and seq in entry.requesters
                and entry.state == "pending"
            ):
                pending[number] = entry
        if not pending:
            return 0.0
        total_time = self.cost_model.time(report)
        work = self.estimator.ensure(analyzed.groupby, computed.keys())
        weights = {
            number: self.cost_model.backend_time(*work[number])
            for number in computed
        }
        weight_sum = sum(weights.values())
        credit = 0.0
        for number, entry in pending.items():
            if weight_sum > 0.0:
                chunk_time = total_time * weights[number] / weight_sum
            else:
                chunk_time = total_time / len(computed)
            remaining = [
                s
                for s in entry.requesters
                if s != seq and s not in entry.served
            ]
            entry.share = chunk_time / (len(remaining) + 1)
            credit -= entry.share * len(remaining)
            entry.rows = computed[number]
            entry.pages = int(work[number][0])
            entry.state = "done"
            entry.served.add(seq)
            self.flights += 1
        return credit

    def publish_failure(
        self,
        analyzed: AnalyzedQuery,
        numbers: Iterable[int],
        fault: InjectedFault,
    ) -> None:
        """Fail every pending flight the aborted fetch was leading.

        Each waiter will receive its own clone of ``fault`` when it
        claims, so a coalesced failure surfaces the same typed error to
        every query that depended on the fetch.
        """
        seq = self._current
        if seq is None or not self.coalesce or not self._entries:
            return
        for number in numbers:
            entry = self._entries.get(analyzed.shape.key(number))
            if (
                entry is not None
                and seq in entry.requesters
                and entry.state == "pending"
            ):
                entry.state = "failed"
                entry.fault = fault
                entry.served.add(seq)

    def reset(self) -> None:
        """Zero the counters and drop any previous window's entries.

        The front door calls this at the top of every run so a reused
        session starts from a clean table (the execution bracket is
        already cleared by ``end()``).
        """
        self.flights = 0
        self.coalesced_chunks = 0
        self.shared_pages = 0
        self._entries = {}

    def stats(self) -> dict[str, int]:
        """The coalescing counters (for reports and digests)."""
        return {
            "flights": self.flights,
            "coalesced_chunks": self.coalesced_chunks,
            "shared_pages": self.shared_pages,
        }


class FlightResolver(PartitionResolver):
    """Chain link serving chunks from the window's flight table.

    Sits *ahead* of the cache link so a waiter consumes its flight
    (charged its fair share) rather than a free cache hit on the row
    the leader just admitted.  Claimed parts count as *missing* in the
    chunk plan (``saved=False``) — the work was done this window, only
    not by this query.
    """

    name = "flight"

    def __init__(self, table: FlightTable) -> None:
        self.table = table

    def resolve(
        self, analyzed: AnalyzedQuery, outstanding: Sequence[int]
    ) -> ResolverOutcome:
        parts, charge = self.table.claim(analyzed, outstanding)
        if not parts:
            return ResolverOutcome()
        report = CostReport(access_path="flight", coalesce_time=charge)
        return ResolverOutcome(parts=parts, report=report)
