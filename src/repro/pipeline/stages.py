"""The staged query-execution plan.

The paper's Section 5.2 pipeline (query analysis → ComputeChunkNums →
query splitting → missing-chunk computation → assembly) is modelled as
explicit value objects flowing between small single-purpose stages.
The values are ``NamedTuple``s: immutable, and built at tuple speed on
the hit path, where every query makes several of them:

- :class:`AnalyzedQuery` — the output of *query analysis*: the three key
  components of conditions 1–3 (group-by, aggregate list, non-group-by
  predicates) plus the partition list the query decomposes into (chunk
  numbers for chunk caching; the single whole-result partition for the
  query-caching baseline);
- :class:`ResolvedPart` / :class:`Resolution` — the output of the
  *resolver chain*: every partition's rows, tagged with the resolver that
  produced them and the accounting inputs (cache tuples consumed, cost
  saved);
- :class:`ChunkPlan` — the classification of partitions into present /
  derived / missing, derived from the resolution's attribution;
- assembly is a plain array (:func:`select_exact` trims boundary rows).

Stage objects themselves (analyzers, resolvers, assemblers, accountants)
live in :mod:`repro.pipeline.resolvers` and the managers; the executor in
:mod:`repro.pipeline.executor` wires them together.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from repro.backend.plans import CostReport
from repro.core.chunk import ChunkShape
from repro.query.model import StarQuery
from repro.schema.star import GroupBy, StarSchema

__all__ = [
    "AnalyzedQuery",
    "ResolvedPart",
    "ResolverOutcome",
    "Resolution",
    "ChunkPlan",
    "select_exact",
]

#: The default of a mapping field: read-only, so sharing it is safe.
_EMPTY: Mapping[Any, Any] = MappingProxyType({})


class AnalyzedQuery(NamedTuple):
    """Output of the analysis stage: reuse key plus partition list.

    Attributes:
        query: The analyzed star query.
        groupby: Condition 1 — level of aggregation.
        aggregates: Condition 2 — the aggregate list.
        fixed_predicates: Condition 3 — non-group-by predicate tags.
        shape: Conditions 1–3 interned as one
            :class:`~repro.core.chunk.ChunkShape`; a partition's cache
            key is ``shape.key(number)``.
        partitions: The units the query splits into, in assembly order
            (chunk numbers for chunk caching; ``(0,)`` for whole-query
            caching).
        meta: Free-form analyzer annotations consumed by later stages
            (e.g. the query-caching analyzer stashes the estimated full
            cost here so resolver and accountant price admission and
            savings consistently).
        cut: Positions of the dimensions on which the selection ends
            inside a partition — the only ones assembly has to compare
            rows against (:meth:`repro.chunks.grid.ChunkGrid.cut_dimensions`).
            None, from an analyzer that does not know, means every
            selected dimension.
    """

    query: StarQuery
    groupby: GroupBy
    aggregates: tuple[tuple[str, str], ...]
    fixed_predicates: frozenset[str]
    shape: ChunkShape
    partitions: tuple[int, ...]
    meta: Mapping[str, Any] = _EMPTY
    cut: tuple[int, ...] | None = None

    @classmethod
    def from_query(
        cls,
        query: StarQuery,
        partitions: tuple[int, ...],
        cut: tuple[int, ...] | None = None,
        **meta: Any,
    ) -> "AnalyzedQuery":
        """Build from a query, lifting (and interning) the key components."""
        groupby = query.groupby
        aggregates = query.aggregates
        fixed_predicates = query.fixed_predicates
        return cls(
            query,
            groupby,
            aggregates,
            fixed_predicates,
            ChunkShape(groupby, aggregates, fixed_predicates),
            tuple(partitions),
            meta,
            cut,
        )


class ResolvedPart(NamedTuple):
    """One partition's rows, attributed to the resolver that produced it.

    Attributes:
        number: The partition (chunk number).
        rows: The partition's result rows.
        resolver: Name of the resolver that produced the rows.
        tuples_from_cache: Cache-resident tuples consumed to produce the
            rows (the cached rows themselves for a hit; the source tuples
            merged for a derivation) — priced by
            :attr:`repro.analysis.cost.CostModel.cache_tuple_cost`.
        saved: Whether this partition's full recomputation cost counts as
            *saved* in CSR accounting (true for cache hits and in-cache
            derivations; false when the backend did the work).
    """

    number: int
    rows: np.ndarray
    resolver: str
    tuples_from_cache: int = 0
    saved: bool = False


class ResolverOutcome(NamedTuple):
    """What one resolver returned for the partitions it was offered.

    Attributes:
        parts: Partition -> resolved part, for the subset it resolved
            (by default an empty read-only mapping).
        report: Physical work the resolver performed at the backend
            (None for purely in-tier resolvers).
    """

    parts: Mapping[int, ResolvedPart] = _EMPTY
    report: CostReport | None = None


class Resolution:
    """Accumulated output of the whole resolver chain.

    The one mutable object in the stage flow: the executor folds every
    :class:`ResolverOutcome` into it as the chain runs, so it is a plain
    accumulator class, not a (frozen) pipeline value (R003).

    Attributes:
        parts: Every partition's resolved part.
        report: Merged physical-work report across all resolvers.
    """

    __slots__ = ("parts", "report")

    def __init__(
        self,
        parts: dict[int, ResolvedPart] | None = None,
        report: CostReport | None = None,
    ) -> None:
        self.parts: dict[int, ResolvedPart] = (
            {} if parts is None else dict(parts)
        )
        self.report: CostReport = (
            report if report is not None else CostReport(access_path="chunk")
        )

    def absorb(self, outcome: ResolverOutcome) -> None:
        """Fold one resolver's outcome into the accumulated state."""
        self.parts.update(outcome.parts)
        if outcome.report is not None:
            self.report = self.report + outcome.report


class ChunkPlan(NamedTuple):
    """Partition classification: who served what.

    Attributes:
        present: Partitions served directly from the cache.
        derived: Partitions derived in-tier by aggregating cached data.
        missing: Partitions the backend (or prefetch) had to compute.
    """

    present: tuple[int, ...]
    derived: tuple[int, ...]
    missing: tuple[int, ...]

    @classmethod
    def from_resolution(
        cls, analyzed: AnalyzedQuery, resolution: Resolution
    ) -> "ChunkPlan":
        """Classify partitions by the resolver that produced them.

        By convention the direct-lookup resolver is named ``"cache"`` and
        the in-tier aggregation resolver ``"derive"``; everything else
        counts as a miss that physical work had to fill.
        """
        present: list[int] = []
        derived: list[int] = []
        missing: list[int] = []
        parts = resolution.parts
        for number in analyzed.partitions:
            part = parts.get(number)
            resolver = None if part is None else part.resolver
            if resolver == "cache":
                present.append(number)
            elif resolver == "derive":
                derived.append(number)
            else:
                missing.append(number)
        return cls(tuple(present), tuple(derived), tuple(missing))


def select_exact(
    schema: StarSchema,
    query: StarQuery,
    rows: np.ndarray,
    copy_on_full: bool = False,
    cut: Sequence[int] | None = None,
) -> np.ndarray:
    """Trim rows to the query's exact group-by selections.

    Chunks (and containing cached queries) are a bounding envelope of the
    selection (Section 5.2.3); this drops the boundary rows outside it.
    With ``copy_on_full`` the rows are copied even when nothing is
    trimmed, so cached payloads are never handed out by reference.
    ``cut`` (:attr:`AnalyzedQuery.cut`) names the only dimensions that
    can hold such rows; without it every selected dimension is compared.
    """
    if len(rows) == 0:
        return rows
    if cut is None:
        cut = range(len(query.selections))
    mask: np.ndarray | None = None
    for position in cut:
        interval = query.selections[position]
        if interval is None or query.groupby[position] == 0:
            continue
        column = rows[schema.dimensions[position].name]
        inside = (column >= interval[0]) & (column < interval[1])
        if mask is None:
            mask = inside
        else:
            mask &= inside
    if mask is None or np.count_nonzero(mask) == len(rows):
        return rows.copy() if copy_on_full else rows
    # Same rows as ``rows[mask]``; boolean indexing goes field by field
    # on a structured array and costs several times as much.
    return rows.compress(mask)
