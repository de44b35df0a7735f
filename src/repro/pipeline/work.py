"""Batched, memoized per-chunk recomputation-cost estimation.

Benefit weighting and CSR accounting both need, for every chunk a query
touches, the backend work (data pages, source tuples) that recomputing
the chunk would cost.  The estimates are exact and immutable while the
stored data is unchanged, so they are memoized; all chunks a query needs
that are not yet memoized are fetched in **one** batched backend call
(:meth:`repro.backend.engine.BackendEngine.estimate_chunk_work_batch`)
instead of one probe per chunk — a measurable win on miss-heavy streams,
where the old per-chunk probes re-resolved the source table and
re-validated the group-by once per chunk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Mapping

from repro.backend.engine import BackendEngine
from repro.schema.star import GroupBy

if TYPE_CHECKING:
    from repro.analysis.cost import CostModel
    from repro.query.model import StarQuery

__all__ = ["ChunkWorkEstimator", "estimate_query_full_cost"]


def estimate_query_full_cost(
    backend: BackendEngine,
    cost_model: "CostModel",
    query: "StarQuery",
) -> float:
    """Modelled cost of computing ``query`` at the backend, cache-cold.

    Prices the query through the chunk interface when the engine stores
    chunked data (the work of every chunk the selection touches), else
    through the bitmap access path.  This is the whole-query analogue of
    :class:`ChunkWorkEstimator` and, like it, the only sanctioned home
    for estimator entry-point calls outside the backend itself (R001).
    """
    if backend.chunked_file is not None:
        grid = backend.space.grid(query.groupby)
        numbers = grid.chunk_numbers_for_selection(query.selections)
        pages, tuples = backend.estimate_chunk_work(query.groupby, numbers)
        return cost_model.backend_time(pages, tuples)
    pages = backend.estimate_bitmap_pages(query)
    return cost_model.backend_time(pages)


class ChunkWorkEstimator:
    """Memoized facade over the backend's batched chunk-work estimator.

    Args:
        backend: The engine whose stored data the estimates describe.
    """

    def __init__(self, backend: BackendEngine) -> None:
        self._backend = backend
        self._memo: dict[GroupBy, dict[int, tuple[int, int]]] = {}

    def ensure(
        self, groupby: GroupBy, numbers: Collection[int]
    ) -> Mapping[int, tuple[int, int]]:
        """Memoize work for the given chunks; at most one backend call.

        Returns the group-by's memo, ``{number: (pages, tuples)}``: it
        holds every requested chunk (and whatever else of that group-by
        was asked for before), so index it, do not iterate it.
        """
        memo = self._memo.get(groupby)
        if memo is None:
            memo = self._memo[groupby] = {}
        missing = [number for number in numbers if number not in memo]
        if missing:
            memo.update(
                self._backend.estimate_chunk_work_batch(groupby, missing)
            )
        return memo

    def work(self, groupby: GroupBy, number: int) -> tuple[int, int]:
        """``(pages, tuples)`` for one chunk (memoized)."""
        return self.ensure(groupby, [number])[number]

    def clear(self) -> None:
        """Drop all memoized estimates (after base-table updates)."""
        self._memo.clear()

    def __len__(self) -> int:
        return sum(len(memo) for memo in self._memo.values())
