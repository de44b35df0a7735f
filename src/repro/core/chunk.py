"""Cache entries: cached chunks and cached query results.

A cached chunk is one cell of a group-by's chunk grid holding its
aggregated result rows.  Its identity (:class:`ChunkKey`) includes the
group-by, the aggregate list and the non-group-by predicate tags, because
results are only reusable when all three match (Section 5.2.1); only the
group-by *selections* may differ between the producing and consuming
queries.

The same module defines :class:`CachedQuery`, the entry type of the
query-level caching baseline, so both cache managers share the accounting
fields (size, benefit) the replacement policies consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.schema.star import GroupBy

if TYPE_CHECKING:
    from repro.query.model import StarQuery

__all__ = ["ChunkKey", "CachedChunk", "CachedQuery", "entry_size_bytes"]

#: Fixed per-entry bookkeeping overhead charged against the cache budget.
ENTRY_OVERHEAD_BYTES = 64


@dataclass(frozen=True)
class ChunkKey:
    """Identity of one cached chunk.

    Attributes:
        groupby: Level of aggregation of the chunk.
        number: Chunk number within that group-by's grid.
        aggregates: Aggregate list the rows were computed under.
        fixed_predicates: Non-group-by predicate tags folded into the rows.
    """

    groupby: GroupBy
    number: int
    aggregates: tuple[tuple[str, str], ...]
    fixed_predicates: frozenset[str] = frozenset()

    def compatible_key(self) -> tuple[object, ...]:
        """The shape part of the key (everything but the chunk number)."""
        return (self.groupby, self.aggregates, self.fixed_predicates)


def entry_size_bytes(rows: np.ndarray) -> int:
    """Bytes an entry is charged for: payload plus fixed overhead.

    Empty chunks still occupy ``ENTRY_OVERHEAD_BYTES`` — caching the fact
    that a chunk is empty is itself valuable information.
    """
    return int(rows.nbytes) + ENTRY_OVERHEAD_BYTES


@dataclass
class CachedChunk:
    """One chunk resident in the chunk cache.

    Attributes:
        key: The chunk's identity.
        rows: Aggregated result rows covering the whole chunk region.
        benefit: Replacement weight — the fraction of the base table the
            chunk represents (Section 5.4), i.e. proportional to its
            recomputation cost.
        compute_pages: Estimated backend data pages to recompute this chunk
            (used in cost-saving accounting).

    A ``CachedChunk``'s rows are immutable once admitted to a store:
    readers trim and concatenate into arrays of their own, never write
    through ``rows``.  A chunk promoted from L2 enforces it — its rows
    are a read-only view of the verified log record
    (:func:`repro.core.tiered.decode_chunk`).
    """

    key: ChunkKey
    rows: np.ndarray
    benefit: float
    compute_pages: float = 0.0

    @property
    def size_bytes(self) -> int:
        """Budgeted size of this entry."""
        return entry_size_bytes(self.rows)

    @property
    def num_rows(self) -> int:
        """Result rows stored in the chunk."""
        return len(self.rows)


@dataclass
class CachedQuery:
    """One whole query result resident in the query-level cache.

    Attributes:
        query: The cached query (used for containment tests).
        rows: Its complete result rows.
        benefit: Replacement weight — the estimated cost of recomputing
            the query at the backend (the [SSV]-style profit metric).
    """

    query: "StarQuery"
    rows: np.ndarray
    benefit: float

    @property
    def size_bytes(self) -> int:
        """Budgeted size of this entry."""
        return entry_size_bytes(self.rows)

    @property
    def num_rows(self) -> int:
        """Result rows stored for the query."""
        return len(self.rows)
