"""Cache entries: cached chunks and cached query results.

A cached chunk is one cell of a group-by's chunk grid holding its
aggregated result rows.  Its identity (:class:`ChunkKey`) includes the
group-by, the aggregate list and the non-group-by predicate tags, because
results are only reusable when all three match (Section 5.2.1); only the
group-by *selections* may differ between the producing and consuming
queries.

Those three components are one :class:`ChunkShape`, interned: the
process holds one shape object per distinct triple, so a key is the
pair ``(shape, number)`` and hashes and compares as a tuple, in C.

The same module defines :class:`CachedQuery`, the entry type of the
query-level caching baseline.  Both entry types carry what a
:class:`~repro.core.cache.ChunkCache` reads (key, size, benefit), so
both cache managers keep their entries in one.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.schema.star import GroupBy

if TYPE_CHECKING:
    from repro.query.model import QueryKey, StarQuery

__all__ = [
    "ChunkShape",
    "ChunkKey",
    "CachedChunk",
    "CachedQuery",
    "entry_size_bytes",
]

#: Fixed per-entry bookkeeping overhead charged against the cache budget.
ENTRY_OVERHEAD_BYTES = 64

Aggregates = tuple[tuple[str, str], ...]

_new_tuple = tuple.__new__


class ChunkShape:
    """Conditions 1–3 of a chunk's identity: everything but its number.

    ``ChunkShape(groupby, aggregates, fixed_predicates)`` returns the
    process's one shape with those components, creating it on first
    use.  Two shapes are therefore equal exactly when they are the same
    object: ``==`` and ``hash`` are the identity ones, and unpickling
    interns again.  A shape is immutable.

    It also carries what the stores derive from the components, once
    per shape instead of once per key: the CRC-32 around the number in
    :func:`repro.serve.sharded.stable_key_hash` and the text around the
    number in :func:`repro.core.tiered.chunk_token`.

    Attributes:
        groupby: Level of aggregation.
        aggregates: Aggregate list the rows are computed under.
        fixed_predicates: Non-group-by predicate tags folded into the rows.
        crc_prefix: CRC-32 of the canonical rendering up to the number.
        crc_suffix: The canonical rendering's bytes after the number.
        token_prefix: A chunk token's text up to the number.
        token_suffix: A chunk token's text after the number.
    """

    __slots__ = (
        "groupby", "aggregates", "fixed_predicates", "crc_prefix",
        "crc_suffix", "token_prefix", "token_suffix",
    )

    groupby: GroupBy
    aggregates: Aggregates
    fixed_predicates: frozenset[str]
    crc_prefix: int
    crc_suffix: bytes
    token_prefix: str
    token_suffix: str

    def __new__(
        cls,
        groupby: GroupBy,
        aggregates: Aggregates,
        fixed_predicates: frozenset[str] = frozenset(),
    ) -> "ChunkShape":
        parts = (groupby, aggregates, fixed_predicates)
        shape = _SHAPES.get(parts)
        if shape is not None:
            return shape
        predicates = sorted(fixed_predicates)
        compact = (",", ":")
        fields = {
            "groupby": groupby,
            "aggregates": aggregates,
            "fixed_predicates": fixed_predicates,
            "crc_prefix": zlib.crc32(
                f"({tuple(groupby)!r}, ".encode("utf-8")
            ),
            "crc_suffix": (
                f", {aggregates!r}, {tuple(predicates)!r})".encode("utf-8")
            ),
            "token_prefix": (
                '{"a":'
                + json.dumps([list(p) for p in aggregates], separators=compact)
                + ',"g":'
                + json.dumps(list(groupby), separators=compact)
                + ',"n":'
            ),
            "token_suffix": (
                ',"p":' + json.dumps(predicates, separators=compact) + "}"
            ),
        }
        shape = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(shape, name, value)
        # Two threads interning one new shape both get the first stored.
        return _SHAPES.setdefault(parts, shape)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a ChunkShape is immutable (set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"a ChunkShape is immutable (del {name!r})")

    def __reduce__(self) -> tuple[type["ChunkShape"], tuple[Any, ...]]:
        return (
            ChunkShape, (self.groupby, self.aggregates, self.fixed_predicates)
        )

    def __repr__(self) -> str:
        return (
            f"ChunkShape(groupby={self.groupby!r}, "
            f"aggregates={self.aggregates!r}, "
            f"fixed_predicates={self.fixed_predicates!r})"
        )

    def key(self, number: int) -> "ChunkKey":
        """The key of chunk ``number`` of this shape (no interning)."""
        return _new_tuple(ChunkKey, (self, number))


#: Every shape of the process, by its components.
_SHAPES: dict[tuple[GroupBy, Aggregates, frozenset[str]], ChunkShape] = {}


class ChunkKey(tuple[ChunkShape, int]):
    """Identity of one cached chunk: the tuple ``(shape, number)``.

    ``ChunkKey(groupby, number, aggregates, fixed_predicates)`` interns
    the shape; :meth:`ChunkShape.key` builds a key of a shape in hand.
    Hash and equality are the tuple's, computed in C, so a key also
    equals the plain tuple ``(shape, number)``.  Nothing orders keys:
    two keys of one shape compare by number, two of different shapes
    do not compare at all.

    Attributes:
        shape: The interned conditions 1–3.
        number: Chunk number within the group-by's grid.
        groupby: Level of aggregation of the chunk.
        aggregates: Aggregate list the rows were computed under.
        fixed_predicates: Non-group-by predicate tags folded into the rows.
    """

    __slots__ = ()

    def __new__(
        cls,
        groupby: GroupBy,
        number: int,
        aggregates: Aggregates,
        fixed_predicates: frozenset[str] = frozenset(),
    ) -> "ChunkKey":
        shape = ChunkShape(groupby, aggregates, fixed_predicates)
        return _new_tuple(cls, (shape, number))

    @property
    def shape(self) -> ChunkShape:
        return self[0]

    @property
    def number(self) -> int:
        return self[1]

    @property
    def groupby(self) -> GroupBy:
        return self[0].groupby

    @property
    def aggregates(self) -> Aggregates:
        return self[0].aggregates

    @property
    def fixed_predicates(self) -> frozenset[str]:
        return self[0].fixed_predicates

    def __reduce__(self) -> tuple[type["ChunkKey"], tuple[Any, ...]]:
        shape, number = self
        return (
            ChunkKey,
            (shape.groupby, number, shape.aggregates, shape.fixed_predicates),
        )

    def __repr__(self) -> str:
        shape, number = self
        return (
            f"ChunkKey(groupby={shape.groupby!r}, number={number!r}, "
            f"aggregates={shape.aggregates!r}, "
            f"fixed_predicates={shape.fixed_predicates!r})"
        )


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
    def key(self) -> "QueryKey":
        """The entry's identity: the query's exact key."""
        return self.query.exact_key()

    @property
    def size_bytes(self) -> int:
        """Budgeted size of this entry."""
        return entry_size_bytes(self.rows)

    @property
    def num_rows(self) -> int:
        """Result rows stored for the query."""
        return len(self.rows)
