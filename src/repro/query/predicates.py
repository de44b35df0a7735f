"""Predicate algebra over ordinal intervals.

Selections on group-by dimensions are range or point predicates (Section
5.2.2).  After the domain index converts member values to ordinals, every
selection is a half-open interval ``[lo, hi)`` over a dimension level's
ordinals, with ``None`` meaning "no restriction" (the full domain).

A query's full selection is one such optional interval per dimension.  This
module provides the interval and selection operations the cache layers
need: intersection, containment and cardinality.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import QueryError

__all__ = [
    "Interval",
    "Selection",
    "normalize_interval",
    "interval_intersect",
    "interval_contains",
    "interval_length",
    "selection_contains",
    "selection_cardinality",
]

#: A half-open ordinal interval, or None for "the whole domain".
Interval = tuple[int, int] | None

#: One optional interval per dimension.
Selection = tuple[Interval, ...]


def normalize_interval(interval: Interval, domain_size: int) -> Interval:
    """Clamp an interval to ``[0, domain_size)``; full coverage becomes None.

    Raises:
        QueryError: If the interval is malformed or entirely outside the
            domain.
    """
    if interval is None:
        return None
    lo, hi = interval
    if hi <= lo:
        raise QueryError(f"empty interval [{lo}, {hi})")
    lo, hi = max(lo, 0), min(hi, domain_size)
    if hi <= lo:
        raise QueryError(
            f"interval [{interval[0]}, {interval[1]}) lies outside the "
            f"domain of size {domain_size}"
        )
    if (lo, hi) == (0, domain_size):
        return None
    return (lo, hi)


def interval_intersect(a: Interval, b: Interval) -> Interval | str:
    """Intersection of two intervals; ``"empty"`` when disjoint.

    ``None`` (full domain) is the identity.  The sentinel string is used
    instead of ``None`` because ``None`` already means "everything".
    """
    if a is None:
        return b
    if b is None:
        return a
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if hi <= lo:
        return "empty"
    return (lo, hi)


def interval_contains(outer: Interval, inner: Interval) -> bool:
    """Whether ``outer`` covers every ordinal of ``inner``.

    ``None`` as outer covers everything; ``None`` as inner is only covered
    by ``None`` (callers normalize full-domain intervals to None first, so
    a concrete outer interval never needs to cover a full domain).
    """
    if outer is None:
        return True
    if inner is None:
        return False
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def interval_length(interval: Interval, domain_size: int) -> int:
    """Number of ordinals an interval selects within a domain."""
    if interval is None:
        return domain_size
    return interval[1] - interval[0]


def selection_contains(outer: Selection, inner: Selection) -> bool:
    """Whether ``outer`` covers ``inner`` on every dimension."""
    if len(outer) != len(inner):
        raise QueryError(
            f"selection arity mismatch: {len(outer)} vs {len(inner)}"
        )
    return all(interval_contains(o, i) for o, i in zip(outer, inner))


def selection_cardinality(
    selection: Selection, domain_sizes: Sequence[int]
) -> int:
    """Number of cells a selection covers (product of interval lengths)."""
    if len(selection) != len(domain_sizes):
        raise QueryError(
            f"selection arity {len(selection)} vs "
            f"{len(domain_sizes)} domains"
        )
    result = 1
    for interval, size in zip(selection, domain_sizes):
        result *= interval_length(interval, size)
    return result
