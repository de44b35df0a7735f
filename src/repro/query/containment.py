"""Query containment — the reuse test of query-level caching.

The baseline the paper compares against (Section 6.1.4) caches whole query
results and can answer a new query from the cache only when it is
*contained* in a cached query.  For the star-join template, containment of
``inner`` in ``outer`` requires:

1. same level of aggregation (aggregation stays in the backend, so cached
   results at other levels are not reusable — Section 5.2.1 condition 1);
2. the aggregate list of ``inner`` is a subset of ``outer``'s (condition 2,
   the "project list" condition);
3. identical non-group-by selections (condition 3); and
4. ``outer``'s group-by selections cover ``inner``'s on every dimension.
"""

from __future__ import annotations

from repro.query.model import StarQuery
from repro.query.predicates import selection_contains

__all__ = ["query_contains", "compatible"]


def compatible(a: StarQuery, b: StarQuery) -> bool:
    """Whether two queries could share cached data at all.

    Same group-by and identical non-group-by predicates; the aggregate
    lists must be comparable (one a subset of the other is checked by the
    callers that care about direction).
    """
    return (
        a.groupby == b.groupby
        and a.fixed_predicates == b.fixed_predicates
    )


def query_contains(outer: StarQuery, inner: StarQuery) -> bool:
    """Whether ``inner`` can be answered entirely from ``outer``'s result."""
    if not compatible(outer, inner):
        return False
    if not set(inner.aggregates) <= set(outer.aggregates):
        return False
    return selection_contains(outer.selections, inner.selections)

