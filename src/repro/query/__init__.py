"""Star-join query model, predicate algebra and containment."""

from repro.query.containment import compatible, query_contains
from repro.query.model import StarQuery
from repro.query.predicates import (
    Interval,
    Selection,
    interval_contains,
    interval_intersect,
    interval_length,
    normalize_interval,
    selection_cardinality,
    selection_contains,
)

__all__ = [
    "StarQuery",
    "Interval",
    "Selection",
    "normalize_interval",
    "interval_intersect",
    "interval_contains",
    "interval_length",
    "selection_contains",
    "selection_cardinality",
    "query_contains",
    "compatible",
]
