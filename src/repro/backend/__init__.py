"""The simulated relational backend engine and its operators."""

from repro.backend.aggregate import LevelMapper, aggregate_records, reaggregate
from repro.backend.engine import BackendEngine
from repro.backend.plans import CostReport, measure_cost
from repro.backend.sql import parse_query

__all__ = [
    "LevelMapper",
    "aggregate_records",
    "reaggregate",
    "BackendEngine",
    "CostReport",
    "measure_cost",
    "parse_query",
]
