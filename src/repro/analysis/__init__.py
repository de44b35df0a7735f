"""Analytical models: the simulated cost model and Feller occupancy math."""

from repro.analysis.cost import CostModel
from repro.analysis.probability import (
    expected_distinct,
    expected_pages_chunked,
    expected_pages_random,
)

__all__ = [
    "CostModel",
    "expected_distinct",
    "expected_pages_random",
    "expected_pages_chunked",
]
