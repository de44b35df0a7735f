"""Analytical models from Section 4.2 of the paper.

The paper explains the bitmap speedup of chunked files with a classic
occupancy result [Feller 1957]: drawing ``r`` elements uniformly at random
from ``k`` yields ``f(r, k) = k - k(1 - 1/k)^r`` distinct elements in
expectation.  For a randomly ordered file the qualifying tuples of a
selection land on ``f(n, P)`` of the ``P`` data pages, while a chunked file
confines them to the ~``sqrt(P)`` pages of the chunks that intersect the
selection.

These closed forms are used two ways: as estimates inside the cost
accounting, and as the analytic curves the ``feller`` benchmark compares
against measured page counts.
"""

from __future__ import annotations

import math

from repro.exceptions import ExperimentError

__all__ = [
    "expected_distinct",
    "expected_pages_random",
    "expected_pages_chunked",
]


def expected_distinct(r: float, k: float) -> float:
    """Feller's occupancy formula ``f(r, k) = k - k(1 - 1/k)^r``.

    Expected number of distinct values when drawing ``r`` times uniformly
    with replacement from ``k`` values.  Satisfies ``f <= min(r, k)``,
    ``f ~= r`` for ``r << k`` and ``f ~= k`` for ``r >> k``.
    """
    if k <= 0:
        raise ExperimentError(f"k must be positive, got {k}")
    if r < 0:
        raise ExperimentError(f"r must be non-negative, got {r}")
    if r == 0:
        return 0.0
    if k == 1:
        return 1.0
    return k - k * (1.0 - 1.0 / k) ** r


def expected_pages_random(qualifying_tuples: float, total_pages: float) -> float:
    """Expected data pages touched on a randomly ordered file.

    The paper's ``p = f(n, P)``: each qualifying tuple lands on a page
    chosen effectively at random.
    """
    return expected_distinct(qualifying_tuples, total_pages)


def expected_pages_chunked(
    qualifying_tuples: float,
    total_pages: float,
    selected_chunks: float | None = None,
    pages_per_chunk: float = 1.0,
) -> float:
    """Expected data pages touched on a chunked file.

    The paper's simplified analysis assumes one page per chunk and a point
    selection on one of two dimensions, confining qualifying tuples to
    ``sqrt(P)`` chunks: ``p_c = f(n, sqrt(P))``.  The general form caps the
    candidate page set at ``selected_chunks * pages_per_chunk`` when the
    caller knows the selection's chunk footprint.
    """
    if selected_chunks is None:
        candidate_pages = math.sqrt(total_pages)
    else:
        candidate_pages = min(total_pages, selected_chunks * pages_per_chunk)
    if candidate_pages <= 0:
        return 0.0
    return expected_distinct(qualifying_tuples, candidate_pages)

