"""The unified answerer protocol both caching schemes implement.

Anything that answers star queries against a cache — the chunk scheme,
the query-caching baseline, or a future scheme — satisfies
:class:`QueryAnswerer`.  The experiment harness is typed against this
protocol, so streams, figures, and verification runs are agnostic to
*which* scheme is underneath.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.query.model import StarQuery
from repro.schema.star import StarSchema

if TYPE_CHECKING:  # avoid the runtime cycle pipeline -> core.manager
    from repro.backend.engine import BackendEngine
    from repro.core.manager import Answer
    from repro.core.metrics import StreamMetrics

__all__ = ["QueryAnswerer"]


@runtime_checkable
class QueryAnswerer(Protocol):
    """What the harness requires of a caching scheme.

    Attributes:
        schema: The star schema queries are posed against.
        backend: The ground-truth engine underneath the cache (the
            harness verifies answers against it).
        metrics: Accumulated per-query accounting for the stream so far.
    """

    schema: StarSchema
    backend: "BackendEngine"
    metrics: "StreamMetrics"

    def answer(self, query: StarQuery) -> "Answer":
        """Answer one query, updating the cache and stream metrics."""
        ...

    def invalidate_base_chunks(self, base_numbers: list[int]) -> int:
        """Drop cached state covering updated base data."""
        ...
