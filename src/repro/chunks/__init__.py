"""Chunk geometry: hierarchy-aware ranges, grids and the closure property.

This package is the dimensional arithmetic of the paper — it knows nothing
about storage or caching, which lets both the storage layer (the chunked
file) and the middle tier (the chunk cache) build on one shared geometry.
"""

from repro.chunks.closure import (
    source_chunk_numbers,
    source_spans,
)
from repro.chunks.grid import ChunkGrid, ChunkSpace
from repro.chunks.ranges import (
    ChunkRange,
    DimensionChunking,
    create_chunk_ranges,
    desired_sizes_for_ratio,
    uniform_division,
)

__all__ = [
    "ChunkRange",
    "uniform_division",
    "create_chunk_ranges",
    "desired_sizes_for_ratio",
    "DimensionChunking",
    "ChunkGrid",
    "ChunkSpace",
    "source_spans",
    "source_chunk_numbers",
]
