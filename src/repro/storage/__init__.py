"""Simulated relational storage engine (the paper's PARADISE substitute).

Page-addressed disk with exact I/O accounting, buffer pool, fact files,
B+-tree chunk index, bitmap indexes, and the paper's chunked file
organization.  See DESIGN.md §2 for the substitution rationale.
"""

from repro.storage.bitmap import BitmapIndex, combine_and
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool, BufferPoolStats
from repro.storage.chunkedfile import ChunkedFile, tuple_chunk_numbers
from repro.storage.chunklog import CHUNKLOG_MAGIC, CHUNKLOG_VERSION, ChunkLog
from repro.storage.disk import DiskStats, SimulatedDisk
from repro.storage.factfile import FactFile
from repro.storage.record import (
    RecordFormat,
    fact_record_format,
    groupby_record_format,
)

__all__ = [
    "SimulatedDisk",
    "DiskStats",
    "BufferPool",
    "BufferPoolStats",
    "RecordFormat",
    "fact_record_format",
    "groupby_record_format",
    "FactFile",
    "BTree",
    "BitmapIndex",
    "combine_and",
    "ChunkedFile",
    "tuple_chunk_numbers",
    "ChunkLog",
    "CHUNKLOG_MAGIC",
    "CHUNKLOG_VERSION",
]
