"""Staged query-execution pipeline shared by both caching schemes.

The package models the paper's Section 5.2 pipeline as explicit stages
(:mod:`~repro.pipeline.stages`), a composable resolver chain
(:mod:`~repro.pipeline.resolvers`), an executor that wires them together
(:mod:`~repro.pipeline.executor`), per-stage instrumentation
(:mod:`~repro.pipeline.trace`), batched work estimation
(:mod:`~repro.pipeline.work`), and the :class:`QueryAnswerer` protocol
the experiment harness is typed against
(:mod:`~repro.pipeline.protocol`).

Import discipline: this package may import ``repro.core.cache``,
``repro.core.chunk`` and ``repro.core.metrics`` but never
``repro.core.manager`` (the managers import *us*).
"""

from repro.pipeline.executor import (
    CostAccountant,
    PipelineResult,
    QueryAnalyzer,
    ResultAssembler,
    StagedPipeline,
)
from repro.pipeline.flight import (
    ChunkFlight,
    FlightResolver,
    FlightTable,
    clone_fault,
)
from repro.pipeline.protocol import QueryAnswerer
from repro.pipeline.resolvers import (
    DERIVABLE_AGGREGATES,
    BackendChunkResolver,
    CacheHitResolver,
    ChunkAdmitter,
    DerivationResolver,
    PartitionResolver,
    PrefetchResolver,
)
from repro.pipeline.stages import (
    AnalyzedQuery,
    ChunkPlan,
    ResolvedPart,
    Resolution,
    ResolverOutcome,
    select_exact,
)
from repro.pipeline.trace import (
    ExecutionTrace,
    StageTrace,
)
from repro.pipeline.work import ChunkWorkEstimator

__all__ = [
    "AnalyzedQuery",
    "ResolvedPart",
    "ResolverOutcome",
    "Resolution",
    "ChunkPlan",
    "select_exact",
    "ExecutionTrace",
    "StageTrace",
    "ChunkWorkEstimator",
    "DERIVABLE_AGGREGATES",
    "PartitionResolver",
    "ChunkAdmitter",
    "CacheHitResolver",
    "DerivationResolver",
    "PrefetchResolver",
    "BackendChunkResolver",
    "ChunkFlight",
    "FlightTable",
    "FlightResolver",
    "clone_fault",
    "QueryAnalyzer",
    "ResultAssembler",
    "CostAccountant",
    "PipelineResult",
    "StagedPipeline",
    "QueryAnswerer",
]
