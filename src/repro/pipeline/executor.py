"""The staged pipeline executor.

:class:`StagedPipeline` wires the four stage roles together and walks
them for every query:

    analyze  →  resolve (chain)  →  assemble  →  account

Stage objects are small single-purpose callables supplied by the cache
managers (see :mod:`repro.core.manager` and
:mod:`repro.core.query_cache`); the executor owns only the control flow,
the chain bookkeeping (what is still outstanding, who resolved what) and
the per-stage instrumentation.  Both caching schemes execute through this
one code path — the chunk scheme with many partitions and a four-link
chain, the query-caching baseline with a single whole-result partition
and a two-link chain.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from repro import invariants
from repro.analysis.cost import CostModel
from repro.core.metrics import QueryRecord
from repro.exceptions import PipelineError
from repro.pipeline.resolvers import PartitionResolver
from repro.pipeline.stages import (
    AnalyzedQuery,
    ChunkPlan,
    Resolution,
)
from repro.pipeline.trace import (
    ExecutionTrace,
    StageTrace,
    blocked_clock,
)
from repro.query.model import StarQuery

__all__ = [
    "QueryAnalyzer",
    "ResultAssembler",
    "CostAccountant",
    "PipelineResult",
    "StagedPipeline",
]


class QueryAnalyzer(Protocol):
    """Stage 1: lift the reuse key and partition the query."""

    def analyze(self, query: StarQuery) -> AnalyzedQuery: ...


class ResultAssembler(Protocol):
    """Stage 3: concatenate resolved parts and trim boundary rows."""

    def assemble(
        self, analyzed: AnalyzedQuery, resolution: Resolution
    ) -> np.ndarray: ...


class CostAccountant(Protocol):
    """Stage 4: price the answer (modelled time, CSR numerators)."""

    def account(
        self,
        analyzed: AnalyzedQuery,
        resolution: Resolution,
        plan: ChunkPlan,
        result_rows: int,
    ) -> QueryRecord: ...


class PipelineResult(NamedTuple):
    """Everything one pipeline execution produced.

    Attributes:
        rows: The exact result rows.
        record: The accounting record for stream metrics.
        trace: Per-stage instrumentation of this execution.
        analyzed: The analysis-stage output.
        plan: Partition classification (present / derived / missing).
        resolution: The full resolver-chain output.
    """

    rows: np.ndarray
    record: QueryRecord
    trace: ExecutionTrace
    analyzed: AnalyzedQuery
    plan: ChunkPlan
    resolution: Resolution


class StagedPipeline:
    """Executes queries through analyze → resolve → assemble → account.

    Args:
        analyzer: The analysis stage.
        resolvers: The resolver chain, tried in order; each link is
            offered only the partitions its predecessors left
            outstanding.  The final link must be total (resolve
            everything offered) or execution raises.
        assembler: The assembly stage.
        accountant: The accounting stage.
        cost_model: Used to attribute modelled time to resolver stages
            that performed physical work (trace detail only; the
            accountant owns the answer's total time).
    """

    def __init__(
        self,
        analyzer: QueryAnalyzer,
        resolvers: Sequence[PartitionResolver],
        assembler: ResultAssembler,
        accountant: CostAccountant,
        cost_model: CostModel | None = None,
    ) -> None:
        if not resolvers:
            raise PipelineError("resolver chain is empty")
        self.analyzer = analyzer
        self.resolvers = tuple(resolvers)
        self.assembler = assembler
        self.accountant = accountant
        self.cost_model = cost_model or CostModel()

    def execute(self, query: StarQuery) -> PipelineResult:
        """Run one query through all stages.

        Straight-line: a clock mark before and after each stage gives
        that stage's :class:`~repro.pipeline.trace.StageTrace`; the
        chain bookkeeping narrows one outstanding sequence; one pass
        over the partitions classifies them.  The four stage attributes
        are read here, at call time, so a stage swapped in after
        construction (a wrapper, a test double) is the one that runs.
        """
        clock = time.perf_counter
        blocked = blocked_clock
        stages: list[StageTrace] = []
        # A fresh query must not inherit lock waits a previous query on
        # this thread left unattributed.
        blocked.seconds = 0.0

        start = clock()
        analyzed = self.analyzer.analyze(query)
        end = clock()
        partitions = analyzed.partitions
        total = len(partitions)
        stages.append(
            StageTrace("analyze", end - start, 0.0, total, 0, 0,
                       blocked.seconds)
        )

        resolution = Resolution()
        resolved_by: dict[str, int] = {}
        outstanding: Sequence[int] = partitions
        for resolver in self.resolvers:
            if not outstanding:
                break
            name = resolver.name
            blocked.seconds = 0.0
            start = clock()
            outcome = resolver.resolve(analyzed, outstanding)
            parts = outcome.parts
            resolved = len(parts)
            if resolved:
                left = [n for n in outstanding if n not in parts]
                if len(left) + resolved != len(outstanding):
                    unknown = set(parts) - set(outstanding)
                    if unknown:
                        raise PipelineError(
                            f"resolver {name!r} returned partitions "
                            f"it was not offered: {sorted(unknown)}"
                        )
                outstanding = tuple(left)
            resolution.absorb(outcome)
            report = outcome.report
            if report is None:
                stages.append(
                    StageTrace(f"resolve:{name}", clock() - start, 0.0,
                               resolved, 0, 0, blocked.seconds)
                )
            else:
                modelled = self.cost_model.time(report)
                stages.append(
                    StageTrace(f"resolve:{name}", clock() - start, modelled,
                               resolved, report.pages_read,
                               report.tuples_scanned, blocked.seconds,
                               report.faults, report.retries,
                               report.degraded, report.backoff_time,
                               report.coalesce_time)
                )
            resolved_by[name] = resolved
        if outstanding:
            raise PipelineError(
                f"resolver chain left partitions unresolved: "
                f"{list(outstanding)} (terminal resolver must be total)"
            )
        plan = ChunkPlan.from_resolution(analyzed, resolution)

        blocked.seconds = 0.0
        start = clock()
        rows = self.assembler.assemble(analyzed, resolution)
        end = clock()
        stages.append(
            StageTrace("assemble", end - start, 0.0, total, 0, 0,
                       blocked.seconds)
        )

        blocked.seconds = 0.0
        record = self.accountant.account(
            analyzed, resolution, plan, len(rows)
        )
        stages.append(
            StageTrace("account", clock() - end, 0.0, 0, 0, 0,
                       blocked.seconds)
        )

        trace = ExecutionTrace(
            stages, resolved_by, total, resolution.report.pages_read,
            record.time,
        )
        if invariants.enabled():
            invariants.check_trace_conservation(trace, record)
        return PipelineResult(
            rows, record, trace, analyzed, plan, resolution
        )
