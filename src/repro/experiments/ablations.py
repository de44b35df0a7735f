"""Ablations of the design choices DESIGN.md §5 calls out.

Each one runs a chunk-caching stream twice (or over a sweep) with one
knob changed and reports what the knob buys:

- ``ablation_derive`` — middle-tier chunk aggregation, the paper's
  Section 7 future work (``StackConfig.aggregate_in_cache``);
- ``ablation_prefetch`` — fetching one level more detail than asked on
  a drill-down heavy stream, Section 7's second idea
  (``StackConfig.prefetch_drilldown``);
- ``ablation_materialized`` — chunked precomputed aggregate tables as
  miss sources (Section 2.4's static precomputation);
- ``ablation_bufferpool`` — the backend's miss cost as its buffer pool
  grows.

Every arm is built through the stack facade from its ``StackConfig``,
so an extension is on from the manager's first query.
"""

from __future__ import annotations

from repro.experiments.configs import DEFAULT_SCALE, Scale
from repro.experiments.harness import (
    build_system,
    get_system,
    make_chunk_manager,
    make_mix_stream,
    run_stream,
)
from repro.experiments.reporting import ExperimentResult
from repro.workload.generator import EQPR, SESSION

__all__ = [
    "run_derive",
    "run_prefetch",
    "run_materialized",
    "run_bufferpool",
]

#: Coarse group-bys that genuinely reduce the data (HRU-style picks);
#: group-bys whose cell count rivals the tuple count would be larger
#: than the base table and are (correctly) never chosen as sources.
MATERIALIZE = (
    (1, 1, 1, 1), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0),
)

#: Buffer pool sizes swept, as fractions of the fact file.
BUFFER_FRACTIONS = (0.02, 0.1, 0.5)

#: Stream-length caps of the two ablations that rebuild their system
#: per arm.
MATERIALIZED_QUERIES = 400
BUFFERPOOL_QUERIES = 300


def run_derive(scale: Scale = DEFAULT_SCALE) -> ExperimentResult:
    """In-cache derivation off and on, over the EQPR stream."""
    system = get_system(scale)
    stream = make_mix_stream(system, EQPR)
    result = ExperimentResult(
        experiment_id="ablation_derive",
        title="Ablation: middle-tier chunk aggregation (Sec 7)",
        columns=[
            "aggregate_in_cache", "csr", "mean_time_last",
            "pages_read", "derived_chunks",
        ],
        expectation=(
            "deriving coarse chunks from cached fine chunks cuts "
            "backend pages and raises CSR"
        ),
    )
    for enabled in (False, True):
        manager = make_chunk_manager(system, aggregate_in_cache=enabled)
        metrics = run_stream(manager, stream)
        result.add(
            aggregate_in_cache=enabled,
            csr=metrics.cost_saving_ratio(),
            mean_time_last=metrics.mean_time_last(scale.tail_queries),
            pages_read=metrics.total_pages_read(),
            derived_chunks=sum(r.chunks_derived for r in metrics.records),
        )
    return result


def run_prefetch(scale: Scale = DEFAULT_SCALE) -> ExperimentResult:
    """Drill-down prefetch off and on, over the session stream."""
    system = get_system(scale)
    stream = make_mix_stream(system, SESSION)
    result = ExperimentResult(
        experiment_id="ablation_prefetch",
        title="Ablation: aggressive drill-down prefetch (Sec 7)",
        columns=["prefetch", "csr", "mean_time_last", "pages_read"],
        expectation=(
            "prefetching detail cuts backend pages on drill-down "
            "heavy streams"
        ),
    )
    for enabled in (False, True):
        manager = make_chunk_manager(system, prefetch_drilldown=enabled)
        metrics = run_stream(manager, stream)
        result.add(
            prefetch=enabled,
            csr=metrics.cost_saving_ratio(),
            mean_time_last=metrics.mean_time_last(scale.tail_queries),
            pages_read=metrics.total_pages_read(),
        )
    return result


def run_materialized(scale: Scale = DEFAULT_SCALE) -> ExperimentResult:
    """Chunked aggregate tables absent and present, over EQPR.

    Each arm builds its own system: materializing changes the backend.
    """
    scale = scale.with_overrides(
        num_queries=min(scale.num_queries, MATERIALIZED_QUERIES)
    )
    result = ExperimentResult(
        experiment_id="ablation_materialized",
        title="Ablation: chunked precomputed aggregate tables (Sec 2.4)",
        columns=["materialized", "csr", "mean_time_last", "pages_read"],
        expectation=(
            "materialized sources cut backend pages for aggregated "
            "queries"
        ),
    )
    for enabled in (False, True):
        system = build_system(scale)
        if enabled:
            for groupby in MATERIALIZE:
                system.backend.materialize(groupby)
        metrics = run_stream(
            make_chunk_manager(system), make_mix_stream(system, EQPR)
        )
        result.add(
            materialized=len(MATERIALIZE) if enabled else 0,
            csr=metrics.cost_saving_ratio(),
            mean_time_last=metrics.mean_time_last(scale.tail_queries),
            pages_read=metrics.total_pages_read(),
        )
    return result


def run_bufferpool(scale: Scale = DEFAULT_SCALE) -> ExperimentResult:
    """The EQPR stream's backend pages as the buffer pool grows."""
    result = ExperimentResult(
        experiment_id="ablation_bufferpool",
        title="Ablation: buffer pool fraction of the fact file",
        columns=["buffer_fraction", "mean_time_last", "pages_read"],
        expectation="larger pools absorb more backend I/O",
    )
    for fraction in BUFFER_FRACTIONS:
        system = build_system(
            scale.with_overrides(
                buffer_fraction_of_fact=fraction,
                num_queries=min(scale.num_queries, BUFFERPOOL_QUERIES),
            )
        )
        metrics = run_stream(
            make_chunk_manager(system), make_mix_stream(system, EQPR)
        )
        result.add(
            buffer_fraction=fraction,
            mean_time_last=metrics.mean_time_last(scale.tail_queries),
            pages_read=metrics.total_pages_read(),
        )
    return result

