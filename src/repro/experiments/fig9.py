"""Figure 9 — chunk vs query caching under different types of locality.

For each Table 2 stream (Random, EQPR, Proximity) the same query sequence
is pushed through both caching schemes over the same backend, reporting
the paper's two metrics: mean execution time of the last 100 queries and
the cost saving ratio.  The paper's shape: chunk caching wins everywhere,
and its advantage grows with the locality of the stream (average
improvement factor ≈ 2).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.experiments.configs import DEFAULT_SCALE, Scale
from repro.experiments.harness import (
    System,
    get_system,
    make_chunk_manager,
    make_mix_stream,
    make_query_manager,
    run_stream,
)
from repro.experiments.reporting import ExperimentResult
from repro.pipeline.protocol import QueryAnswerer
from repro.workload.generator import EQPR, PROXIMITY, RANDOM, LocalityMix

__all__ = ["run", "run_arms"]

MIXES = (RANDOM, EQPR, PROXIMITY)

#: The two arms of Figures 9 and 10, in row order.
SCHEMES: tuple[tuple[str, Callable[[System], QueryAnswerer]], ...] = (
    ("chunk", make_chunk_manager),
    ("query", make_query_manager),
)

COLUMNS = (
    "stream", "scheme", "mean_time_last", "csr", "chunk_hit_ratio",
    "pages_read",
)


def run_arms(
    result: ExperimentResult,
    system: System,
    mixes: Sequence[LocalityMix],
    scale: Scale,
) -> ExperimentResult:
    """One row per mix and scheme, each stream through both schemes.

    Each arm's manager is built right before its run: building one
    resets the backend's buffer pool and counters, so every arm starts
    from the same cold state.
    """
    for mix in mixes:
        stream = make_mix_stream(system, mix)
        for scheme, make_manager in SCHEMES:
            metrics = run_stream(make_manager(system), stream)
            result.add(
                stream=mix.name,
                scheme=scheme,
                mean_time_last=metrics.mean_time_last(scale.tail_queries),
                csr=metrics.cost_saving_ratio(),
                chunk_hit_ratio=metrics.chunk_hit_ratio(),
                pages_read=metrics.total_pages_read(),
            )
    return result


def run(scale: Scale = DEFAULT_SCALE) -> ExperimentResult:
    """Reproduce Figure 9 at the given scale."""
    result = ExperimentResult(
        experiment_id="fig9",
        title="Figure 9: Different Types of Locality",
        columns=COLUMNS,
        expectation=(
            "chunk caching beats query caching on every stream; the gap "
            "widens with locality (paper: ~2x on average)"
        ),
        notes=f"{scale.num_queries} queries/stream, {scale.num_tuples} tuples",
    )
    return run_arms(result, get_system(scale), MIXES, scale)


if __name__ == "__main__":
    print(run().render())
