"""Figure 10 — chunk vs query caching as hot-region locality increases.

Streams Q60, Q80 and Q100 send 60 %, 80 % and 100 % of their queries into
a region holding 20 % of the cube.  The paper's shape: chunk caching wins
at every locality percentage and the ratio grows with locality, because
the chunk scheme both avoids redundant storage and reuses partial
overlaps.
"""

from __future__ import annotations

from repro.experiments.configs import DEFAULT_SCALE, Scale
from repro.experiments.fig9 import COLUMNS, run_arms
from repro.experiments.harness import get_system
from repro.experiments.reporting import ExperimentResult
from repro.workload.generator import Q60, Q80, Q100

__all__ = ["run"]

MIXES = (Q60, Q80, Q100)


def run(scale: Scale = DEFAULT_SCALE) -> ExperimentResult:
    """Reproduce Figure 10 at the given scale (Figure 9's experiment
    over the hot-region mixes)."""
    result = ExperimentResult(
        experiment_id="fig10",
        title="Figure 10: Percentage of Locality (hot region)",
        columns=COLUMNS,
        expectation=(
            "chunk caching beats query caching at 60/80/100% locality; "
            "both schemes improve with locality, chunk more steeply"
        ),
        notes=f"hot region = 20% of the cube; {scale.num_queries} queries",
    )
    return run_arms(result, get_system(scale), MIXES, scale)


if __name__ == "__main__":
    print(run().render())
