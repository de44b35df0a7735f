"""Registry of all reproduced tables and figures.

Each experiment module exposes ``run(...) -> ExperimentResult``; this
registry maps experiment ids to those entry points so the whole
evaluation can be regenerated with one call (or ``python -m
repro.experiments.registry``).
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ExperimentError
from repro.experiments import (
    ablations,
    csr_sim,
    feller,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    multiuser,
    table1,
    table2,
)
from repro.experiments.configs import DEFAULT_SCALE, Scale
from repro.experiments.reporting import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]

#: Experiment id -> (description, takes_scale, runner).
EXPERIMENTS: dict[str, tuple[str, bool, Callable[..., ExperimentResult]]] = {
    "table1": ("Table 1: dimension cardinalities", False, table1.run),
    "table2": ("Table 2: locality parameters", True, table2.run),
    "fig9": ("Figure 9: types of locality", True, fig9.run),
    "fig10": ("Figure 10: percentage of locality", True, fig10.run),
    "csr_sim": ("Sec 6.1.4: CSR simulation", True, csr_sim.run),
    "fig11": ("Figure 11: cache size", True, fig11.run),
    "fig12": ("Figure 12: chunk range", True, fig12.run),
    "fig13": ("Figure 13: replacement policies", True, fig13.run),
    "fig14": ("Figure 14: bitmap performance", False, fig14.run),
    "feller": ("Sec 4.2: occupancy model vs measured", False, feller.run),
    "multiuser": (
        "Extension: shared vs partitioned caches (multi-user)",
        True,
        multiuser.run,
    ),
    "ablation_derive": (
        "Ablation: in-cache derivation (Sec 7)", True, ablations.run_derive
    ),
    "ablation_prefetch": (
        "Ablation: drill-down prefetch (Sec 7)", True, ablations.run_prefetch
    ),
    "ablation_materialized": (
        "Ablation: materialized aggregates (Sec 2.4)",
        True,
        ablations.run_materialized,
    ),
    "ablation_bufferpool": (
        "Ablation: buffer pool size", True, ablations.run_bufferpool
    ),
}


def run_experiment(
    experiment_id: str, scale: Scale = DEFAULT_SCALE
) -> ExperimentResult:
    """Run one experiment by id."""
    try:
        _, takes_scale, runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        ) from None
    if takes_scale:
        return runner(scale)
    return runner()


def run_all(scale: Scale = DEFAULT_SCALE) -> list[ExperimentResult]:
    """Run every experiment, in registry order."""
    return [run_experiment(eid, scale) for eid in EXPERIMENTS]


def main() -> None:
    """CLI entry point: print every reproduced table/figure."""
    for result in run_all():
        print(result.render())
        print()


if __name__ == "__main__":
    main()
