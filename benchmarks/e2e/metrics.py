"""Metric records, the declared metric set and run-to-run statistics.

``BENCHMARK.json`` at the repo root is the one declaration of metric
names, units, directions and bounds; this module reads it so that the
runner, the comparison and the self-test cannot drift from it.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "PACKAGE_DIR",
    "REPO_ROOT",
    "EXACT_METRICS",
    "Declared",
    "Metric",
    "Summary",
    "load_declaration",
    "percentile",
    "ratio",
    "summarise",
]

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]

#: End-to-end metrics that are counts made by the program: with one seed
#: they repeat bit for bit, so ``compare`` treats any worsening as a
#: regression.  (Their bound in ``BENCHMARK.json`` only has to cover the
#: spread *across* seeds, which is how the driver samples them.)
EXACT_METRICS = frozenset({"csr", "backend_pages_per_query"})


@dataclass(frozen=True)
class Metric:
    """One measured value.

    Emitting metrics as typed records rather than string-keyed dict
    literals keeps wall-clock values out of reprolint R010's
    ``BENCH_*`` payload fence: the name says what the number is.

    ``samples`` is the number of observations behind the value (the
    latency count beside a percentile, the query count beside a rate).
    """

    name: str
    unit: str
    value: float
    samples: int = 1


@dataclass(frozen=True)
class Declared:
    """One metric as ``BENCHMARK.json`` declares it."""

    name: str
    unit: str
    better: str
    bound: float | None = None

    def worse_by(self, base: float, new: float) -> float:
        """How much worse ``new`` is than ``base``, as a share of
        ``base`` (negative when it is better)."""
        delta = new - base if self.better == "lower" else base - new
        return delta / abs(base) if base else (1.0 if delta > 0 else 0.0)


def load_declaration() -> dict[str, Any]:
    """Parse ``BENCHMARK.json`` into typed metric declarations."""
    raw = json.loads((REPO_ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {
        "run_seconds": int(raw["run_seconds"]),
        "workloads": tuple(entry["name"] for entry in raw["workloads"]),
        "end_to_end": tuple(
            Declared(e["name"], e["unit"], e["better"], float(e["bound"]))
            for e in raw["end_to_end"]
        ),
        "per_layer": tuple(
            Declared(e["name"], e["unit"], e["better"])
            for e in raw["per_layer"]
        ),
    }


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was counted."""
    return part / whole if whole else 0.0


def percentile(
    values: Sequence[float], share: float, half_band: float = 0.005
) -> float:
    """Percentile ``share`` (in [0, 1]) as the mean of the order
    statistics whose rank lies within ``half_band`` of it.

    A single order statistic in a sparse tail jumps by several percent
    when one heavy query changes rank; the mean over a band one
    percentile rank wide (14 samples of 1400) does not, and for the
    median the band is narrow enough to change nothing.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    low = max(0, min(last, int((share - half_band) * len(ordered))))
    high = max(low, min(last, int((share + half_band) * len(ordered))))
    return statistics.fmean(ordered[low : high + 1])


@dataclass(frozen=True)
class Summary:
    """Median, quartiles and range of one metric over repeated runs."""

    median: float
    q1: float
    q3: float
    low: float
    high: float
    values: tuple[float, ...]

    @property
    def spread(self) -> float:
        """Distance between the quartiles as a share of the median."""
        return (self.q3 - self.q1) / abs(self.median) if self.median else 0.0


def summarise(values: Sequence[float]) -> Summary:
    """Quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return Summary(only, only, only, only, only, (only,))
    q1, _, q3 = statistics.quantiles(values, n=4)
    return Summary(
        median=statistics.median(values),
        q1=q1,
        q3=q3,
        low=min(values),
        high=max(values),
        values=tuple(float(v) for v in values),
    )
