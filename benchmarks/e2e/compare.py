"""Judge one saved set of runs against another by the declared bounds.

The rules are those of the choosing-metrics guide (sections 6.5 and 8):

- **regressed** — the new median is worse than the base median by more
  than the metric's bound (for a count that repeats exactly per seed:
  worse at all), or more queries failed;
- **unresolved** — the base's own run-to-run spread (distance between
  its quartiles) is wider than the bound, so neither "unchanged" nor
  "regressed" can be told apart — unless every new run reads better
  than every base run;
- **improved** — the new side wins at least nine tenths of the run
  pairs and the medians differ by more than the base's own spread;
- **unchanged** — everything else.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .metrics import EXACT_METRICS, Declared, load_declaration, summarise

__all__ = ["verdict", "compare_files"]

#: Stamp fields that must agree before two files are comparable.
_MUST_MATCH = ("usable_cores", "scale", "seed", "seconds")


def verdict(
    metric: Declared, base: list[float], new: list[float]
) -> str:
    """One metric on one workload: how does ``new`` stand to ``base``?"""
    a, b = summarise(base), summarise(new)
    worse = metric.worse_by(a.median, b.median)
    if metric.name in EXACT_METRICS:
        if worse > 0:
            return "regressed"
        return "improved" if worse < 0 else "unchanged"
    assert metric.bound is not None
    if worse > metric.bound:
        return "regressed"
    pairs = list(zip(base, new))
    wins = sum(metric.worse_by(x, y) < 0 for x, y in pairs)
    losses = sum(metric.worse_by(x, y) > 0 for x, y in pairs)
    beyond_noise = abs(b.median - a.median) > a.q3 - a.q1
    if worse < 0 and beyond_noise and wins >= 0.9 * (wins + losses) > 0:
        return "improved"
    all_better = all(
        metric.worse_by(x, y) < 0 for x in base for y in new
    )
    if a.spread > metric.bound and not all_better:
        return "unresolved"
    return "unchanged"


def _load(path: Path) -> dict[str, Any]:
    document = json.loads(path.read_text("utf-8"))
    if document.get("kind") != "e2e":
        raise SystemExit(f"{path} is not an end-to-end result file")
    return document


def compare_files(base_path: Path, new_path: Path) -> int:
    """Print a verdict per workload x metric; 1 if anything regressed."""
    base, new = _load(base_path), _load(new_path)
    for key in _MUST_MATCH:
        if base["stamp"][key] != new["stamp"][key]:
            raise SystemExit(
                f"not comparable: {key} is {base['stamp'][key]!r} in "
                f"{base_path} and {new['stamp'][key]!r} in {new_path}"
            )
    declared = load_declaration()["end_to_end"]
    regressed = False
    for workload, old in base["workloads"].items():
        fresh = new["workloads"].get(workload)
        if fresh is None or fresh["counts"] != old["counts"]:
            raise SystemExit(
                f"not comparable: query counts of {workload} differ"
            )
        print(f"\n== {workload}")
        for metric in declared:
            a, b = old["metrics"][metric.name], fresh["metrics"][metric.name]
            outcome = verdict(metric, a["values"], b["values"])
            regressed |= outcome == "regressed"
            print(
                f"{metric.name:<26} {metric.unit:<6}"
                f" base {a['median']:>12.6g} [{a['q1']:.6g}, {a['q3']:.6g}]"
                f"  new {b['median']:>12.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                f"  {outcome}"
            )
        if fresh["failed"] > old["failed"]:
            regressed = True
            print(
                f"failed                     {old['failed']} -> "
                f"{fresh['failed']} of {fresh['attempted']}  regressed"
            )
    return 1 if regressed else 0
