"""Interleaved benchmark pairs: a base revision against the working tree.

``python -m tools.benchpairs --base REV [--workload NAME] [--pairs N]
[--seed S]`` (``make bench-pairs BASE=... WORKLOAD=... N=...``).

The procedure a performance claim has to follow here (ROADMAP; the
choosing-metrics guide §8): export ``REV`` with ``git archive`` into a
temporary directory, run ``BENCHMARK.json``'s command once per side per
pair — alternating which side goes first, so drift of the host hits both
sides alike — and print, per end-to-end metric, each side's median and
quartiles and how many pairs the working tree won (ties count for
neither side).  A gain counts when, over at least ten pairs, the tree
wins nine tenths of them and the medians differ by more than the base's
own interquartile distance; the ``gain`` column says whether all that
holds, and ``regressed`` whether the tree's median is worse than the
base's by more than the metric's ``bound`` in ``BENCHMARK.json``.

What the program counts from the seed alone (``csr``,
``backend_pages_per_query``) must be equal on both sides of every pair,
and the tree may not fail a larger share of its operations than the
base: the first pair that breaks either rule ends the run with exit
code 1 and a line naming the workload and the pair.

Run from the repo root.  Nothing is written inside the checkout except
what the benchmark itself leaves (git-ignored).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

#: A single workload run takes ~20 s; the benchmark's own cap is 170 s.
RUN_TIMEOUT_S = 600

#: Fewer pairs than this support no verdict (the gain column prints "-").
MIN_PAIRS = 10

#: Metrics the program counts from the seed alone: a difference between
#: the sides is a change of behaviour, never noise.
EXACT_METRICS = ("csr", "backend_pages_per_query")


def export_revision(revision: str, target: Path) -> None:
    """Unpack the committed files of ``revision`` into ``target``."""
    archive = target / "base.tar"
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), revision],
        check=True,
        timeout=RUN_TIMEOUT_S,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()


@dataclasses.dataclass(frozen=True)
class Run:
    """What one benchmark run reported (the contract's result object)."""

    attempted: int
    failed: int
    metrics: dict[str, float]


def run_once(command: list[str], checkout: Path) -> Run:
    """One benchmark run in ``checkout``; its last line is the result."""
    done = subprocess.run(
        command,
        cwd=checkout,
        stdout=subprocess.PIPE,
        text=True,
        timeout=RUN_TIMEOUT_S,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"benchpairs: {' '.join(command)} failed in {checkout} "
            f"(exit code {done.returncode})"
        )
    result = json.loads(lines[-1])
    return Run(
        attempted=int(result["attempted"]),
        failed=int(result["failed"]),
        metrics={
            name: float(metric["value"])
            for name, metric in result["metrics"].items()
        },
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclasses.dataclass(frozen=True)
class Verdict:
    """One metric of one workload, judged over all pairs run."""

    base: tuple[float, float, float]
    tree: tuple[float, float, float]
    wins: int
    ties: int
    gain: str
    regressed: str


def judge(
    metric: dict[str, object], base: list[float], tree: list[float]
) -> Verdict:
    """Compare the sides' values of one declared end-to-end metric.

    ``gain`` is "yes"/"no" by the nine-tenths-of-pairs and
    interquartile-distance rule ("-" below :data:`MIN_PAIRS`);
    ``regressed`` is "yes" when the tree's median is worse than the
    base's by more than the metric's relative ``bound``.
    """
    higher = metric["better"] == "higher"
    pairs = len(base)
    b_q1, b_med, b_q3 = quartiles(base)
    tree_quartiles = quartiles(tree)
    t_med = tree_quartiles[1]
    wins = sum((t > b) if higher else (t < b) for b, t in zip(base, tree))
    ties = sum(t == b for b, t in zip(base, tree))
    better_by = (t_med - b_med) if higher else (b_med - t_med)
    if pairs < MIN_PAIRS:
        gain = "-"
    elif wins * 10 >= pairs * 9 and better_by > b_q3 - b_q1:
        gain = "yes"
    else:
        gain = "no"
    bound = float(metric["bound"])  # type: ignore[arg-type]
    regressed = "yes" if -better_by > bound * abs(b_med) else "no"
    return Verdict(
        (b_q1, b_med, b_q3), tree_quartiles, wins, ties, gain, regressed
    )


def pair_problems(
    workload: str, pair: int, base: Run, tree: Run
) -> list[str]:
    """Why pair number ``pair`` (from 1) rules the comparison out."""
    where = f"{workload}, pair {pair}"
    problems = [
        f"{where}: {name} differs at the same seed: base "
        f"{base.metrics[name]!r}, tree {tree.metrics[name]!r}"
        for name in EXACT_METRICS
        if base.metrics[name] != tree.metrics[name]
    ]
    # Shares compared as cross products: no division, no zero attempts.
    if tree.failed * base.attempted > base.failed * tree.attempted:
        problems.append(
            f"{where}: the tree failed {tree.failed} of {tree.attempted} "
            f"operations, the base {base.failed} of {base.attempted}"
        )
    return problems


def report(
    workload: str,
    declared: list[dict[str, object]],
    base_runs: list[Run],
    tree_runs: list[Run],
) -> None:
    """Print the per-metric table of one workload."""
    pairs = len(base_runs)
    print(f"\n== {workload} · {pairs} pair(s) · base | working tree")
    for side, runs in (("base", base_runs), ("tree", tree_runs)):
        failed = sum(run.failed for run in runs)
        attempted = sum(run.attempted for run in runs)
        print(f"{side}: failed {failed} of {attempted} operations")
    header = (
        f"{'metric':<26}{'base median [q1, q3]':>38}"
        f"{'tree median [q1, q3]':>38}{'ratio':>8}{'wins':>8}"
        f"{'gain':>6}{'regressed':>11}"
    )
    print(header)
    for metric in declared:
        name = str(metric["name"])
        verdict = judge(
            metric,
            [run.metrics[name] for run in base_runs],
            [run.metrics[name] for run in tree_runs],
        )
        b_q1, b_med, b_q3 = verdict.base
        t_q1, t_med, t_q3 = verdict.tree
        ratio = f"{t_med / b_med:.3f}" if b_med else "-"
        print(
            f"{name:<26}"
            f"{f'{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]':>38}"
            f"{f'{t_med:.6g} [{t_q1:.6g}, {t_q3:.6g}]':>38}"
            f"{ratio:>8}"
            f"{f'{verdict.wins}/{pairs - verdict.ties}':>8}"
            f"{verdict.gain:>6}{verdict.regressed:>11}"
        )


def build_parser() -> argparse.ArgumentParser:
    """The command line (also parsed by the nightly-workflow test)."""
    parser = argparse.ArgumentParser(
        prog="benchpairs",
        description="interleaved benchmark pairs: base revision vs tree",
    )
    parser.add_argument("--base", required=True, metavar="REV")
    parser.add_argument(
        "--workload",
        action="append",
        help="workload to run (repeatable; default: every declared one)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1998)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.pairs < 1:
        parser.error("--pairs must be at least 1")

    tree = Path.cwd()
    declaration_path = tree / "BENCHMARK.json"
    if not declaration_path.is_file():
        print("benchpairs: run from the repo root (no BENCHMARK.json)",
              file=sys.stderr)
        return 2
    declaration = json.loads(declaration_path.read_text(encoding="utf-8"))
    workloads = options.workload or [
        str(w["name"]) for w in declaration["workloads"]
    ]
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as scratch:
        base = Path(scratch)
        export_revision(options.base, base)
        for workload in workloads:
            command = [
                *declaration["command"],
                "--workload", workload,
                "--seed", str(options.seed),
                "--trace", "0",
            ]
            runs: dict[str, list[Run]] = {"base": [], "tree": []}
            for pair in range(options.pairs):
                order = ("base", "tree") if pair % 2 == 0 else ("tree", "base")
                for side in order:
                    checkout = base if side == "base" else tree
                    runs[side].append(run_once(command, checkout))
                problems = pair_problems(
                    workload, pair + 1, runs["base"][-1], runs["tree"][-1]
                )
                if problems:
                    for problem in problems:
                        print(f"benchpairs: {problem}", file=sys.stderr)
                    return 1
                print(
                    f"{workload}: pair {pair + 1}/{options.pairs} done",
                    file=sys.stderr,
                )
            report(
                workload, declaration["end_to_end"], runs["base"], runs["tree"]
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
