"""Command line: ``python -m benchmarks.e2e run|compare`` from the repo root.

``run`` starts every workload in its own subprocess, one after another,
prints every metric by name with its unit, and exits non-zero when an
answer or a workload-intent check failed.  Called with one
``--workload`` (the form ``BENCHMARK.json``'s command takes) its last
line of output is the result object the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

from .compare import compare_files
from .metrics import REPO_ROOT, Summary, load_declaration, summarise

# The program under test is imported from the checkout's source tree.
sys.path.insert(0, str(REPO_ROOT / "src"))

from .worker import RESULTS_DIR, WorkerResult, run_workload  # noqa: E402
from .workloads import pin_to_one_core, usable_cores  # noqa: E402

#: A run that takes this long is broken; the contract allows 180 s.
CHILD_TIMEOUT_S = 170


def _spawn(
    name: str, args: argparse.Namespace, traced: bool, untraced_qps: float
) -> WorkerResult:
    """One workload in a fresh interpreter; its last line is the result."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "worker",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0",
        "--untraced-qps", repr(untraced_qps),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(
            f"workload {name} failed (exit code {done.returncode})"
        )
    return WorkerResult.from_json(done.stdout.strip().splitlines()[-1])


def _summaries(runs: list[WorkerResult]) -> dict[str, Summary]:
    return {
        metric.name: summarise(
            [run.metrics[index].value for run in runs]
        )
        for index, metric in enumerate(runs[0].metrics)
    }


def _print_runs(title: str, runs: list[WorkerResult]) -> None:
    first = runs[0]
    counts = " ".join(f"{k}={v}" for k, v in first.counts.items())
    print(
        f"\n== {first.workload} · {title} · {len(runs)} run(s) · {counts}"
    )
    summaries = _summaries(runs)
    for metric in first.metrics:
        summary = summaries[metric.name]
        line = (
            f"{metric.name:<44} {summary.median:>16.6g} {metric.unit:<6}"
            f" n={metric.samples}"
        )
        if len(runs) > 1:
            line += f"  q1={summary.q1:.6g} q3={summary.q3:.6g}"
        print(line)
    failed = sum(run.failed for run in runs)
    attempted = sum(run.attempted for run in runs)
    print(
        f"{'failed_share':<44} {failed / attempted:>16.6g} ratio "
        f" n={attempted}  (oracle checked {first.oracle_checked} answers)"
    )
    for run in runs:
        for problem in run.problems:
            print(f"PROBLEM: {problem}")


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _save(
    kind: str, name: str, args: argparse.Namespace,
    runs: dict[str, list[WorkerResult]],
) -> Path:
    """Median, quartiles, range and every value, with the machine stamp."""
    import numpy

    workloads = {}
    for workload, results in runs.items():
        metrics = {}
        summaries = _summaries(results)
        for metric in results[0].metrics:
            summary = summaries[metric.name]
            metrics[metric.name] = dict(
                unit=metric.unit,
                samples=metric.samples,
                median=summary.median,
                q1=summary.q1,
                q3=summary.q3,
                min=summary.low,
                max=summary.high,
                values=list(summary.values),
            )
        workloads[workload] = dict(
            counts=results[0].counts,
            attempted=sum(r.attempted for r in results),
            failed=sum(r.failed for r in results),
            metrics=metrics,
        )
    document = dict(
        kind=kind,
        stamp=dict(
            usable_cores=usable_cores(),
            python=platform.python_version(),
            numpy=numpy.__version__,
            platform=platform.platform(),
            scale="smoke" if args.smoke else "paper",
            seed=args.seed,
            seconds=args.seconds,
            repeat=args.repeat,
            git_commit=_git_commit(),
        ),
        workloads=workloads,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}-{kind}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return path


def _contract_line(runs: list[WorkerResult], correct: bool) -> str:
    """The result object of ``BENCHMARK.json``'s command, medians over
    the repeats (one value with the default single run)."""
    summaries = _summaries(runs)
    metrics = {
        metric.name: dict(
            value=summaries[metric.name].median, unit=metric.unit
        )
        for metric in runs[0].metrics
    }
    return json.dumps(
        dict(
            correct=correct,
            attempted=sum(run.attempted for run in runs),
            failed=sum(run.failed for run in runs),
            metrics=metrics,
        )
    )


def _run(args: argparse.Namespace) -> int:
    declared = load_declaration()
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    names = [args.workload] if args.workload else list(declared["workloads"])
    traced = args.traced or args.trace == 1
    untraced: dict[str, list[WorkerResult]] = {}
    layers: dict[str, list[WorkerResult]] = {}
    for name in names:
        for _ in range(args.repeat):
            base = _spawn(name, args, traced=False, untraced_qps=0.0)
            untraced.setdefault(name, []).append(base)
            if traced:
                # The same counts again with the proxies installed; the
                # untraced qps is what tracing overhead is measured from.
                layers.setdefault(name, []).append(
                    _spawn(name, args, True, base.value("qps"))
                )
        _print_runs("end to end, untraced", untraced[name])
        if traced:
            _print_runs("per layer, traced", layers[name])
    if args.save:
        print(f"\nwrote {_save('e2e', args.save, args, untraced)}")
        if traced:
            print(f"wrote {_save('layers', args.save, args, layers)}")
    correct = all(
        run.correct
        for results in (*untraced.values(), *layers.values())
        for run in results
    )
    if args.workload:
        reported = layers if traced else untraced
        print(_contract_line(reported[args.workload], correct))
    return 0 if correct else 1


def _worker(args: argparse.Namespace) -> int:
    pin_to_one_core()
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace == 1,
        args.smoke, args.untraced_qps,
    )
    print(result.to_json())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the workloads")
    run.add_argument("--workload", help="one workload (default: all five)")
    run.add_argument("--seed", type=int, default=1998)
    run.add_argument(
        "--seconds", type=float,
        help="length of the measured phase the fixed query counts are "
        "sized for (default: run_seconds of BENCHMARK.json)",
    )
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--traced", action="store_true", help="same as --trace 1")
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--repeat", type=int, default=1)
    run.add_argument(
        "--save", metavar="NAME",
        help="write results/NAME-e2e.json (and NAME-layers.json if traced)",
    )
    run.set_defaults(handler=_run)

    worker = commands.add_parser("worker", help=argparse.SUPPRESS)
    worker.add_argument("--workload", required=True)
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--seconds", type=float, required=True)
    worker.add_argument("--trace", type=int, choices=(0, 1), required=True)
    worker.add_argument("--untraced-qps", type=float, default=0.0)
    worker.add_argument("--smoke", action="store_true")
    worker.set_defaults(handler=_worker)

    compare = commands.add_parser(
        "compare", help="judge B.json against A.json by the declared bounds"
    )
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(
        handler=lambda args: compare_files(Path(args.base), Path(args.new))
    )

    args = parser.parse_args(argv)
    return int(args.handler(args))


if __name__ == "__main__":
    sys.exit(main())
