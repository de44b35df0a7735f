"""Command-line entry point: ``python -m repro``.

Subcommands:

- ``list`` — show the reproducible experiments;
- ``run [ids...] [--smoke|--paper]`` — regenerate tables/figures
  (all of them when no ids are given);
- ``soak`` — the concurrency soak; with ``--chaos`` the fault-injected
  chaos soak (the nightly job's entry point);
- ``front`` — the admission front door over a duplicate-heavy
  workload; with ``--chaos`` under fault injection (also nightly);
- ``info`` — print version and the configured default scale.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable, NamedTuple, TypeVar

from repro import __version__
from repro.exceptions import FaultError, StackError
from repro.experiments.configs import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    Scale,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.reporting import ExperimentResult
from repro.serve import FAIR, FREE, FrontConfig, SoakConfig

_Number = TypeVar("_Number", int, float)

USAGE = """\
usage: python -m repro <command> [options]

commands:
  list                 list reproducible experiments
  run [ids...]         run experiments (default: all); --smoke / --paper
  report [path]        run everything and write a Markdown report
  soak                 concurrency soak; --chaos for fault injection,
                       --rate low|mid|high, --seed N, --users N,
                       --per-user N, --shards N, --workers N,
                       --tiers 1|2, --persist PATH (2-tier chunk log),
                       --cache-bytes N (override the L1 budget),
                       --l2-budget N (L2 live-byte budget),
                       --compact-threshold R (dead-space ratio),
                       --report PATH (JSON), --smoke / --paper
  front                admission front door with single-flight
                       coalescing; --chaos for fault injection,
                       --rate low|mid|high, --seed N, --users N,
                       --per-user N, --window N, --workers N,
                       --no-coalesce, --tiers 1|2,
                       --persist PATH (2-tier chunk log),
                       --l2-budget N, --compact-threshold R,
                       --report PATH (JSON), --smoke / --paper
  info                 version and default scale

A flag that takes N or R exits 2 when its value is missing or not a
number; --users, --per-user, --shards, --window and --workers must be
>= 1, and --rate / --seed need --chaos.
"""


class _UsageError(Exception):
    """A malformed command line: ``main`` prints it and returns 2.

    A rejected stack or fault-plan configuration
    (:class:`~repro.exceptions.StackError`,
    :class:`~repro.exceptions.FaultError`) is reported the same way.
    """


def _pop_scale(argv: list[str]) -> tuple[list[str], Scale]:
    """Pop ``--smoke`` / ``--paper`` and return the scale they select."""
    scale = DEFAULT_SCALE
    for flag, selected in (("--smoke", SMOKE_SCALE), ("--paper", PAPER_SCALE)):
        if flag in argv:
            scale = selected
            argv = [a for a in argv if a != flag]
    return argv, scale


def _cmd_list() -> int:
    width = max(len(eid) for eid in EXPERIMENTS)
    for eid, (description, _takes_scale, _runner) in EXPERIMENTS.items():
        print(f"  {eid.ljust(width)}  {description}")
    return 0


def _cmd_run(argv: list[str]) -> int:
    argv, scale = _pop_scale(argv)
    ids = argv or list(EXPERIMENTS)
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    for eid in ids:
        print(run_experiment(eid, scale).render())
        print()
    return 0


def _cmd_report(argv: list[str]) -> int:
    argv, scale = _pop_scale(argv)
    path = argv[0] if argv else "experiment-report.md"
    sections = [
        "# Reproduced evaluation — Caching Multidimensional Queries "
        "Using Chunks (SIGMOD 1998)",
        "",
        f"Scale: {scale.num_tuples:,} tuples, {scale.num_queries} "
        f"queries/stream, chunk ratio {scale.chunk_ratio}.",
        "",
    ]
    for eid in EXPERIMENTS:
        result = run_experiment(eid, scale)
        sections.append(f"## {result.title}")
        if result.expectation:
            sections.append(f"*Expected shape*: {result.expectation}")
            sections.append("")
        sections.append(_markdown_body(result))
        if result.notes:
            sections.append(f"\n*Notes*: {result.notes}")
        sections.append("")
        print(f"  {eid}: done")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections) + "\n")
    print(f"report written to {path}")
    return 0


def _markdown_body(result: ExperimentResult) -> str:
    from repro.experiments.reporting import format_markdown

    return format_markdown(result.columns, result.rows)


def _flag_value(argv: list[str], name: str) -> tuple[list[str], str | None]:
    """Pop ``name VALUE`` from the argument list, if present."""
    if name not in argv:
        return argv, None
    index = argv.index(name)
    if index + 1 >= len(argv):
        raise _UsageError(f"{name} needs a value")
    value = argv[index + 1]
    return argv[:index] + argv[index + 2 :], value


def _number_flag(
    argv: list[str],
    name: str,
    convert: Callable[[str], _Number],
    minimum: int | None = None,
) -> tuple[list[str], _Number | None]:
    """Pop ``name VALUE``, convert the value and check its lower bound."""
    argv, text = _flag_value(argv, name)
    if text is None:
        return argv, None
    try:
        number = convert(text)
    except ValueError:
        raise _UsageError(f"{name} needs a number, got {text!r}") from None
    if minimum is not None and number < minimum:
        raise _UsageError(f"{name} must be >= {minimum}, got {number}")
    return argv, number


def _given(**values: object) -> dict[str, object]:
    """The flags actually given: ``None`` means "not on the command line"."""
    return {key: value for key, value in values.items() if value is not None}


class _JobFlags(NamedTuple):
    """What ``soak`` and ``front`` share, parsed.

    ``job`` holds the job function's workload/fault keyword arguments
    and ``cache`` the :class:`~repro.api.StackConfig` overrides — both
    carry only what was given, so every default stays the job's own.
    """

    scale: Scale
    chaos: bool
    job: dict[str, object]
    cache: dict[str, object]
    workers: int | None
    report_path: str | None


def _job_flags(command: str, argv: list[str]) -> _JobFlags:
    """Parse the flags ``soak`` and ``front`` have in common.

    Each command pops its own extras first; anything left over here is
    an error.
    """
    argv, scale = _pop_scale(argv)
    chaos = "--chaos" in argv
    argv = [a for a in argv if a != "--chaos"]
    argv, rate = _flag_value(argv, "--rate")
    argv, seed = _number_flag(argv, "--seed", int)
    argv, users = _number_flag(argv, "--users", int, minimum=1)
    argv, per_user = _number_flag(argv, "--per-user", int, minimum=1)
    argv, workers = _number_flag(argv, "--workers", int, minimum=1)
    argv, tiers = _number_flag(argv, "--tiers", int)
    argv, persist = _flag_value(argv, "--persist")
    argv, l2_budget = _number_flag(argv, "--l2-budget", int)
    argv, compact_threshold = _number_flag(
        argv, "--compact-threshold", float
    )
    argv, report_path = _flag_value(argv, "--report")
    if argv:
        raise _UsageError(f"unknown {command} arguments: {argv}")
    if not chaos and (rate is not None or seed is not None):
        raise _UsageError("--rate and --seed need --chaos")
    return _JobFlags(
        scale=scale,
        chaos=chaos,
        job=_given(
            num_users=users, per_user=per_user, rate=rate, seed=seed
        ),
        cache=_given(
            cache_tiers=tiers,
            persist_path=persist,
            l2_budget_bytes=l2_budget,
            compact_threshold=compact_threshold,
        ),
        workers=workers,
        report_path=report_path,
    )


def _parse_soak(argv: list[str]) -> tuple[_JobFlags, SoakConfig]:
    argv, shards = _number_flag(argv, "--shards", int, minimum=1)
    argv, cache_bytes = _number_flag(argv, "--cache-bytes", int)
    flags = _job_flags("soak", argv)
    flags.cache.update(_given(num_shards=shards, cache_bytes=cache_bytes))
    return flags, SoakConfig(
        max_workers=flags.workers,
        schedule=FAIR if flags.chaos else FREE,
    )


def _parse_front(argv: list[str]) -> tuple[_JobFlags, FrontConfig]:
    coalesce = "--no-coalesce" not in argv
    argv = [a for a in argv if a != "--no-coalesce"]
    argv, window = _number_flag(argv, "--window", int, minimum=1)
    flags = _job_flags("front", argv)
    return flags, FrontConfig(
        window=window if window is not None else FrontConfig.window,
        max_workers=flags.workers,
        coalesce=coalesce,
    )


def _cmd_job(command: str, argv: list[str]) -> int:
    """Run ``soak`` or ``front``: parse, run the job, report."""
    # The composition root (workload, cache, fault plan) lives in the
    # experiments layer (R006/R007); import it lazily so `python -m
    # repro list` stays cheap.
    from repro.experiments import jobs

    run: Callable[..., dict[str, Any]]
    if command == "soak":
        flags, config = _parse_soak(argv)
        run = jobs.run_chaos_job if flags.chaos else jobs.run_soak_job
        unprinted = "contention"
    else:
        flags, config = _parse_front(argv)
        run = (
            jobs.run_front_chaos_job if flags.chaos else jobs.run_front_job
        )
        unprinted = "fault_counters"
    summary = run(
        scale=flags.scale,
        cache=jobs.cache_config(flags.scale, **flags.cache),
        config=config,
        **flags.job,
    )
    for key in sorted(summary):
        if key != unprinted:
            print(f"  {key}: {summary[key]}")
    if flags.report_path is not None:
        with open(flags.report_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"{command} report written to {flags.report_path}")
    return 0


def _cmd_info() -> int:
    print(f"repro {__version__}")
    print(
        f"default scale: {DEFAULT_SCALE.num_tuples:,} tuples, "
        f"{DEFAULT_SCALE.num_queries} queries/stream, "
        f"chunk ratio {DEFAULT_SCALE.chunk_ratio}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "list":
        return _cmd_list()
    if command == "run":
        return _cmd_run(rest)
    if command == "report":
        return _cmd_report(rest)
    if command in ("soak", "front"):
        try:
            return _cmd_job(command, rest)
        except (_UsageError, StackError, FaultError) as error:
            print(f"{command}: {error}", file=sys.stderr)
            return 2
    if command == "info":
        return _cmd_info()
    print(USAGE, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
