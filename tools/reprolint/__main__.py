"""CLI: ``python -m tools.reprolint [options] [paths...]``.

Runs the two-phase analyzer (per-file rules from the content-hash
cache, whole-program rules recomputed) and reports in one of three
formats:

- ``text`` (default) — ``path:line:col: CODE message`` lines;
- ``json`` — a machine-readable object with violations and stats;
- ``github`` — GitHub Actions workflow commands, rendered as inline
  annotations on the PR diff.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from tools.reprolint.cache import DEFAULT_CACHE_PATH
from tools.reprolint.engine import run_lint
from tools.reprolint.rules import ALL_RULES, RULES_BY_CODE


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="Project-specific static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule code with its summary and exit",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="violation output format (default: text)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the fact cache (cold run)",
    )
    parser.add_argument(
        "--cache-file", default=DEFAULT_CACHE_PATH, metavar="PATH",
        help=f"fact cache location (default: {DEFAULT_CACHE_PATH})",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker threads for fact extraction (default: auto)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.CODE}  {rule.SUMMARY}")
        return 0

    rules = ALL_RULES
    if args.select:
        codes = [c.strip().upper() for c in args.select.split(",") if c.strip()]
        unknown = [c for c in codes if c not in RULES_BY_CODE]
        if unknown:
            parser.error(f"unknown rule codes: {', '.join(unknown)}")
        rules = tuple(RULES_BY_CODE[c] for c in codes)

    cache_path = None if args.no_cache else args.cache_file
    result = run_lint(
        args.paths, rules=rules, cache_path=cache_path, jobs=args.jobs
    )

    if args.format == "json":
        payload = {
            "violations": [
                {
                    "path": v.path,
                    "line": v.line,
                    "col": v.col,
                    "code": v.code,
                    "message": v.message,
                }
                for v in result.violations
            ],
            "parse_errors": [
                {"path": path, "message": str(exc)}
                for path, exc in result.parse_errors
            ],
            "files": len(result.files),
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "github":
        for v in result.violations:
            # Workflow command; GitHub renders it as a file annotation.
            message = v.message.replace("%", "%25").replace("\n", "%0A")
            print(
                f"::error file={v.path},line={v.line},col={v.col},"
                f"title=reprolint {v.code}::{message}"
            )
        for path, exc in result.parse_errors:
            print(f"::error file={path},title=reprolint parse::{exc}")
    else:
        for v in result.violations:
            print(v.render())
        for path, exc in result.parse_errors:
            print(f"{path}: syntax error: {exc}", file=sys.stderr)

    if result.violations or result.parse_errors:
        print(
            f"reprolint: {len(result.violations)} violation(s), "
            f"{len(result.parse_errors)} unparsable file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
