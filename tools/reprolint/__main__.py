"""CLI: ``python -m tools.reprolint [options] [paths...]``.

Parses every file, runs the per-file rules and reports in one of
three formats:

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

from tools.reprolint.engine import iter_python_files, lint_paths
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

    parse_errors: list[tuple[str, SyntaxError]] = []
    violations = lint_paths(
        args.paths,
        rules=rules,
        on_error=lambda path, exc: parse_errors.append((path, exc)),
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
                for v in violations
            ],
            "parse_errors": [
                {"path": path, "message": str(exc)}
                for path, exc in parse_errors
            ],
            "files": sum(1 for _ in iter_python_files(args.paths)),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "github":
        for v in violations:
            # Workflow command; GitHub renders it as a file annotation.
            message = v.message.replace("%", "%25").replace("\n", "%0A")
            print(
                f"::error file={v.path},line={v.line},col={v.col},"
                f"title=reprolint {v.code}::{message}"
            )
        for path, exc in parse_errors:
            print(f"::error file={path},title=reprolint parse::{exc}")
    else:
        for v in violations:
            print(v.render())
        for path, exc in parse_errors:
            print(f"{path}: syntax error: {exc}", file=sys.stderr)

    if violations or parse_errors:
        print(
            f"reprolint: {len(violations)} violation(s), "
            f"{len(parse_errors)} unparsable file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
