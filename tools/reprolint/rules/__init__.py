"""The reprolint rule registry.

Per-file rule modules expose ``CODE``, ``SUMMARY`` and ``check(ctx)``;
whole-program rules expose ``check_project(project)`` instead (the
engine dispatches on the attribute).  This package collects them into
:data:`ALL_RULES` (sorted by code) for the engine and the CLI.  Adding
a rule = adding a module here and listing it in
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from tools.reprolint.rules import (
    r000_waiver,
    r001_layering,
    r002_float_eq,
    r003_frozen,
    r004_hygiene,
    r005_metrics,
    r006_faults,
    r007_facade,
    r010_taint,
    r011_chunklog,
)

ALL_RULES = (
    r000_waiver,
    r001_layering,
    r002_float_eq,
    r003_frozen,
    r004_hygiene,
    r005_metrics,
    r006_faults,
    r007_facade,
    r010_taint,
    r011_chunklog,
)

RULES_BY_CODE = {rule.CODE: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_CODE"]
