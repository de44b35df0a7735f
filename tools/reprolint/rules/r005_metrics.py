"""R005 — stream accounting goes through ``metrics.account_answer``.

The Cost Saving Ratio is only meaningful if every answered query is
priced by the *same* formula.  PR 1 hoisted that formula into
:func:`repro.core.metrics.account_answer`; this rule keeps it the single
entry point:

- no module under ``src/repro`` other than ``repro.core.metrics`` may
  construct :class:`~repro.core.metrics.QueryRecord` directly — an
  accountant that hand-rolls a record can silently drift from the shared
  pricing;
- no module other than ``repro.core.metrics`` may *write through* a
  metrics object (``self.metrics.x = ...``, ``metrics._records += ...``)
  or touch ``StreamMetrics``' private store (``_records``) — mutation
  happens via :meth:`StreamMetrics.record` only.

Binding a fresh ``self.metrics = StreamMetrics()`` is construction, not
mutation, and stays allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.engine import FileContext, Violation

CODE = "R005"
SUMMARY = (
    "StreamMetrics accounting flows through metrics.account_answer / "
    "StreamMetrics.record — no direct QueryRecord construction or "
    "counter writes outside core/metrics.py"
)

_OWNER_MODULE = "repro.core.metrics"
_PRIVATE_STORES = frozenset({"_records"})


def _writes_through_metrics(target: ast.expr) -> bool:
    """True for attribute writes whose chain passes *through* `metrics`.

    ``self.metrics.x``, ``metrics._records``, ``manager.metrics.foo`` —
    but not ``self.metrics`` itself (that is binding the object).
    """
    if not isinstance(target, ast.Attribute):
        return False
    value = target.value
    if isinstance(value, ast.Name) and value.id == "metrics":
        return True
    if isinstance(value, ast.Attribute) and value.attr == "metrics":
        return True
    return False


def check(ctx: FileContext) -> Iterator[Violation]:
    if not ctx.in_package("repro") or ctx.module == _OWNER_MODULE:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name == "QueryRecord":
                yield Violation(
                    ctx.path, node.lineno, node.col_offset, CODE,
                    "QueryRecord constructed outside core/metrics.py; "
                    "price answers through metrics.account_answer so "
                    "schemes cannot drift in CSR accounting",
                )
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if _writes_through_metrics(target):
                yield Violation(
                    ctx.path, node.lineno, node.col_offset, CODE,
                    "direct write through a metrics object; mutate "
                    "stream accounting via StreamMetrics.record only",
                )
            elif (
                isinstance(target, ast.Attribute)
                and target.attr in _PRIVATE_STORES
            ):
                yield Violation(
                    ctx.path, node.lineno, node.col_offset, CODE,
                    f"write to StreamMetrics private store "
                    f"'{target.attr}' outside core/metrics.py",
                )
