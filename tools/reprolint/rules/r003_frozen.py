"""R003 — pipeline/trace dataclasses are frozen, fully-annotated values.

The staged pipeline passes value objects between stages
(:mod:`repro.pipeline.stages`, :mod:`repro.pipeline.trace`,
:mod:`repro.pipeline.executor`).  A stage mutating another stage's
output is exactly the layer-boundary drift the pipeline's design warns
about, so the convention is machine-enforced:

- a ``typing.NamedTuple`` subclass is a frozen value by construction
  (a tuple), which is why the hit-path values (``AnalyzedQuery``,
  ``ResolvedPart``, ``StageTrace`` …) are NamedTuples; the rule has
  nothing to check there;
- every ``@dataclass`` under ``repro.pipeline`` must declare
  ``frozen=True`` (accumulators that *must* mutate — ``Resolution``,
  ``ExecutionTrace`` — are plain classes with explicit methods, not
  dataclasses);
- every class-level assignment in such a dataclass must be annotated —
  a bare ``name = value`` inside a dataclass silently does *not* become
  a field, which is a latent bug, not a style choice.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.engine import FileContext, Violation

CODE = "R003"
SUMMARY = (
    "pipeline/trace dataclasses must be frozen=True and fully annotated "
    "(NamedTuples are frozen values; mutable accumulators are plain "
    "classes, not dataclasses)"
)

#: Packages whose dataclasses are required to be frozen value objects.
VALUE_PACKAGES = ("repro.pipeline",)


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` / ``@dataclass(...)`` decorator, if present."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def check(ctx: FileContext) -> Iterator[Violation]:
    if not ctx.in_package(*VALUE_PACKAGES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorator = _dataclass_decorator(node)
        if decorator is None:
            continue
        if not _is_frozen(decorator):
            yield Violation(
                ctx.path, node.lineno, node.col_offset, CODE,
                f"dataclass {node.name!r} in the pipeline layer is not "
                "frozen=True; pipeline values are immutable (make "
                "mutable accumulators plain classes instead)",
            )
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                yield Violation(
                    ctx.path, stmt.lineno, stmt.col_offset, CODE,
                    f"unannotated class-level assignment in dataclass "
                    f"{node.name!r}: it will silently not become a "
                    "field; annotate it (or mark it ClassVar)",
                )
