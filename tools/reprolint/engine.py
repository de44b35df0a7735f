"""The reprolint engine: file discovery, rule dispatch, suppressions.

``reprolint`` is a project-specific static analyzer for the repro
codebase.  Generic linters cannot know that ``repro.chunks`` must never
import ``repro.core``, or that cost accounting must not compare floats
with ``==`` — these are *paper-level* invariants of this reproduction,
so they get their own AST-based rules (see :mod:`tools.reprolint.rules`).

A rule is a module exposing::

    CODE: str          # "R001"
    SUMMARY: str       # one-line description (also used in docs)
    def check(ctx: FileContext) -> Iterator[Violation]: ...

Rules scope themselves by the *module path* of the file under analysis
(``ctx.module``), so running the CLI over extra directories is harmless.
A lint run is: parse each file, run every rule over it, drop the
findings its same-line waivers name.

Suppression: a line containing ``# reprolint: ignore[R001]`` (one or
more comma-separated codes) silences those codes on that line; a
waiver should carry a trailing reason, e.g.::

    expected, _ = backend.answer(query, "scan")  # reprolint: ignore[R001] ground-truth oracle
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "module_path_of",
]

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*ignore\[([A-Z0-9,\s]+)\](.*)$")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a location.

    Attributes:
        path: File the violation is in (as given to the engine).
        line: 1-based source line.
        col: 0-based column.
        code: Rule code (``"R001"`` … ``"R011"``).
        message: Human-readable description of the finding.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` (clickable in most editors)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class FileContext:
    """Everything a rule needs to analyze one file.

    Attributes:
        path: Path as given (used in reports).
        module: Dotted module path when the file lives under ``src/``
            (e.g. ``repro.core.metrics``); ``None`` for files outside an
            importable tree (tests, tools, scripts).
        tree: The parsed AST.
        source_lines: The file's source split into lines (for
            suppression matching).
    """

    path: str
    module: str | None
    tree: ast.Module
    source_lines: tuple[str, ...] = field(repr=False)

    def in_package(self, *packages: str) -> bool:
        """Whether the file's module is (inside) one of ``packages``."""
        if self.module is None:
            return False
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )

    def suppressed(self, line: int, code: str) -> bool:
        """Whether ``code`` is suppressed on 1-based source line ``line``."""
        if not 1 <= line <= len(self.source_lines):
            return False
        match = _SUPPRESS_RE.search(self.source_lines[line - 1])
        if match is None:
            return False
        codes = {c.strip() for c in match.group(1).split(",")}
        return code in codes


class Rule(Protocol):
    """The module-level protocol every rule file satisfies.

    An optional ``SUPPRESSIBLE = False`` exempts a rule from inline
    waivers (used by R000, which polices the waivers themselves).
    """

    CODE: str
    SUMMARY: str

    def check(self, ctx: FileContext) -> Iterator[Violation]: ...


def module_path_of(path: Path, root: Path | None = None) -> str | None:
    """Dotted module path of a file under a ``src/`` tree, else None.

    ``src/repro/core/metrics.py`` -> ``repro.core.metrics``;
    ``src/repro/core/__init__.py`` -> ``repro.core``.
    """
    resolved = path if root is None else path.resolve()
    parts = list(resolved.parts)
    if "src" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("src")
    module_parts = parts[idx + 1 :]
    if not module_parts:
        return None
    last = module_parts[-1]
    if last.endswith(".py"):
        module_parts[-1] = last[: -len(".py")]
    if module_parts[-1] == "__init__":
        module_parts = module_parts[:-1]
    if not module_parts:
        return None
    return ".".join(module_parts)


def build_context(path: str, source: str) -> FileContext:
    """Parse one file into a :class:`FileContext` (raises SyntaxError)."""
    return FileContext(
        path=path,
        module=module_path_of(Path(path)),
        tree=ast.parse(source, filename=path),
        source_lines=tuple(source.splitlines()),
    )


def _check_file(ctx: FileContext, rules: Sequence[Rule]) -> list[Violation]:
    """Run the rules over one context, applying waivers."""
    found: list[Violation] = []
    for rule in rules:
        waivable = getattr(rule, "SUPPRESSIBLE", True)
        for violation in rule.check(ctx):
            if waivable and ctx.suppressed(violation.line, violation.code):
                continue
            found.append(violation)
    return found


def _active(rules: Sequence[Rule] | None) -> Sequence[Rule]:
    from tools.reprolint.rules import ALL_RULES

    return ALL_RULES if rules is None else tuple(rules)


def _position(violation: Violation) -> tuple[str, int, int, str]:
    return (violation.path, violation.line, violation.col, violation.code)


def lint_source(
    source: str,
    path: str = "src/repro/_snippet.py",
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Lint a source string as if it lived at ``path`` (for tests)."""
    found = _check_file(build_context(path, source), _active(rules))
    found.sort(key=_position)
    return found


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """All ``*.py`` files under the given files/directories, sorted."""
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
    on_error: Callable[[str, SyntaxError], None] | None = None,
) -> list[Violation]:
    """Lint every Python file under ``paths``; returns sorted violations.

    Files that fail to parse are reported through ``on_error`` (and
    otherwise skipped) — ``compileall`` in CI owns syntax checking.
    """
    active = _active(rules)
    found: list[Violation] = []
    for file_path in iter_python_files(paths):
        name = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError:
            continue
        try:
            ctx = build_context(name, source)
        except SyntaxError as exc:
            if on_error is not None:
                on_error(name, exc)
            continue
        found.extend(_check_file(ctx, active))
    found.sort(key=_position)
    return found
