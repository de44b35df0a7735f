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

Suppression: a line containing ``# reprolint: ignore[R001]`` (one or
more comma-separated codes) silences those codes on that line; a
waiver should carry a trailing reason, e.g.::

    expected, _ = backend.answer(query, "scan")  # reprolint: ignore[R001] ground-truth oracle
"""

from __future__ import annotations

import ast
import hashlib
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence

from tools.reprolint.facts import FileFacts, Suppression, extract_facts

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "LintResult",
    "lint_source",
    "lint_sources",
    "lint_paths",
    "run_lint",
    "iter_python_files",
    "extract_suppressions",
]

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*ignore\[([A-Z0-9,\s]+)\](.*)$")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a location.

    Attributes:
        path: File the violation is in (as given to the engine).
        line: 1-based source line.
        col: 0-based column.
        code: Rule code (``"R001"`` … ``"R005"``).
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

    Per-file rules additionally define ``check(ctx) -> Iterator[
    Violation]``; whole-program rules define ``check_project(project)``
    instead (see :class:`tools.reprolint.project.ProjectRule`) — the
    engine dispatches on which attribute the module has.  An optional
    ``SUPPRESSIBLE = False`` exempts a rule from inline waivers (used
    by R000, which polices the waivers themselves).
    """

    CODE: str
    SUMMARY: str


def _file_check(rule: Rule) -> Callable[[FileContext], Iterator[Violation]] | None:
    check: Callable[[FileContext], Iterator[Violation]] | None = getattr(
        rule, "check", None
    )
    return check


def _project_check(rule: Rule) -> Callable[..., Iterator[Violation]] | None:
    check: Callable[..., Iterator[Violation]] | None = getattr(
        rule, "check_project", None
    )
    return check


def _suppressible(rule: object) -> bool:
    return bool(getattr(rule, "SUPPRESSIBLE", True))


def extract_suppressions(source_lines: Sequence[str]) -> tuple[Suppression, ...]:
    """Every ``# reprolint: ignore[...]`` comment as a fact record.

    Returned as :class:`tools.reprolint.facts.Suppression` values so
    phase-2 rules can honor waivers without re-reading source.
    """
    out: list[Suppression] = []
    for lineno, line in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = tuple(
            sorted(c.strip() for c in match.group(1).split(",") if c.strip())
        )
        out.append(
            Suppression(line=lineno, codes=codes, reason=match.group(2).strip())
        )
    return tuple(out)


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


#: CPython 3.11's C-to-Python AST conversion tracks its recursion depth
#: in per-interpreter (not per-thread) state; two threads parsing at
#: once can interleave and die with "SystemError: AST constructor
#: recursion depth mismatch".  Serialize the parse — the fact/rule walk
#: over the finished tree is what the worker pool parallelizes.
_PARSE_LOCK = threading.Lock()


def build_context(path: str, source: str) -> FileContext:
    """Parse one file into a :class:`FileContext` (raises SyntaxError)."""
    with _PARSE_LOCK:
        tree = ast.parse(source, filename=path)
    return FileContext(
        path=path,
        module=module_path_of(Path(path)),
        tree=tree,
        source_lines=tuple(source.splitlines()),
    )


def _facts_of(ctx: FileContext) -> FileFacts:
    return extract_facts(
        path=ctx.path,
        module=ctx.module,
        tree=ctx.tree,
        suppressions=extract_suppressions(ctx.source_lines),
    )


def _check_file(ctx: FileContext, rules: Sequence[Rule]) -> list[Violation]:
    """Run the per-file rules over one context, applying waivers."""
    found: list[Violation] = []
    for rule in rules:
        check = _file_check(rule)
        if check is None:
            continue
        for violation in check(ctx):
            if _suppressible(rule) and ctx.suppressed(
                violation.line, violation.code
            ):
                continue
            found.append(violation)
    return found


def _check_projectwide(
    files: Sequence[FileFacts], rules: Sequence[Rule]
) -> list[Violation]:
    """Run the whole-program rules over the full fact set."""
    checks = [
        (rule, check)
        for rule in rules
        for check in [_project_check(rule)]
        if check is not None
    ]
    if not checks:
        return []
    from tools.reprolint.project import Project

    project = Project(files)
    found: list[Violation] = []
    for rule, check in checks:
        for violation in check(project):
            if _suppressible(rule) and project.suppressed(
                violation.path, violation.line, violation.code
            ):
                continue
            found.append(violation)
    return found


def lint_source(
    source: str,
    path: str = "src/repro/_snippet.py",
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Lint a source string as if it lived at ``path`` (for tests).

    Runs per-file rules *and* whole-program rules over the single-file
    project, so fire/no-fire tests for R010 work on one snippet.
    """
    from tools.reprolint.rules import ALL_RULES

    ctx = build_context(path, source)
    active: Sequence[Rule] = tuple(rules) if rules is not None else ALL_RULES
    found = _check_file(ctx, active)
    if any(_project_check(r) is not None for r in active):
        found.extend(_check_projectwide([_facts_of(ctx)], active))
    found.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return found


def lint_sources(
    sources: dict[str, str],
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Lint several in-memory files as one project (for tests)."""
    from tools.reprolint.rules import ALL_RULES

    active: Sequence[Rule] = tuple(rules) if rules is not None else ALL_RULES
    found: list[Violation] = []
    files: list[FileFacts] = []
    for path in sorted(sources):
        ctx = build_context(path, sources[path])
        found.extend(_check_file(ctx, active))
        files.append(_facts_of(ctx))
    found.extend(_check_projectwide(files, active))
    found.sort(key=lambda v: (v.path, v.line, v.col, v.code))
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


@dataclass
class LintResult:
    """Everything one :func:`run_lint` invocation produced."""

    violations: list[Violation]
    parse_errors: list[tuple[str, SyntaxError]]
    files: list[FileFacts]
    cache_hits: int = 0
    cache_misses: int = 0


def run_lint(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
    cache_path: str | Path | None = None,
    jobs: int | None = None,
) -> LintResult:
    """The full two-phase run: facts (cached, parallel) then rules.

    Phase 1 — per file: parse, extract facts, run per-file rules.  Both
    outputs depend only on file content, so they are served from the
    content-hash cache when ``cache_path`` is given and recomputed on a
    thread pool otherwise.  Phase 2 — whole program: the per-file facts
    feed the symbol table / call graph and the project rules run once.
    """
    from tools.reprolint.cache import FactCache
    from tools.reprolint.rules import ALL_RULES

    active: Sequence[Rule] = tuple(rules) if rules is not None else ALL_RULES
    file_rules = [r for r in active if _file_check(r) is not None]
    file_codes = frozenset(r.CODE for r in file_rules)
    cache = FactCache(cache_path)
    result = LintResult(violations=[], parse_errors=[], files=[])

    sources: list[tuple[str, str]] = []  # (path, source) needing work
    for file_path in iter_python_files(paths):
        name = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError:
            continue
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        cached = cache.lookup(name, digest, file_codes)
        if cached is not None:
            facts, violations = cached
            result.files.append(facts)
            result.violations.extend(violations)
        else:
            sources.append((name, source))

    def process(
        item: tuple[str, str]
    ) -> tuple[str, str, FileFacts | None, list[Violation], SyntaxError | None]:
        name, source = item
        try:
            ctx = build_context(name, source)
        except SyntaxError as exc:
            return name, source, None, [], exc
        return name, source, _facts_of(ctx), _check_file(ctx, file_rules), None

    if len(sources) > 1 and (jobs is None or jobs > 1):
        with ThreadPoolExecutor(max_workers=jobs or 8) as pool:
            processed = list(pool.map(process, sources))
    else:
        processed = [process(item) for item in sources]

    for name, source, facts, violations, error in processed:
        if error is not None:
            result.parse_errors.append((name, error))
            continue
        assert facts is not None
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        cache.store(name, digest, file_codes, facts, violations)
        result.files.append(facts)
        result.violations.extend(violations)

    result.cache_hits = cache.hits
    result.cache_misses = cache.misses
    cache.prune({f.path for f in result.files})
    cache.save()

    result.files.sort(key=lambda f: f.path)
    result.violations.extend(_check_projectwide(result.files, active))
    result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    result.parse_errors.sort(key=lambda e: e[0])
    return result


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
    on_error: Callable[[str, SyntaxError], None] | None = None,
) -> list[Violation]:
    """Lint every Python file under ``paths``; returns sorted violations.

    Files that fail to parse are reported through ``on_error`` (and
    otherwise skipped) — ``compileall`` in CI owns syntax checking.
    Runs uncached; the CLI passes a cache path through
    :func:`run_lint` instead.
    """
    result = run_lint(paths, rules=rules, cache_path=None)
    if on_error is not None:
        for name, exc in result.parse_errors:
            on_error(name, exc)
    return result.violations
