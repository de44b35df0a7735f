"""The whole-program analysis context handed to phase-2 rules.

A :class:`Project` bundles every linted file's facts with the shared
symbol table and call graph (built lazily, once per run).  Phase-2 rule
modules expose ``check_project(project)`` instead of the per-file
``check(ctx)`` — the engine dispatches on which attribute a rule module
defines.

Suppression works the same as for per-file rules, but is answered from
the *facts* (phase 1 records every ``# reprolint: ignore[...]`` comment
with its line, codes and reason) so phase 2 never re-reads source.
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence

from tools.reprolint.callgraph import CallGraph, SymbolTable
from tools.reprolint.engine import Violation
from tools.reprolint.facts import FileFacts


class Project:
    """Every linted file's facts plus the shared phase-2 structures."""

    def __init__(self, files: Sequence[FileFacts]) -> None:
        self.files: tuple[FileFacts, ...] = tuple(
            sorted(files, key=lambda f: f.path)
        )
        self.by_path: dict[str, FileFacts] = {f.path: f for f in self.files}
        self._symbols: SymbolTable | None = None
        self._callgraph: CallGraph | None = None
        self._repro_only: Project | None = None

    def repro_only(self) -> Project:
        """The sub-project of ``src/repro`` files (whole-program scope).

        Phase-2 rules analyze library modules only: test files and tool
        files have no importable module path, and synthetic taint
        patterns in *tests of the linter itself* must not leak into the
        production analysis.
        """
        if self._repro_only is None:
            if all(
                f.module is not None and f.module.split(".")[0] == "repro"
                for f in self.files
            ):
                self._repro_only = self
            else:
                self._repro_only = Project(
                    [
                        f
                        for f in self.files
                        if f.module is not None
                        and f.module.split(".")[0] == "repro"
                    ]
                )
        return self._repro_only

    @property
    def symbols(self) -> SymbolTable:
        if self._symbols is None:
            self._symbols = SymbolTable(self.files)
        return self._symbols

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = CallGraph(self.symbols)
        return self._callgraph

    def module_of(self, path: str) -> str | None:
        facts = self.by_path.get(path)
        return None if facts is None else facts.module

    def in_package(self, path: str, *packages: str) -> bool:
        """Whether ``path``'s module is (inside) one of ``packages``."""
        module = self.module_of(path)
        if module is None:
            return False
        return any(
            module == pkg or module.startswith(pkg + ".") for pkg in packages
        )

    def suppressed(self, path: str, line: int, code: str) -> bool:
        """Whether ``code`` is waived on ``line`` of ``path``."""
        facts = self.by_path.get(path)
        if facts is None:
            return False
        for suppression in facts.suppressions:
            if suppression.line == line and code in suppression.codes:
                return True
        return False


class ProjectRule(Protocol):
    """The module-level protocol phase-2 rule files satisfy."""

    CODE: str
    SUMMARY: str

    @staticmethod
    def check_project(project: Project) -> Iterator[Violation]: ...
