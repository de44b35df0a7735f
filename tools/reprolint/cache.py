"""Content-hash fact cache for warm ``make lint`` runs.

The expensive half of a lint run is phase 1: parsing every file and
extracting its facts (plus running the per-file rules over the AST).
Both depend only on the file's *content* and on the analyzer itself, so
they are cached under the SHA-256 of the source:

- ``facts`` — the JSON form of :class:`~tools.reprolint.facts.FileFacts`
  (:func:`facts_to_dict` / :func:`facts_from_dict` round-trip);
- ``violations`` — the per-file rule findings, post-suppression, with
  the rule codes they were computed under (a run selecting codes the
  entry doesn't cover recomputes).

Phase 2 (symbol table, call graph, R010) is recomputed every run
from the cached facts — it is cross-file by nature and cheap once
parsing is skipped.

The cache file lives at the repo root (``.reprolint_cache.json``,
git-ignored) and is versioned by :data:`CACHE_VERSION`; bump it whenever
the fact schema or any per-file rule changes behavior, which invalidates
every entry at once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from tools.reprolint.engine import Violation
from tools.reprolint.facts import FileFacts, facts_from_dict, facts_to_dict

__all__ = ["CACHE_VERSION", "DEFAULT_CACHE_PATH", "FactCache"]

#: Bump on any change to fact extraction or per-file rule behavior.
#: Version 2 dropped the lock facts (lock events, held stacks, attribute
#: writes, class lock attributes): a version-1 entry is never read.
CACHE_VERSION = 2

DEFAULT_CACHE_PATH = ".reprolint_cache.json"


class FactCache:
    """SHA-256-keyed store of per-file facts and rule findings."""

    def __init__(self, path: str | Path | None) -> None:
        self.path = None if path is None else Path(path)
        self._entries: dict[str, dict[str, Any]] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            try:
                raw = json.loads(self.path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                raw = None
            if (
                isinstance(raw, dict)
                and raw.get("version") == CACHE_VERSION
                and isinstance(raw.get("files"), dict)
            ):
                self._entries = raw["files"]

    def lookup(
        self, path: str, digest: str, codes: frozenset[str]
    ) -> tuple[FileFacts, list[Violation]] | None:
        """Cached (facts, violations) for ``path`` at ``digest``, or None.

        ``codes`` is the per-file rule set this run needs; an entry only
        hits when it was computed under a superset of those codes.
        """
        entry = self._entries.get(path)
        if entry is None or entry.get("sha256") != digest:
            self.misses += 1
            return None
        if not codes <= set(entry.get("codes", [])):
            self.misses += 1
            return None
        try:
            facts = facts_from_dict(entry["facts"])
            violations = [
                Violation(
                    path=path, line=v[0], col=v[1], code=v[2], message=v[3]
                )
                for v in entry["violations"]
                if v[2] in codes
            ]
        except (KeyError, TypeError, IndexError):
            self.misses += 1
            return None
        self.hits += 1
        return facts, violations

    def store(
        self,
        path: str,
        digest: str,
        codes: frozenset[str],
        facts: FileFacts,
        violations: list[Violation],
    ) -> None:
        self._entries[path] = {
            "sha256": digest,
            "codes": sorted(codes),
            "facts": facts_to_dict(facts),
            "violations": [
                [v.line, v.col, v.code, v.message] for v in violations
            ],
        }
        self._dirty = True

    def prune(self, live_paths: set[str]) -> None:
        """Drop entries for files no longer in the linted set."""
        stale = [p for p in self._entries if p not in live_paths]
        for p in stale:
            del self._entries[p]
            self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        payload = {"version": CACHE_VERSION, "files": self._entries}
        try:
            self.path.write_text(json.dumps(payload), encoding="utf-8")
        except OSError:
            pass  # a read-only checkout just runs cold every time
        self._dirty = False
