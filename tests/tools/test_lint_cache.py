"""Content-hash fact cache: hits, invalidation on edit, code supersets."""

from __future__ import annotations

import json

from tools.reprolint.cache import CACHE_VERSION
from tools.reprolint.engine import run_lint
from tools.reprolint.rules import r002_float_eq, r004_hygiene

DIRTY = "def f(x=[]):\n    return x\n"
CLEAN = "def f(x=None):\n    return x\n"


def _write(tmp_path, name, source):
    target = tmp_path / name
    target.write_text(source)
    return target


class TestCache:
    def test_second_run_hits_cache_with_same_violations(self, tmp_path):
        _write(tmp_path, "mod.py", DIRTY)
        cache = tmp_path / "cache.json"
        cold = run_lint([tmp_path], cache_path=cache)
        warm = run_lint([tmp_path], cache_path=cache)
        assert cold.cache_misses == 1 and cold.cache_hits == 0
        assert warm.cache_hits == 1 and warm.cache_misses == 0
        assert [v.code for v in cold.violations] == ["R004"]
        assert warm.violations == cold.violations

    def test_edit_invalidates_entry(self, tmp_path):
        target = _write(tmp_path, "mod.py", DIRTY)
        cache = tmp_path / "cache.json"
        assert run_lint([tmp_path], cache_path=cache).violations
        target.write_text(CLEAN)
        fixed = run_lint([tmp_path], cache_path=cache)
        assert fixed.cache_misses == 1
        assert fixed.violations == []

    def test_cached_facts_feed_project_rules(self, tmp_path):
        src = tmp_path / "src" / "repro" / "serve"
        src.mkdir(parents=True)
        (src / "mod.py").write_text(
            "import time\n"
            "def wall():\n"
            "    return time.perf_counter()\n"
            "def compute_digest():\n"
            "    return str(wall())\n"
        )
        cache = tmp_path / "cache.json"
        cold = run_lint([tmp_path / "src"], cache_path=cache)
        warm = run_lint([tmp_path / "src"], cache_path=cache)
        assert warm.cache_hits == 1
        # R010 is a whole-program rule: it must fire identically from
        # cached facts, not just on the parse path.
        assert [v.code for v in cold.violations] == ["R010"]
        assert warm.violations == cold.violations

    def test_an_older_cache_version_is_never_read(self, tmp_path):
        # A version-1 cache still holds lock facts; its entries must be
        # rebuilt, not decoded under the current schema.
        target = _write(tmp_path, "mod.py", DIRTY)
        cache = tmp_path / "cache.json"
        run_lint([tmp_path], cache_path=cache)
        payload = json.loads(cache.read_text())
        assert payload["version"] == CACHE_VERSION > 1
        entry = payload["files"][str(target)]
        entry["facts"]["functions"][0]["lock_events"] = []
        entry["violations"] = []
        payload["version"] = 1
        cache.write_text(json.dumps(payload))
        rerun = run_lint([tmp_path], cache_path=cache)
        assert rerun.cache_misses == 1 and rerun.cache_hits == 0
        assert [v.code for v in rerun.violations] == ["R004"]
        assert json.loads(cache.read_text())["version"] == CACHE_VERSION

    def test_cache_entry_requires_code_superset(self, tmp_path):
        # R002 only applies to src/repro modules, so give the file a
        # real module path.
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "mod.py").write_text(DIRTY + "assert 0.1 == x\n")
        cache = tmp_path / "cache.json"
        run_lint([tmp_path / "src"], rules=(r004_hygiene,), cache_path=cache)
        widened = run_lint(
            [tmp_path / "src"],
            rules=(r004_hygiene, r002_float_eq),
            cache_path=cache,
        )
        # The cached entry only covered R004, so asking for R002 too
        # must re-extract instead of silently under-reporting.
        assert widened.cache_misses == 1
        assert sorted(v.code for v in widened.violations) == ["R002", "R004"]

    def test_narrower_selection_filters_cached_violations(self, tmp_path):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "mod.py").write_text(DIRTY + "assert 0.1 == x\n")
        cache = tmp_path / "cache.json"
        run_lint(
            [tmp_path / "src"],
            rules=(r004_hygiene, r002_float_eq),
            cache_path=cache,
        )
        narrow = run_lint(
            [tmp_path / "src"], rules=(r002_float_eq,), cache_path=cache
        )
        assert narrow.cache_hits == 1
        assert [v.code for v in narrow.violations] == ["R002"]

    def test_stale_entries_pruned(self, tmp_path):
        doomed = _write(tmp_path, "doomed.py", DIRTY)
        _write(tmp_path, "kept.py", CLEAN)
        cache = tmp_path / "cache.json"
        run_lint([tmp_path], cache_path=cache)
        doomed.unlink()
        run_lint([tmp_path], cache_path=cache)
        payload = json.loads(cache.read_text())
        assert [p for p in payload["files"]] == [str(tmp_path / "kept.py")]

    def test_corrupt_cache_is_ignored(self, tmp_path):
        _write(tmp_path, "mod.py", DIRTY)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        result = run_lint([tmp_path], cache_path=cache)
        assert result.cache_misses == 1
        assert [v.code for v in result.violations] == ["R004"]
