"""Engine behaviour: module paths, suppressions, CLI, file discovery."""

from __future__ import annotations

from pathlib import Path

import pytest

from tools.reprolint.__main__ import main
from tools.reprolint.engine import lint_paths, lint_source, module_path_of
from tools.reprolint.rules import ALL_RULES, RULES_BY_CODE


class TestModulePath:
    def test_module_under_src(self):
        assert (
            module_path_of(Path("src/repro/core/metrics.py"))
            == "repro.core.metrics"
        )

    def test_package_init(self):
        assert module_path_of(Path("src/repro/chunks/__init__.py")) == "repro.chunks"

    def test_outside_src_has_no_module(self):
        assert module_path_of(Path("tests/core/test_cache.py")) is None
        assert module_path_of(Path("tools/reprolint/engine.py")) is None


class TestSuppression:
    def test_ignore_comment_silences_named_code(self):
        code = "def f(x=[]):  # reprolint: ignore[R004] test fixture\n    return x\n"
        assert lint_source(code) == []

    def test_ignore_comment_is_code_specific(self):
        code = "def f(x=[]):  # reprolint: ignore[R001] layering waiver\n    return x\n"
        assert [v.code for v in lint_source(code)] == ["R004"]

    def test_multiple_codes_in_one_comment(self):
        code = "def f(x=[]):  # reprolint: ignore[R001, R004] fixture\n    return x\n"
        assert lint_source(code) == []

    def test_bare_waiver_is_a_violation(self):
        code = "def f(x=[]):  # reprolint: ignore[R004]\n    return x\n"
        assert [v.code for v in lint_source(code)] == ["R000"]

    def test_bare_waiver_cannot_suppress_itself(self):
        code = "x = 1  # reprolint: ignore[R000]\n"
        assert [v.code for v in lint_source(code)] == ["R000"]

    def test_malformed_waiver_is_a_violation(self):
        code = "x = 1  # reprolint ignore R004\n"
        assert [v.code for v in lint_source(code)] == ["R000"]

    def test_waiver_inside_string_literal_is_not_policed(self):
        code = 's = "# reprolint: ignore[R004]"\n'
        assert lint_source(code) == []


class TestRegistry:
    def test_all_rules_registered(self):
        assert sorted(RULES_BY_CODE) == [
            "R000", "R001", "R002", "R003", "R004", "R005", "R006",
            "R007", "R011",
        ]

    def test_rules_have_summaries(self):
        for rule in ALL_RULES:
            assert rule.SUMMARY


class TestPathsAndCli:
    def test_lint_paths_walks_directories(self, tmp_path):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "mod.py").write_text("def f(x={}):\n    return x\n")
        (bad / "__pycache__").mkdir()
        (bad / "__pycache__" / "junk.py").write_text("def g(y=[]):\n    return y\n")
        violations = lint_paths([tmp_path])
        assert [v.code for v in violations] == ["R004"]
        assert "mod.py" in violations[0].path

    def test_lint_paths_reports_syntax_errors(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        seen = []
        lint_paths([tmp_path], on_error=lambda p, e: seen.append(p))
        assert len(seen) == 1

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "R004" in out

    def test_cli_json_format(self, tmp_path, capsys):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main(["--format", "json", str(dirty)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        assert payload["violations"][0]["code"] == "R004"

    def test_cli_github_format(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main(["--format", "github", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "title=reprolint R004" in out

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R000", "R001", "R002", "R011"):
            assert code in out

    def test_cli_select_unknown_code_errors(self):
        with pytest.raises(SystemExit):
            main(["--select", "R999", "src"])


class TestRepoGate:
    def test_repo_is_clean(self):
        """The tree itself passes every rule — the suite pins the gate.

        A violation anywhere under ``src/``, ``tests/`` or
        ``benchmarks/`` fails this test with the rendered findings, so
        the lint gate cannot rot even where CI is not running the
        dedicated job.
        """
        root = Path(__file__).resolve().parents[2]
        violations = lint_paths(
            [root / "src", root / "tests", root / "benchmarks"]
        )
        rendered = "\n".join(v.render() for v in violations)
        assert not violations, f"reprolint violations:\n{rendered}"
