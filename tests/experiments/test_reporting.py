"""Tests for repro.experiments.reporting."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.reporting import ExperimentResult, format_table


@pytest.fixture()
def result():
    r = ExperimentResult(
        experiment_id="figX",
        title="Some Figure",
        columns=["scheme", "csr", "time"],
        expectation="a beats b",
        notes="tiny scale",
    )
    r.add(scheme="chunk", csr=0.75, time=1234.5)
    r.add(scheme="query", csr=0.0312, time=None)
    return r


class TestExperimentResult:
    def test_add_and_column(self, result):
        assert result.column("scheme") == ["chunk", "query"]
        assert result.column("time") == [1234.5, None]

    def test_unknown_column_rejected(self, result):
        with pytest.raises(ExperimentError):
            result.column("nope")

    def test_render_plain(self, result):
        text = result.render()
        assert "[figX] Some Figure" in text
        assert "expected shape: a beats b" in text
        assert "notes: tiny scale" in text
        assert "chunk" in text and "query" in text


class TestFormatting:
    def test_plain_alignment(self):
        table = format_table(["a", "bb"], [{"a": 1, "bb": 22}])
        lines = table.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("a")

    def test_empty_rows(self):
        table = format_table(["x"], [])
        assert "x" in table

    def test_float_formatting(self):
        table = format_table(
            ["v"],
            [{"v": 0.12345678}, {"v": 12.3456}, {"v": 1234567.0}, {"v": 0.0}],
        )
        assert "0.1235" in table
        assert "12.35" in table
        assert "1,234,567" in table

    def test_missing_key_blank(self):
        table = format_table(["a", "b"], [{"a": 1}])
        assert table.splitlines()[-1].strip().startswith("1")
