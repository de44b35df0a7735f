"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCLI:
    def test_help(self, capsys):
        assert main([]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table1" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "tuples" in out

    def test_run_one(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "matches the paper exactly" in out

    def test_run_smoke_scale(self, capsys):
        assert main(["run", "table2", "--smoke"]) == 0
        assert "Locality Parameters" in capsys.readouterr().out

    def test_run_unknown_rejected(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


class TestSoakCommand:
    def test_soak_smoke(self, capsys):
        assert (
            main(
                [
                    "soak", "--smoke", "--users", "4",
                    "--per-user", "8", "--shards", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "job: soak" in out
        assert "queries: 32" in out

    def test_chaos_soak_writes_json_report(self, capsys, tmp_path):
        report_path = tmp_path / "chaos.json"
        assert (
            main(
                [
                    "soak", "--smoke", "--chaos", "--rate", "mid",
                    "--seed", "7", "--users", "4", "--per-user", "8",
                    "--shards", "2", "--report", str(report_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "job: chaos-soak" in out
        summary = json.loads(report_path.read_text(encoding="utf-8"))
        assert summary["job"] == "chaos-soak"
        assert summary["seed"] == 7
        assert summary["wrong_answers"] == 0
        assert summary["queries"] + summary["failures"] == 32
        assert (
            summary["pages_read"] + summary["failed_pages"]
            == summary["disk_read_delta"]
        )

    def test_soak_unknown_argument_rejected(self, capsys):
        assert main(["soak", "--bogus"]) == 2
        assert "unknown soak arguments" in capsys.readouterr().err

    def test_soak_flag_missing_value_rejected(self):
        with pytest.raises(SystemExit, match="--seed needs a value"):
            main(["soak", "--chaos", "--seed"])

    @pytest.mark.parametrize("command", ["soak", "front"])
    def test_non_numeric_value_rejected(self, capsys, command):
        assert main([command, "--smoke", "--workers", "x"]) == 2
        err = capsys.readouterr().err
        assert "--workers needs a number, got 'x'" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["soak", "front"])
    def test_exec_flag_is_gone(self, capsys, command):
        assert main([command, "--smoke", "--exec", "processes"]) == 2
        err = capsys.readouterr().err
        assert f"unknown {command} arguments" in err and "--exec" in err
