"""Tests for the ``python -m repro`` command-line interface."""

import json
import re
import struct
from fnmatch import fnmatch
from pathlib import Path

import pytest

from repro import __main__ as cli
from repro.__main__ import main
from tools import benchpairs

WORKFLOWS = Path(__file__).resolve().parents[1] / ".github" / "workflows"
NIGHTLY = WORKFLOWS / "nightly-soak.yml"

#: Command lines ``soak`` and ``front`` both reject (exit status 2, one
#: line on stderr): (arguments, a fragment of the message).
REJECTED = [
    (["--chaos", "--seed"], "--seed needs a value"),
    (["--smoke", "--users", "0"], "--users must be >= 1, got 0"),
    (["--smoke", "--per-user", "-3"], "--per-user must be >= 1, got -3"),
    (["--smoke", "--workers", "0"], "--workers must be >= 1, got 0"),
    (["--smoke", "--rate", "mid"], "--rate and --seed need --chaos"),
    (["--smoke", "--seed", "7"], "--rate and --seed need --chaos"),
    # Configuration the stack / fault plan refuses (StackError,
    # FaultError) is a usage error too, never a traceback.
    (["--smoke", "--chaos", "--rate", "bogus"], "unknown fault rate"),
    (["--smoke", "--tiers", "3"], "cache_tiers must be 1 or 2"),
    (["--smoke", "--chaos", "--tiers", "2", "--compact-threshold", "2.0"],
     "compact_threshold must be in (0, 1], got 2.0"),
    (["--smoke", "--chaos", "--tiers", "2", "--l2-budget", "-5"],
     "l2_budget_bytes must be >= 0, got -5"),
    # The one L2 store is not an option: the flag is gone, whatever
    # its value.
    (["--smoke", "--tiers", "2", "--l2-backend", "foo"],
     "arguments: ['--l2-backend', 'foo']"),
]


#: One command's arguments: up to the next ``&&``, ``>`` redirection
#: or ``- name:`` of the next step.
ARGUMENTS = r"((?: (?!&&|- |>)\S+)+)"


def _folded(workflow):
    """A workflow's lines folded into one, YAML comments dropped."""
    return " ".join(
        line.strip()
        for line in workflow.read_text(encoding="utf-8").splitlines()
        if not line.lstrip().startswith("#")
    )


def nightly_commands(module="repro", workflow=NIGHTLY):
    """Every ``python -m <module> ...`` argv in a workflow (the nightly;
    for ``repro``: its ``soak`` / ``front`` / ``run`` command lines)."""
    return [
        arguments.split()
        for arguments in re.findall(
            rf"python -m {re.escape(module)}{ARGUMENTS}", _folded(workflow)
        )
    ]


def nightly_goldens():
    """Each nightly ``repro run`` command line (with or without ids) ->
    the golden that its own step's ``diff -u`` compares the output with."""
    return {
        "run" + arguments: golden
        for arguments, golden in re.findall(
            rf"python -m repro run{ARGUMENTS}? > \S+ && diff -u (\S+)",
            _folded(NIGHTLY),
        )
    }


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
        assert main(["report"]) == 2


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

    def test_soak_flag_missing_value_rejected(self, capsys):
        assert main(["soak", "--chaos", "--seed"]) == 2
        assert capsys.readouterr().err == "soak: --seed needs a value\n"

    @pytest.mark.parametrize("command", ["soak", "front"])
    @pytest.mark.parametrize(
        "arguments, message",
        REJECTED,
        ids=[" ".join(arguments) for arguments, _ in REJECTED],
    )
    def test_bad_command_line_exits_2(
        self, capsys, command, arguments, message
    ):
        assert main([command, *arguments]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ") and message in err
        assert len(err.splitlines()) == 1

    def test_negative_cache_bytes_rejected(self, capsys):
        # soak only: front takes no --cache-bytes.
        assert main(["soak", "--smoke", "--chaos", "--cache-bytes", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "soak: cache_bytes must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "command, flag", [("soak", "--shards"), ("front", "--window")]
    )
    def test_own_extra_below_one_rejected(self, capsys, command, flag):
        assert main([command, "--smoke", flag, "0"]) == 2
        assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["soak", "front"])
    def test_non_numeric_value_rejected(self, capsys, command):
        assert main([command, "--smoke", "--workers", "x"]) == 2
        err = capsys.readouterr().err
        assert "--workers needs a number, got 'x'" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "version, page_size, refusal",
        [(2, 4096, "format v2"), (1, 512, "page_size=512")],
    )
    def test_a_persist_file_the_log_refuses_exits_2(
        self, capsys, tmp_path, version, page_size, refusal
    ):
        path = tmp_path / "chunklog.bin"
        header = struct.pack("<4sHI6x", b"RCLG", version, page_size)
        path.write_bytes(header)
        argv = ["soak", "--smoke", "--tiers", "2", "--persist", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("soak: ") and refusal in err and str(path) in err
        assert len(err.splitlines()) == 1
        assert path.read_bytes() == header

    @pytest.mark.parametrize("command", ["soak", "front"])
    def test_exec_flag_is_gone(self, capsys, command):
        assert main([command, "--smoke", "--exec", "processes"]) == 2
        err = capsys.readouterr().err
        assert f"unknown {command} arguments" in err and "--exec" in err


#: The report ``digest`` of three smoke command lines, pinned across
#: commits (the nightly only compares a run with a rerun of itself).
#: A digest hashes every record, failure, fault counter, per-stage trace
#: projection and the final cache occupancy, so a change that moves any
#: of them must say so here.
PINNED_DIGESTS = json.loads(
    Path(__file__).with_name("smoke_digests.json").read_text(encoding="utf-8")
)


class TestPinnedDigests:
    @pytest.mark.parametrize("command_line", sorted(PINNED_DIGESTS))
    def test_digest_is_pinned(self, capsys, tmp_path, command_line):
        report = tmp_path / "report.json"
        assert main([*command_line.split(), "--report", str(report)]) == 0
        capsys.readouterr()
        summary = json.loads(report.read_text(encoding="utf-8"))
        assert summary["digest"] == PINNED_DIGESTS[command_line]


class TestNightlyWorkflow:
    """A CLI change must not be able to break the nightly silently:
    every soak/front command line in the workflow still parses."""

    def test_workflow_commands_found(self):
        commands = nightly_commands()
        assert len(commands) >= 9
        assert {argv[0] for argv in commands} == {"soak", "front", "run"}
        assert any("--cache-bytes" in argv for argv in commands)

    @pytest.mark.parametrize(
        "argv", nightly_commands(), ids=lambda argv: " ".join(argv)
    )
    def test_command_parses(self, argv):
        command, *arguments = argv
        if command == "run":
            # Figures diffed against the golden their own step names,
            # which holds these figures at this scale.  No ids means
            # every registry entry, as for ``python -m repro run``.
            ids, scale = cli._pop_scale(arguments)
            ids = ids or list(cli.EXPERIMENTS)
            assert set(ids) <= set(cli.EXPERIMENTS)
            golden = nightly_goldens()[" ".join(argv)]
            text = (NIGHTLY.parents[2] / golden).read_text(encoding="utf-8")
            assert re.findall(r"^\[(\w+)\] ", text, re.M) == ids
            assert f"{scale.num_tuples} tuples" in text
            return
        parse = {"soak": cli._parse_soak, "front": cli._parse_front}
        flags, config = parse[command](arguments)
        assert flags.chaos == ("--chaos" in arguments)
        assert flags.report_path.endswith("-report.json")
        if "--tiers" in arguments:
            assert flags.cache["cache_tiers"] == 2
            assert flags.cache["persist_path"]
        assert config.max_workers is None

    def test_shape_step_names_the_uncollected_checks(self):
        # Per-push CI must not collect the five-seed shape run, so the
        # file is not named test_*.py; the nightly names it instead.
        (path,) = re.findall(r"python -m pytest -q (\S+)", _folded(NIGHTLY))
        assert (NIGHTLY.parents[2] / path).is_file()
        assert not fnmatch(Path(path).name, "test_*.py")

    @pytest.mark.parametrize(
        "workflow,base,workloads,depth",
        [
            ("nightly-soak.yml", "HEAD~1", ["serve_fair", "tiered_hot"], 2),
            # Per push: every workload, against the merge base.
            ("ci.yml", '"$MERGE_BASE"', None, 0),
        ],
        ids=["nightly", "ci"],
    )
    def test_bench_pairs_step_parses(self, workflow, base, workloads, depth):
        # The exact-metric gate: one short run against an earlier
        # commit, which the checkout must therefore have fetched.
        (argv,) = nightly_commands("tools.benchpairs", WORKFLOWS / workflow)
        options = benchpairs.build_parser().parse_args(argv)
        assert options.base == base
        assert options.workload == workloads
        assert 1 <= options.pairs < benchpairs.MIN_PAIRS
        text = (WORKFLOWS / workflow).read_text(encoding="utf-8")
        assert f"fetch-depth: {depth}" in text
