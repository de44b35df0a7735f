"""Tests for tools.benchpairs: quartiles, the verdicts, the two exits."""

from pathlib import Path

import pytest

from tools import benchpairs
from tools.benchpairs import Run, judge, pair_problems, quartiles

REPO_ROOT = Path(__file__).resolve().parents[2]

QPS = {"name": "qps", "better": "higher", "bound": 0.25}
LATENCY = {"name": "lat_p99_ms", "better": "lower", "bound": 0.25}


def run(csr=0.5, pages=100.0, qps=300.0, attempted=1000, failed=0):
    return Run(
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": 0.3, "qps": qps, "lat_p50_ms": 1.5,
            "lat_p99_ms": 25.0, "csr": csr,
            "backend_pages_per_query": pages, "peak_rss_mb": 170.0,
        },
    )


class TestQuartiles:
    def test_single_value_is_its_own_quartiles(self):
        assert quartiles([3.0]) == (3.0, 3.0, 3.0)

    def test_inclusive_method(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert quartiles([1.0, 3.0]) == (1.5, 2.0, 2.5)

    def test_order_does_not_matter(self):
        assert quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)


class TestGainVerdict:
    BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0,
            109.0]

    def test_ten_wins_beyond_the_base_spread(self):
        verdict = judge(QPS, self.BASE, [b + 50.0 for b in self.BASE])
        assert (verdict.wins, verdict.ties, verdict.gain) == (10, 0, "yes")

    def test_nine_of_ten_wins_is_enough(self):
        tree = [b + 50.0 for b in self.BASE]
        tree[3] = self.BASE[3] - 1.0
        assert judge(QPS, self.BASE, tree).gain == "yes"

    def test_eight_of_ten_wins_is_not(self):
        tree = [b + 50.0 for b in self.BASE]
        tree[3] = tree[4] = 0.0
        verdict = judge(QPS, self.BASE, tree)
        assert (verdict.wins, verdict.gain) == (8, "no")

    def test_medians_inside_the_base_spread_are_no_gain(self):
        # Wins every pair, but by less than the base's q3 - q1 (4.5).
        verdict = judge(QPS, self.BASE, [b + 1.0 for b in self.BASE])
        assert (verdict.wins, verdict.gain) == (10, "no")

    def test_ties_count_for_neither_side(self):
        tree = [b + 50.0 for b in self.BASE]
        tree[0], tree[1] = self.BASE[0], self.BASE[1]
        verdict = judge(QPS, self.BASE, tree)
        assert (verdict.wins, verdict.ties) == (8, 2)
        # Eight wins of ten pairs run: a tie is not a win.
        assert verdict.gain == "no"

    def test_fewer_than_ten_pairs_support_no_verdict(self):
        verdict = judge(QPS, self.BASE[:9], [b + 50.0 for b in self.BASE[:9]])
        assert (verdict.wins, verdict.gain) == (9, "-")

    def test_lower_is_better(self):
        verdict = judge(LATENCY, self.BASE, [b - 50.0 for b in self.BASE])
        assert (verdict.wins, verdict.gain) == (10, "yes")
        assert judge(LATENCY, self.BASE, [b + 50.0 for b in self.BASE]).wins == 0


class TestRegressedVerdict:
    def test_worse_by_more_than_the_bound(self):
        assert judge(QPS, [100.0] * 3, [74.0] * 3).regressed == "yes"
        assert judge(LATENCY, [100.0] * 3, [126.0] * 3).regressed == "yes"

    def test_worse_within_the_bound(self):
        assert judge(QPS, [100.0] * 3, [75.0] * 3).regressed == "no"
        assert judge(LATENCY, [100.0] * 3, [125.0] * 3).regressed == "no"

    def test_better_is_never_regressed(self):
        assert judge(QPS, [100.0] * 3, [900.0] * 3).regressed == "no"
        assert judge(LATENCY, [100.0] * 3, [1.0] * 3).regressed == "no"


class TestPairProblems:
    def test_equal_counts_and_no_failures_pass(self):
        assert pair_problems("miss_heavy", 1, run(), run(qps=999.0)) == []

    @pytest.mark.parametrize(
        "changed, name",
        [({"csr": 0.5000001}, "csr"),
         ({"pages": 100.5}, "backend_pages_per_query")],
    )
    def test_a_count_that_differs_names_workload_and_pair(self, changed, name):
        (problem,) = pair_problems("miss_heavy", 4, run(), run(**changed))
        assert "miss_heavy, pair 4" in problem
        assert name in problem

    def test_larger_failed_share_on_the_tree(self):
        (problem,) = pair_problems(
            "front_dup", 2, run(failed=1), run(failed=2)
        )
        assert "front_dup, pair 2" in problem
        assert "failed 2 of 1000" in problem

    def test_equal_or_smaller_failed_share_passes(self):
        assert pair_problems("w", 1, run(failed=2), run(failed=2)) == []
        assert pair_problems("w", 1, run(failed=2), run(failed=0)) == []
        # 2 of 2000 is the share 1 of 1000 is.
        assert pair_problems(
            "w", 1, run(failed=1), run(attempted=2000, failed=2)
        ) == []


class TestMainExits:
    """``main`` over synthetic runs: no git export, no benchmark."""

    @pytest.fixture()
    def sides(self, monkeypatch):
        """Queue the ``Run`` each side's next benchmark call returns."""
        queues = {"base": [], "tree": []}

        def fake_run_once(command, checkout):
            side = "tree" if checkout == REPO_ROOT else "base"
            return queues[side].pop(0)

        monkeypatch.chdir(REPO_ROOT)
        monkeypatch.setattr(benchpairs, "export_revision", lambda *_: None)
        monkeypatch.setattr(benchpairs, "run_once", fake_run_once)
        return queues

    ARGS = ["--base", "HEAD", "--workload", "miss_heavy", "--pairs", "2"]

    def test_clean_pairs_exit_zero_with_both_verdict_columns(
        self, sides, capsys
    ):
        sides["base"] += [run(), run()]
        sides["tree"] += [run(qps=400.0), run(qps=410.0)]
        assert benchpairs.main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "gain" in out and "regressed" in out

    def test_count_mismatch_exits_one_at_that_pair(self, sides, capsys):
        sides["base"] += [run(), run()]
        sides["tree"] += [run(), run(pages=101.0)]
        assert benchpairs.main(self.ARGS) == 1
        err = capsys.readouterr().err
        assert "miss_heavy, pair 2: backend_pages_per_query differs" in err

    def test_failed_share_exits_one_before_later_pairs(self, sides, capsys):
        sides["base"] += [run(), run()]
        sides["tree"] += [run(failed=3), run()]
        assert benchpairs.main(self.ARGS) == 1
        assert "miss_heavy, pair 1: the tree failed 3" in capsys.readouterr().err
        # The second pair never ran.
        assert len(sides["base"]) == len(sides["tree"]) == 1
