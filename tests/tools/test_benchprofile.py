"""tools.benchprofile end to end, at the benchmark's smoke scale."""

import os

from tools import benchprofile


def test_prints_the_table_and_the_untraced_qps(capsys):
    affinity = os.sched_getaffinity(0)
    code = benchprofile.main(
        ["--workload", "miss_heavy", "--smoke", "--sort", "cumulative",
         "--top", "40"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert os.sched_getaffinity(0) == affinity
    assert "Ordered by: cumulative time" in out
    assert "(request_pages)" in out and "(_drive_miss_heavy)" in out
    assert out.splitlines()[-1].startswith("miss_heavy seed 1998: ")
    assert "qps untraced" in out.splitlines()[-1]
