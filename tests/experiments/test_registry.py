"""The experiment registry, and the shape checks of ``shapes.py``.

Every entry runs at SMOKE scale, and its check is asserted wherever the
shape holds at that scale.  Every check must accept the committed
default-scale golden and reject that golden with its headline claim
broken; the nightly job asserts the checks at default scale over five
seeds.
"""

import copy
import re
from pathlib import Path

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import registry
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.reporting import ExperimentResult
from tests.experiments.shapes import CHECKS

#: ``python -m repro run`` at default scale, seed 1998: every entry.
GOLDEN = Path(__file__).parent / "golden" / "default_all.txt"

#: Entries whose shape needs more than SMOKE scale (seed 1998), and why.
NIGHTLY_ONLY = {
    "table2": "EQPR's realized proximity is 0.32 over 60 queries",
    "fig10": "Q100 chunk CSR is 0.21",
    "csr_sim": "the chunk tail CSR is 0.71",
    "fig11": "CSR is flat at 0.18: the cache never fills",
    "fig13": "no policy evicts",
}


def _cell(text):
    """A rendered table cell back as a bool, int, float or string."""
    if text in ("True", "False"):
        return text == "True"
    for parse in (int, float):
        try:
            return parse(text.replace(",", ""))
        except ValueError:
            pass
    return text


def parse_rendered(text):
    """Experiment id -> result, from ``ExperimentResult.render()`` blocks."""
    results = {}
    for block in text.strip().split("\n\n"):
        head, *lines = block.splitlines()
        experiment_id, title = re.fullmatch(r"\[(\w+)\] (.*)", head).groups()
        expectation = notes = ""
        if lines[0].startswith("expected shape: "):
            expectation = lines.pop(0).removeprefix("expected shape: ")
        if lines[-1].startswith("notes: "):
            notes = lines.pop().removeprefix("notes: ")
        header, rule, *body = lines
        columns = header.split()
        spans = [match.span() for match in re.finditer("-+", rule)]
        rows = [
            {
                col: _cell(line[a:b].strip())
                for col, (a, b) in zip(columns, spans)
            }
            for line in body
        ]
        results[experiment_id] = ExperimentResult(
            experiment_id, title, columns, rows, expectation, notes
        )
    return results


def _swap(column, first, second):
    """A break that swaps two labels of one column (say chunk and query)."""

    def swap(result):
        for row in result.rows:
            if row[column] in (first, second):
                row[column] = second if row[column] == first else first

    return swap


def _copy_column(source, target):
    """A break that makes one column equal another, row by row."""

    def copy_column(result):
        for row in result.rows:
            row[target] = row[source]

    return copy_column


def _reverse_csr(result):
    for row, csr in zip(result.rows, reversed(result.column("csr"))):
        row["csr"] = csr


#: Experiment id -> a break of its headline claim, applied to the golden.
BREAKS = {
    "table1": lambda result: setattr(result, "notes", "MISMATCH"),
    "table2": lambda result: result.rows[-1].update(realized_proximity=0.0),
    "fig9": _swap("scheme", "chunk", "query"),
    "fig10": _swap("scheme", "chunk", "query"),
    "csr_sim": _swap("scheme", "chunk", "query"),
    "fig11": _reverse_csr,
    "fig12": lambda result: max(
        result.rows, key=lambda row: row["base_chunks"]
    ).update(mean_time=0.0),
    "fig13": _swap("policy", "benefit", "clock"),
    "fig14": _copy_column("pages_random", "pages_chunked"),
    "feller": _copy_column("measured_random", "measured_chunked"),
    "multiuser": _swap("configuration", "shared", "partitioned"),
    "ablation_derive": lambda result: result.rows.reverse(),
    "ablation_prefetch": lambda result: result.rows.reverse(),
    "ablation_materialized": lambda result: result.rows.reverse(),
    "ablation_bufferpool": _swap("buffer_fraction", 0.02, 0.5),
}


@pytest.fixture(scope="module")
def golden():
    return parse_rendered(GOLDEN.read_text(encoding="utf-8"))


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(registry.EXPERIMENTS) == {
            "table1", "table2", "fig9", "fig10", "csr_sim",
            "fig11", "fig12", "fig13", "fig14", "feller", "multiuser",
            "ablation_derive", "ablation_prefetch",
            "ablation_materialized", "ablation_bufferpool",
        }

    def test_every_entry_has_one_check(self):
        assert list(CHECKS) == list(registry.EXPERIMENTS)
        assert set(NIGHTLY_ONLY) < set(CHECKS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            registry.run_experiment("fig99")


@pytest.mark.parametrize("experiment_id", list(registry.EXPERIMENTS))
def test_shape_at_smoke_scale(experiment_id):
    problems = CHECKS[experiment_id](
        registry.run_experiment(experiment_id, SMOKE_SCALE)
    )
    if experiment_id not in NIGHTLY_ONLY:
        assert problems == []


@pytest.mark.parametrize("experiment_id", list(CHECKS))
def test_check_accepts_the_golden(golden, experiment_id):
    assert CHECKS[experiment_id](golden[experiment_id]) == []


@pytest.mark.parametrize("experiment_id", list(CHECKS))
def test_check_rejects_its_counter_example(golden, experiment_id):
    broken = copy.deepcopy(golden[experiment_id])
    BREAKS[experiment_id](broken)
    assert CHECKS[experiment_id](broken) != []
