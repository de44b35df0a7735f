"""The paper's expected shape of every registry entry, as one check each.

``CHECKS[experiment_id](result)`` returns the claims the result breaks,
one line each, so an empty list means the shape holds.  Each claim is
stated in terms that hold at default scale over all of ``SEEDS``; the
``expectation`` string of an experiment is its prose summary, printed
into the goldens.

Two suites use the checks:

- tier-1 (``test_registry.py``) runs every entry at ``SMOKE_SCALE``
  and asserts the checks whose shape holds at that scale, plus one
  counter-example per check that it must reject;
- the nightly job runs this file by path (it is not named ``test_*``,
  so tier-1 does not collect it): every entry at ``DEFAULT_SCALE`` over
  five seeds, every check asserted::

      PYTHONPATH=src python -m pytest -q tests/experiments/shapes.py
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import pytest

from repro.experiments.configs import DEFAULT_SCALE
from repro.experiments.registry import run_experiment
from repro.experiments.reporting import ExperimentResult

Row = Mapping[str, object]
Check = Callable[[ExperimentResult], list[str]]

#: The seeds every claim is measured at, nightly.
SEEDS = (1998, 7, 4242, 11, 2024)


def _failed(claims: Sequence[tuple[str, bool]]) -> list[str]:
    """The text of every claim that does not hold."""
    return [claim for claim, holds in claims if not holds]


def _by(result: ExperimentResult, *keys: str) -> dict[object, Row]:
    """Rows indexed by one column's value, or by a tuple of columns'."""
    if len(keys) == 1:
        return {row[keys[0]]: row for row in result.rows}
    return {tuple(row[key] for key in keys): row for row in result.rows}


def _chunk_beats_query(
    rows: dict[object, Row], streams: Sequence[str]
) -> list[tuple[str, bool]]:
    """Chunk caching wins on CSR and on late-stream time, per stream."""
    claims = []
    for stream in streams:
        chunk, query = rows[(stream, "chunk")], rows[(stream, "query")]
        claims += [
            (
                f"{stream}: chunk CSR {chunk['csr']:.4f} > "
                f"query {query['csr']:.4f}",
                chunk["csr"] > query["csr"],
            ),
            (
                f"{stream}: chunk time {chunk['mean_time_last']:.2f} < "
                f"query {query['mean_time_last']:.2f}",
                chunk["mean_time_last"] < query["mean_time_last"],
            ),
        ]
    return claims


def _knob_cuts_pages(result: ExperimentResult) -> list[tuple[str, bool]]:
    """An ablation's second row (the knob on) reads fewer backend pages
    than its first (the knob off)."""
    off, on = result.rows
    return [(
        f"pages {on['pages_read']} with the knob on < "
        f"{off['pages_read']} off",
        on["pages_read"] < off["pages_read"],
    )]


def check_table1(result: ExperimentResult) -> list[str]:
    return _failed([
        (f"notes {result.notes!r} say the schema matches the paper",
         result.notes == "matches the paper exactly"),
        (f"{len(result.rows)} levels == 3", len(result.rows) == 3),
    ])


def check_table2(result: ExperimentResult) -> list[str]:
    streams = result.column("Stream")
    claims = [
        (f"streams {streams}", streams == ["Random", "EQPR", "Proximity"])
    ]
    for row in result.rows:
        realized, nominal = row["realized_proximity"], row["Proximity"]
        claims.append((
            f"{row['Stream']}: realized proximity {realized:.4f} within "
            f"0.12 of {nominal}",
            abs(realized - nominal) < 0.12,
        ))
    return _failed(claims)


def check_fig9(result: ExperimentResult) -> list[str]:
    rows = _by(result, "stream", "scheme")
    streams = ("Random", "EQPR", "Proximity")
    gap = {
        stream: rows[(stream, "chunk")]["csr"] - rows[(stream, "query")]["csr"]
        for stream in streams
    }
    ratios = [
        rows[(s, "query")]["mean_time_last"]
        / rows[(s, "chunk")]["mean_time_last"]
        for s in streams
    ]
    mean_ratio = sum(ratios) / len(ratios)
    return _failed(_chunk_beats_query(rows, streams) + [
        (
            f"CSR gap widens: Proximity {gap['Proximity']:.4f} > "
            f"Random {gap['Random']:.4f}",
            gap["Proximity"] > gap["Random"],
        ),
        (f"mean time ratio {mean_ratio:.2f} > 1.5", mean_ratio > 1.5),
    ])


def check_fig10(result: ExperimentResult) -> list[str]:
    rows = _by(result, "stream", "scheme")
    chunk, query = rows[("Q100", "chunk")], rows[("Q100", "query")]
    gap = chunk["csr"] - query["csr"]
    return _failed(_chunk_beats_query(rows, ("Q60", "Q80", "Q100")) + [
        (f"Q100 chunk CSR {chunk['csr']:.4f} > 0.6", chunk["csr"] > 0.6),
        (f"Q100 CSR gap {gap:.4f} > 0.2", gap > 0.2),
    ])


def check_csr_sim(result: ExperimentResult) -> list[str]:
    rows = _by(result, "scheme")
    chunk, query = rows["chunk"], rows["query"]
    gap = chunk["csr"] - query["csr"]
    return _failed([
        (f"chunk tail CSR {chunk['csr_tail']:.4f} > 0.9",
         chunk["csr_tail"] > 0.9),
        (f"CSR gap {gap:.4f} > 0.25", gap > 0.25),
        (f"query redundancy {query['redundancy']:.2f} > 1",
         query["redundancy"] > 1.0),
    ])


def check_fig11(result: ExperimentResult) -> list[str]:
    csr = result.column("csr")
    times = result.column("mean_time_last")
    return _failed([
        (f"CSR never falls by more than 0.01: {csr}",
         all(b >= a - 0.01 for a, b in zip(csr, csr[1:]))),
        (f"time never rises by more than 5 %: {times}",
         all(b <= a * 1.05 for a, b in zip(times, times[1:]))),
        (f"CSR span {csr[-1] - csr[0]:.4f} > 0.03", csr[-1] - csr[0] > 0.03),
        (f"first time {times[0]:.2f} > last {times[-1]:.2f}",
         times[0] > times[-1]),
    ])


def check_fig12(result: ExperimentResult) -> list[str]:
    # Finest granularity first: the hierarchy makes the ratio ->
    # chunk-count map non-monotone, so order by the chunk count.
    points = sorted(result.rows, key=lambda row: -row["base_chunks"])
    times = [row["mean_time"] for row in points]
    best = min(range(len(times)), key=times.__getitem__)
    return _failed([
        (f"interior optimum: index {best} of {times}",
         0 < best < len(times) - 1),
        (f"finest end {times[0]:.2f} > 1.05 x optimum {times[best]:.2f}",
         times[0] > times[best] * 1.05),
        (f"coarsest end {times[-1]:.2f} > 1.05 x optimum {times[best]:.2f}",
         times[-1] > times[best] * 1.05),
    ])


def check_fig13(result: ExperimentResult) -> list[str]:
    rows = _by(result, "policy")
    benefit, clock = rows["benefit"], rows["clock"]
    return _failed([
        (f"benefit CSR {benefit['csr']:.4f} > clock {clock['csr']:.4f}",
         benefit["csr"] > clock["csr"]),
        (f"benefit time {benefit['mean_time_last']:.2f} < "
         f"clock {clock['mean_time_last']:.2f}",
         benefit["mean_time_last"] < clock["mean_time_last"]),
        (f"both evict: benefit {benefit['evictions']}, "
         f"clock {clock['evictions']}",
         benefit["evictions"] > 0 and clock["evictions"] > 0),
    ])


def check_fig14(result: ExperimentResult) -> list[str]:
    claims = []
    for row in result.rows:
        claims += [
            (f"width {row['width']}: chunked pages "
             f"{row['pages_chunked']:.2f} < random {row['pages_random']:.2f}",
             row["pages_chunked"] < row["pages_random"]),
            (f"width {row['width']}: speedup {row['speedup']:.2f} > 2",
             row["speedup"] > 2.0),
        ]
    gaps = [row["pages_random"] - row["pages_chunked"] for row in result.rows]
    claims.append((
        f"page gap grows: {gaps[-1]:.2f} > {gaps[0]:.2f}", gaps[-1] > gaps[0]
    ))
    return _failed(claims)


def check_feller(result: ExperimentResult) -> list[str]:
    claims = []
    for row in result.rows:
        model, measured = row["model_random"], row["measured_random"]
        claims += [
            (f"width {row['width']}: model {model:.2f} within rel 0.25 / "
             f"abs 5 of measured {measured:.2f}",
             abs(model - measured) <= max(0.25 * measured, 5)),
            (f"width {row['width']}: chunked "
             f"{row['measured_chunked']:.2f} < 0.5 x random {measured:.2f}",
             row["measured_chunked"] < 0.5 * measured),
        ]
    return _failed(claims)


def check_multiuser(result: ExperimentResult) -> list[str]:
    rows = _by(result, "configuration")
    shared, partitioned = rows["shared"], rows["partitioned"]
    concurrent = rows["shared-concurrent"]
    return _failed([
        (f"shared CSR {shared['csr']:.4f} > "
         f"partitioned {partitioned['csr']:.4f}",
         shared["csr"] > partitioned["csr"]),
        (f"shared pages {shared['pages_read']} < "
         f"partitioned {partitioned['pages_read']}",
         shared["pages_read"] < partitioned["pages_read"]),
        ("shared-concurrent row equals shared",
         {**concurrent, "configuration": "shared"} == dict(shared)),
    ])


def check_ablation_derive(result: ExperimentResult) -> list[str]:
    off, on = result.rows
    return _failed(_knob_cuts_pages(result) + [
        (f"CSR {on['csr']:.4f} not below {off['csr']:.4f} - 0.01",
         on["csr"] >= off["csr"] - 0.01),
        (f"derived chunks {on['derived_chunks']} > 0",
         on["derived_chunks"] > 0),
    ])


def check_ablation_prefetch(result: ExperimentResult) -> list[str]:
    return _failed(_knob_cuts_pages(result))


def check_ablation_materialized(result: ExperimentResult) -> list[str]:
    return _failed(_knob_cuts_pages(result))


def check_ablation_bufferpool(result: ExperimentResult) -> list[str]:
    rows = _by(result, "buffer_fraction")
    small, large = rows[0.02]["pages_read"], rows[0.5]["pages_read"]
    return _failed([
        (f"50 % pool pages {large} < 2 % pool pages {small}", large < small),
    ])


#: Experiment id -> its shape check, in registry order.
CHECKS: dict[str, Check] = {
    "table1": check_table1,
    "table2": check_table2,
    "fig9": check_fig9,
    "fig10": check_fig10,
    "csr_sim": check_csr_sim,
    "fig11": check_fig11,
    "fig12": check_fig12,
    "fig13": check_fig13,
    "fig14": check_fig14,
    "feller": check_feller,
    "multiuser": check_multiuser,
    "ablation_derive": check_ablation_derive,
    "ablation_prefetch": check_ablation_prefetch,
    "ablation_materialized": check_ablation_materialized,
    "ablation_bufferpool": check_ablation_bufferpool,
}


# Seeds vary slowest, so the entries of one seed share its memoized
# system.
@pytest.mark.parametrize("experiment_id", list(CHECKS))
@pytest.mark.parametrize("seed", SEEDS)
def test_shape_holds_at_default_scale(seed, experiment_id):
    result = run_experiment(
        experiment_id, DEFAULT_SCALE.with_overrides(seed=seed)
    )
    assert CHECKS[experiment_id](result) == []
