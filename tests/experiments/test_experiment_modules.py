"""Unit tests for individual experiment modules' helpers and knobs."""

import pytest

from repro.core.metrics import QueryRecord, StreamMetrics
from repro.experiments import csr_sim, fig9, fig10, fig12, fig14
from repro.experiments.configs import SMOKE_SCALE
from repro.experiments.harness import run_stream
from repro.exceptions import ExperimentError


class TestCsrSimHelpers:
    def test_tail_csr_uses_late_records(self):
        metrics = StreamMetrics()
        # Early: all misses; late: all hits.
        for _ in range(10):
            metrics.record(
                QueryRecord(time=1, full_cost=10, saved_cost=0,
                            chunks_total=1, chunks_hit=0)
            )
        for _ in range(10):
            metrics.record(
                QueryRecord(time=0, full_cost=10, saved_cost=10,
                            chunks_total=1, chunks_hit=1)
            )
        assert metrics.cost_saving_ratio() == pytest.approx(0.5)
        assert csr_sim._tail_csr(metrics, fraction=0.5) == pytest.approx(1.0)

    def test_tail_csr_empty(self):
        assert csr_sim._tail_csr(StreamMetrics()) == 0.0

    def test_tail_csr_zero_cost_tail(self):
        """Regression (R002): a free-query tail is 0.0, not 0/0 — guarded
        by ordering, so denormal-tiny totals divide normally too."""
        metrics = StreamMetrics()
        for _ in range(4):
            metrics.record(
                QueryRecord(time=0, full_cost=0.0, saved_cost=0.0,
                            chunks_total=1, chunks_hit=1)
            )
        assert csr_sim._tail_csr(metrics, fraction=0.5) == 0.0
        metrics.record(
            QueryRecord(time=0, full_cost=5e-324, saved_cost=5e-324,
                        chunks_total=1, chunks_hit=1)
        )
        assert csr_sim._tail_csr(metrics, fraction=0.2) == pytest.approx(1.0)

    def test_stream_multiplier_matches_paper_ratio(self):
        # Paper: 5000-query simulation against 1500-query streams.
        assert csr_sim.STREAM_MULTIPLIER == pytest.approx(5000 / 1500)


class TestArmsStartCold:
    """Every chunk-vs-query arm starts from the same cold backend: an
    empty buffer pool and no disk read yet (``reset_backend``)."""

    @pytest.mark.parametrize(
        "experiment,arms",
        [(fig9, 6), (fig10, 6), (csr_sim, 2)],
        ids=["fig9", "fig10", "csr_sim"],
    )
    def test_every_arm_starts_with_an_empty_pool(
        self, monkeypatch, experiment, arms
    ):
        starts = []

        def spy(manager, stream, *args, **kwargs):
            backend = manager.backend
            starts.append((len(backend.buffer_pool), backend.disk.stats.reads))
            return run_stream(manager, stream, *args, **kwargs)

        # Each module that drives arms calls run_stream by its own name.
        for module in (fig9, fig10, csr_sim):
            monkeypatch.setattr(module, "run_stream", spy, raising=False)
        experiment.run(SMOKE_SCALE)
        assert starts == [(0, 0)] * arms


class TestFig12Knobs:
    def test_ratios_cover_both_extremes(self):
        assert min(fig12.CHUNK_RATIOS) <= 0.1
        assert max(fig12.CHUNK_RATIOS) >= 0.5

    def test_stream_capped(self):
        scale = SMOKE_SCALE.with_overrides(num_queries=10_000)
        # run() internally caps; the cap constant must be sane.
        assert fig12.MAX_QUERIES <= 1000


class TestFig14Builder:
    def test_builder_validation(self):
        with pytest.raises(ExperimentError):
            fig14.build_bitmap_setup(distinct_values=2)

    def test_same_data_both_organizations(self):
        setup = fig14.build_bitmap_setup(
            distinct_values=40, density=0.3, tuples_per_cell=1,
            page_size=1024,
        )
        random_rows = sorted(
            map(tuple, setup.random_engine.fact_file.read_all().to_records().tolist())
        )
        chunked_rows = sorted(
            map(tuple, setup.chunked_engine.fact_file.read_all().to_records().tolist())
        )
        assert random_rows == chunked_rows

    def test_random_engine_not_clustered(self):
        import numpy as np

        from repro.storage.chunkedfile import tuple_chunk_numbers

        setup = fig14.build_bitmap_setup(
            distinct_values=40, density=0.3, tuples_per_cell=1,
            page_size=1024,
        )
        stored = setup.random_engine.fact_file.read_all()
        numbers = tuple_chunk_numbers(
            setup.random_engine.space.base_grid, stored, ("A", "B")
        )
        assert not np.all(np.diff(numbers) >= 0)
