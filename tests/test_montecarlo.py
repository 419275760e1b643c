import csv
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import rvolest.montecarlo as montecarlo_mod
from rvolest import (
    CholeskyFailure,
    ExperimentPlan,
    RobustConfig,
    get_preset,
    run_plan,
)
from rvolest.montecarlo import (
    estimator_label,
    write_lambda_sweep_csv,
    write_raw_theta_csv,
    write_raw_u_csv,
    write_summary_csv,
)


def small_plan(replications=4, threads=1, estimators=None, preset="sec6-1-spike", n=150):
    scenario = get_preset(preset, n=n, seed=42)
    if estimators is None:
        estimators = (RobustConfig.gqlf(), RobustConfig.density_power(0.5))
    return ExperimentPlan(
        scenario=scenario,
        estimators=tuple(estimators),
        replications=replications,
        threads=threads,
    )


class TestRunPlan:
    def test_shapes_and_labels(self):
        plan = small_plan()
        table = run_plan(plan)
        assert table.raw_theta.shape == (4, 2, 3)
        assert table.labels[0] == ("gqlf", pytest.approx(float("nan"), nan_ok=True))
        assert table.labels[1] == ("dp", 0.5)
        assert table.failed.sum() == 0
        assert np.all(table.times >= 0.0)

    def test_single_replication_degenerate_stats(self):
        plan = small_plan(replications=1, preset="sec6-1-clean")
        table = run_plan(plan)
        np.testing.assert_array_equal(table.sd(), np.zeros((2, 3)))
        cov = table.coverage()
        assert set(np.unique(cov[np.isfinite(cov)])) <= {0.0, 1.0}

    def test_identical_across_worker_counts(self):
        serial = run_plan(small_plan(threads=1))
        parallel = run_plan(small_plan(threads=2))
        np.testing.assert_array_equal(serial.raw_theta, parallel.raw_theta)
        np.testing.assert_array_equal(serial.raw_u, parallel.raw_u)
        np.testing.assert_array_equal(serial.cover, parallel.cover)

    def test_coverage_excludes_unconverged(self):
        plan = small_plan(replications=3, preset="sec6-1-clean")
        table = run_plan(plan)
        # all converge on clean data at this size
        assert table.converged.all()
        assert np.isfinite(table.cover).all()

    def test_cholesky_failure_counts_as_failed_fit(self, monkeypatch):
        def failing(*args, **kwargs):
            raise CholeskyFailure(index=3)

        monkeypatch.setattr(montecarlo_mod, "estimate", failing)
        table = run_plan(small_plan(replications=2))
        assert table.failed.all()
        assert np.isnan(table.raw_theta).all()
        assert not table.converged.any()

    def test_replications_validated(self):
        with pytest.raises(ValueError):
            small_plan(replications=0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_validated(self, threads):
        with pytest.raises(ValueError, match="thread"):
            small_plan(threads=threads)

    @pytest.mark.parametrize("threads, replications, workers", [
        (2, 1, None), (4, 2, 2), (2, 3, 2), (1, 3, None),
    ])
    def test_pool_only_where_it_can_pay(self, monkeypatch, threads, replications, workers):
        # min(threads, replications) workers, and no pool at all for one
        built = []

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                assert max_workers > 1, "a one-worker pool only adds its start-up cost"
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

        monkeypatch.setattr(montecarlo_mod, "ProcessPoolExecutor", RecordingPool)
        table = run_plan(small_plan(replications=replications, threads=threads))
        assert built == ([] if workers is None else [workers])
        assert table.raw_theta.shape[0] == replications

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_alpha_validated(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentPlan(scenario=get_preset("sec6-1-spike", n=150),
                           estimators=(RobustConfig.gqlf(),), replications=2,
                           alpha=alpha)

    def test_mean_tracks_truth_on_clean_data(self):
        plan = small_plan(replications=8, preset="sec6-1-clean", n=400,
                          estimators=(RobustConfig.gqlf(),))
        table = run_plan(plan)
        np.testing.assert_allclose(table.mean()[0], [-2.0, 3.0, 0.0], atol=0.25)


class TestCsvOutputs:
    def read(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_summary_schema(self, tmp_path):
        table = run_plan(small_plan(replications=2))
        out = tmp_path / "summary.csv"
        write_summary_csv(table, str(out))
        rows = self.read(out)
        assert rows[0] == ["estimator", "lambda", "coord", "mean", "sd",
                           "coverage", "failures", "mean_time_s"]
        assert len(rows) == 1 + 2 * 3

    def test_raw_schema_and_precision(self, tmp_path):
        table = run_plan(small_plan(replications=2))
        theta_file = tmp_path / "raw_theta.csv"
        u_file = tmp_path / "raw_u.csv"
        write_raw_theta_csv(table, str(theta_file))
        write_raw_u_csv(table, str(u_file))
        rows = self.read(theta_file)
        assert rows[0] == ["rep", "estimator", "lambda", "theta_1", "theta_2", "theta_3"]
        assert len(rows) == 1 + 2 * 2
        # 17 significant digits round-trip exactly
        assert float(rows[1][3]) == table.raw_theta[0, 0, 0]
        assert len(self.read(u_file)) == 1 + 2 * 2

    def test_lambda_sweep_excludes_gqlf(self, tmp_path):
        table = run_plan(small_plan(replications=2))
        out = tmp_path / "lambda_sweep.csv"
        write_lambda_sweep_csv(table, str(out))
        rows = self.read(out)
        assert rows[0] == ["lambda", "coord", "mean", "sd"]
        assert len(rows) == 1 + 3
        assert all(row[0] == "0.5" for row in rows[1:])


def _blas_state():
    """(OpenBLAS thread counts, OS threads) of the calling process."""
    counts = [get_threads() for _, get_threads in montecarlo_mod._openblas_thread_controls()]
    return counts, len(os.listdir("/proc/self/task"))


@pytest.fixture
def openblas():
    controls = montecarlo_mod._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    return controls


def test_pool_initializer_pins_blas_to_one_thread(openblas):
    # a worker that did not inherit the pin (under another start method,
    # say) must set one BLAS thread itself
    with ProcessPoolExecutor(max_workers=1,
                             initializer=montecarlo_mod._single_thread_blas) as pool:
        counts, _ = pool.submit(_blas_state).result(timeout=120)
    assert set(counts) == {1}


def test_workers_forked_under_the_pin_start_no_blas_threads(openblas):
    # run_plan's pool: workers inherit one BLAS thread, so the initializer
    # leaves OpenBLAS alone and no thread beyond the worker's own starts;
    # the caller's counts come back afterwards
    before = [get_threads() for _, get_threads in openblas]
    with montecarlo_mod._blas_pinned_to_one_thread(), ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork"),
            initializer=montecarlo_mod._single_thread_blas) as pool:
        counts, os_threads = pool.submit(_blas_state).result(timeout=120)
    assert set(counts) == {1} and os_threads == 1
    assert [get_threads() for _, get_threads in openblas] == before


def test_estimator_label():
    assert estimator_label(RobustConfig.gqlf())[0] == "gqlf"
    assert estimator_label(RobustConfig.hoelder(0.25)) == ("holder", 0.25)
