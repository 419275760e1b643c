import csv
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import rvolest.blas as blas_mod
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


@pytest.fixture
def fresh_pool():
    """No shared pool before the test, and none left after it."""
    montecarlo_mod._close_pool()
    yield
    montecarlo_mod._close_pool()


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

    @pytest.mark.parametrize("field, value", [
        ("replications", True), ("replications", 2.5), ("replications", "4"),
        ("threads", True), ("threads", 1.5), ("threads", None),
    ], ids=["reps-bool", "reps-fraction", "reps-text", "threads-bool", "threads-fraction",
            "threads-none"])
    def test_counts_must_be_integers(self, field, value):
        # replications=True ran one replication; threads=1.5 failed inside run_plan
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got "):
            small_plan(**{field: value})

    def test_whole_counts_are_stored_as_ints(self):
        plan = small_plan(replications=4.0, threads=np.int64(2))
        assert (plan.replications, plan.threads) == (4, 2)
        assert (type(plan.replications), type(plan.threads)) == (int, int)

    @pytest.mark.parametrize("threads, replications, workers", [
        (2, 1, None), (4, 2, 2), (2, 3, 2), (1, 3, None),
    ])
    def test_pool_only_where_it_can_pay(self, monkeypatch, fresh_pool,
                                        threads, replications, workers):
        # min(threads, replications) workers, and no pool at all for one
        built = []

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                assert max_workers > 1, "a one-worker pool only adds its start-up cost"
                built.append(max_workers)

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

            def shutdown(self, wait=True):
                pass

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
    counts = [get_threads() for _, get_threads in blas_mod.openblas_thread_controls()]
    return counts, len(os.listdir("/proc/self/task"))


@pytest.fixture
def openblas():
    controls = blas_mod.openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    return controls


def test_pool_initializer_pins_blas_to_one_thread(openblas):
    # a worker that did not inherit the pin (under another start method,
    # say) must set one BLAS thread itself
    with ProcessPoolExecutor(max_workers=1,
                             initializer=blas_mod.single_thread_blas) as pool:
        counts, _ = pool.submit(_blas_state).result(timeout=120)
    assert set(counts) == {1}


def test_workers_forked_under_the_pin_start_no_blas_threads(openblas):
    # run_plan's pool: workers inherit one BLAS thread, so the initializer
    # leaves OpenBLAS alone and no thread beyond the worker's own starts;
    # the caller's counts come back afterwards
    before = [get_threads() for _, get_threads in openblas]
    with blas_mod.pinned_to_one_thread(), ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork"),
            initializer=blas_mod.single_thread_blas) as pool:
        counts, os_threads = pool.submit(_blas_state).result(timeout=120)
    assert set(counts) == {1} and os_threads == 1
    assert [get_threads() for _, get_threads in openblas] == before


@pytest.fixture
def built_pools(monkeypatch, fresh_pool):
    """The worker count of every real pool that run_plan starts."""
    built = []

    class RecordingExecutor(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(montecarlo_mod, "ProcessPoolExecutor", RecordingExecutor)
    return built


def _raw_bytes(table):
    return table.raw_theta.tobytes(), table.raw_u.tobytes()


def _pooled_raw_bytes_into(queue):
    queue.put(_raw_bytes(run_plan(small_plan(threads=2))))


class TestSharedPool:
    def test_one_pool_per_worker_count(self, built_pools):
        run_plan(small_plan(threads=2))
        run_plan(small_plan(threads=2))
        assert built_pools == [2]
        run_plan(small_plan(threads=3))
        assert built_pools == [2, 3]
        run_plan(small_plan(replications=1, threads=2))
        assert built_pools == [2, 3]

    def test_plans_sharing_a_pool_match_serial_runs(self, built_pools):
        plan_b = dict(preset="sec6-1-clean", estimators=(RobustConfig.hoelder(0.5),))
        expected = [_raw_bytes(run_plan(small_plan(threads=1))),
                    _raw_bytes(run_plan(small_plan(threads=1, **plan_b)))]
        got = [_raw_bytes(run_plan(small_plan(threads=2))),
               _raw_bytes(run_plan(small_plan(threads=2, **plan_b))),
               _raw_bytes(run_plan(small_plan(threads=2)))]
        assert got == [expected[0], expected[1], expected[0]]
        assert built_pools == [2]

    def test_forked_child_starts_its_own_pool(self, fresh_pool):
        # the child inherits the parent's pool but not its manager thread;
        # using that pool would hang, and so would exiting with its own
        expected = _raw_bytes(run_plan(small_plan(threads=2)))
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_pooled_raw_bytes_into, args=(queue,))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=60)
            if child.is_alive():
                # a hung child's own workers would outlive it
                with open(f"/proc/{child.pid}/task/{child.pid}/children") as fh:
                    workers = [int(pid) for pid in fh.read().split()]
                child.kill()
                for pid in workers:
                    os.kill(pid, signal.SIGKILL)
                child.join(timeout=10)
        assert child.exitcode == 0
        assert got == expected

    def test_dead_idle_worker_is_replaced(self, fresh_pool):
        expected = _raw_bytes(run_plan(small_plan(threads=1)))
        run_plan(small_plan(threads=2))
        victim = multiprocessing.active_children()[0].pid
        os.kill(victim, signal.SIGKILL)
        # the pool reaps its workers only after it has marked itself broken
        deadline = time.monotonic() + 60
        while os.path.exists(f"/proc/{victim}") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not os.path.exists(f"/proc/{victim}")
        assert _raw_bytes(run_plan(small_plan(threads=2))) == expected

    def test_no_worker_outlives_its_process(self):
        code = ("import multiprocessing\n"
                "from rvolest import ExperimentPlan, RobustConfig, get_preset, run_plan\n"
                "run_plan(ExperimentPlan(get_preset('sec6-1-spike', n=150, seed=42),\n"
                "                        (RobustConfig.gqlf(),), replications=2, threads=2))\n"
                "print(*(p.pid for p in multiprocessing.active_children()))\n")
        src = os.path.dirname(os.path.dirname(montecarlo_mod.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        assert [pid for pid in pids if os.path.exists(f"/proc/{pid}")] == []

    def test_workers_exit_when_their_process_is_killed(self, tmp_path):
        # a killed process shuts no pool down: its idle workers used to stay,
        # re-parented to init and holding its stdout open
        code = ("import multiprocessing, os, signal, sys\n"
                "from rvolest import ExperimentPlan, RobustConfig, get_preset, run_plan\n"
                "run_plan(ExperimentPlan(get_preset('sec6-1-spike', n=150, seed=42),\n"
                "                        (RobustConfig.gqlf(),), replications=2, threads=2))\n"
                "with open(sys.argv[1], 'w') as fh:\n"
                "    print(*(p.pid for p in multiprocessing.active_children()), file=fh)\n"
                "os.kill(os.getpid(), signal.SIGKILL)\n")
        src = os.path.dirname(os.path.dirname(montecarlo_mod.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        pid_file = tmp_path / "pids"
        pids = []
        try:
            done = subprocess.run([sys.executable, "-c", code, pid_file], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=120)
            assert done.returncode == -signal.SIGKILL
            pids = [int(pid) for pid in pid_file.read_text().split()]
            assert len(pids) == 2
            deadline = time.monotonic() + 5
            while _running(pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _running(pids) == []
        finally:
            for pid in _running(pids):
                os.kill(pid, signal.SIGKILL)

    def test_workers_inherit_the_optimizer(self):
        # `import rvolest` does not load scipy.optimize; the first pooled plan
        # imports it before the workers fork, so that no worker imports it
        # for itself and scipy's OpenBLAS is loaded before the BLAS pin
        code = ("import sys\n"
                "import rvolest.montecarlo as mc\n"
                "def probe(job):\n"
                "    return 'scipy.optimize' in sys.modules\n"
                "probe.__module__, probe.__qualname__ = mc.__name__, '_run_replication'\n"
                "mc._run_replication = probe  # the workers look it up by name\n"
                "print('scipy.optimize' in sys.modules, mc._run_pooled(2, [0, 1]))\n")
        src = os.path.dirname(os.path.dirname(montecarlo_mod.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "False [True, True]"


def _running(pids):
    """The pids that name a live process; an exited, unreaped one is a zombie."""
    running = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rpartition(")")[2].split()[0]
        except OSError:
            continue
        if state != "Z":
            running.append(pid)
    return running


def test_estimator_label():
    assert estimator_label(RobustConfig.gqlf())[0] == "gqlf"
    assert estimator_label(RobustConfig.hoelder(0.25)) == ("holder", 0.25)
