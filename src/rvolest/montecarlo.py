"""Replication harness: per-estimator means, spreads, coverage, CSV emission.

Each replication r draws its own (Brownian, Jumps, Spikes) streams keyed by
(plan seed, r), runs every configured estimator on the observed path, and
records the estimate, the standardized statistic, the coverage indicator of
the level-(1 - alpha) interval against theta0, timing, and failure flags.
Replications are independent, so the pool size changes wall time only; raw
result matrices are identical for any worker count.  Each pool worker runs
single-threaded BLAS: a worker would otherwise inherit or start OpenBLAS's
thread count, which is sized for the whole machine, so `threads` workers would
oversubscribe the cores and run slower than one process.

A process keeps one pool.  The first pooled plan starts it, and every later
plan with the same worker count reuses it, so only the first pays for the
fork.  Its idle workers keep their memory until the process exits, when
`concurrent.futures` shuts the pool down; a worker whose process is killed
exits on its own.

Failed replications (factorization or singular-curvature errors) are excluded
from the moment columns and counted; non-converged fits keep their estimate
but are excluded from coverage.

The outputs of a replication are the per-replication fields of `SummaryTable`:
`_run_replication` keys its arrays by those field names and `run_plan` stacks
every key into its field, so a new output is one field and one array.
"""

from __future__ import annotations

import csv
import multiprocessing.connection
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.util import Finalize

import numpy as np

from .blas import pinned_to_one_thread, single_thread_blas
from .estimator import _check_alpha, estimate
from .exceptions import RvolestError
from .likelihood import RobustConfig, Variant
from .model import make_builtin
from .simulator import Scenario, _count, simulate


@dataclass(frozen=True)
class ExperimentPlan:
    scenario: Scenario
    estimators: tuple[RobustConfig, ...]
    replications: int
    alpha: float = 0.05
    threads: int = 1

    def __post_init__(self):
        for name in ("replications", "threads"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 1))
        _check_alpha(self.alpha)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.estimators or not all(isinstance(c, RobustConfig) for c in self.estimators):
            raise ValueError("estimators must be one or more RobustConfig, "
                             f"got {self.estimators!r}")


def estimator_label(config: RobustConfig) -> tuple[str, float]:
    """(variant, lambda) pair used in CSV rows; lambda is NaN for gqlf."""
    return config.variant.value, float("nan") if config.variant is Variant.GQLF else config.lam


@dataclass
class SummaryTable:
    theta0: np.ndarray
    labels: list[tuple[str, float]]
    raw_theta: np.ndarray      # (M, n_est, p); NaN where the fit failed
    raw_u: np.ndarray          # (M, n_est, p)
    cover: np.ndarray          # (M, n_est, p); NaN = excluded
    converged: np.ndarray      # (M, n_est) bool
    failed: np.ndarray         # (M, n_est) bool
    times: np.ndarray          # (M, n_est) seconds

    @property
    def p(self) -> int:
        return self.theta0.shape[0]

    def mean(self) -> np.ndarray:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmean(self.raw_theta, axis=0)

    def sd(self) -> np.ndarray:
        counts = np.sum(~np.isnan(self.raw_theta), axis=0)
        if self.raw_theta.shape[0] < 2:
            return np.zeros(counts.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = np.nanstd(self.raw_theta, axis=0, ddof=1)
        return np.where(counts < 2, 0.0, out)

    def coverage(self) -> np.ndarray:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmean(self.cover, axis=0)

    def failure_counts(self) -> np.ndarray:
        return self.failed.sum(axis=0)

    def mean_time(self) -> np.ndarray:
        return self.times.mean(axis=0)


def _run_replication(args) -> dict:
    scenario, estimators, alpha, rep = args
    bundle = simulate(scenario, replication=rep)
    model = make_builtin(scenario.model.name)
    theta0 = scenario.model.theta0_array()
    p = theta0.shape[0]
    out = {  # this replication's row of each SummaryTable field it fills
        "raw_theta": np.full((len(estimators), p), np.nan),
        "raw_u": np.full((len(estimators), p), np.nan),
        "cover": np.full((len(estimators), p), np.nan),
        "converged": np.zeros(len(estimators), dtype=bool),
        "failed": np.zeros(len(estimators), dtype=bool),
        "times": np.zeros(len(estimators)),
    }
    for e, config in enumerate(estimators):
        t0 = time.perf_counter()
        try:
            res = estimate(bundle.observed, model, config, alpha=alpha, theta0=theta0)
        except RvolestError:
            out["failed"][e] = True
            out["times"][e] = time.perf_counter() - t0
            continue
        out["times"][e] = time.perf_counter() - t0
        out["raw_theta"][e] = res.theta_hat
        out["converged"][e] = res.converged
        if res.u_stat is not None:
            out["raw_u"][e] = res.u_stat
        if res.ci is not None and res.converged:
            lo, hi = res.ci[:, 0], res.ci[:, 1]
            covered = (lo <= theta0) & (theta0 <= hi)
            ok = np.isfinite(lo) & np.isfinite(hi)
            out["cover"][e] = np.where(ok, covered.astype(float), np.nan)
    return out


def _exit_with(sentinel) -> None:
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def _init_worker() -> None:
    """Pool initializer: one BLAS thread, and a watcher that ends the worker
    when the process that started the pool dies.  A killed process shuts no
    pool down, and its idle workers would otherwise wait for jobs forever."""
    single_thread_blas()
    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=_exit_with, args=(sentinel,), daemon=True).start()


# The pool that pooled plans share, as (worker count, executor, the finalizer
# that shuts it down), or None before the first pooled plan.
_pool = None
_pool_lock = threading.RLock()


def _forget_inherited_pool() -> None:
    """In a forked child: the parent's pool is not the child's to use or shut
    down, because its manager thread did not survive the fork."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.RLock()


os.register_at_fork(after_in_child=_forget_inherited_pool)


def _close_pool() -> None:
    """Shut the shared pool down, waiting for its jobs, and forget it."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool[2]()
            _pool = None


def _cached_pool(workers: int) -> ProcessPoolExecutor | None:
    with _pool_lock:
        if _pool is not None and _pool[0] == workers:
            return _pool[1]
    return None


def _start_pool(workers: int) -> ProcessPoolExecutor:
    """A new shared pool in place of the old one.  Its workers fork at the
    first submit, so that submit belongs under `pinned_to_one_thread`."""
    global _pool
    with _pool_lock:
        _close_pool()
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker)
        # A multiprocessing child joins its children at exit before the exit
        # hook of concurrent.futures runs, so the pool must be shut down
        # first; priority 20 runs before the queues stop their feeder threads
        # (priority 10), which the shutdown still needs.
        _pool = (workers, pool, Finalize(pool, pool.shutdown, exitpriority=20))
        return pool


def _collect(results) -> list:
    try:
        return list(results)
    except BrokenProcessPool:
        _close_pool()
        raise


def _run_pooled(workers: int, jobs: list) -> list:
    pool = _cached_pool(workers)
    if pool is not None:
        try:
            results = pool.map(_run_replication, jobs, chunksize=1)
        except BrokenProcessPool:
            # map submits every job before it returns, so the pool broke
            # before this plan (a worker died while idle): start a new one
            pass
        else:
            return _collect(results)
    # The plan that starts the pool runs under the pin as a whole: restoring
    # the caller's BLAS thread count restarts OpenBLAS's threads, which spin
    # for a while and would take CPU from the new workers.  The pin also loads
    # the optimizer, which the workers inherit instead of each importing it.
    with pinned_to_one_thread():
        return _collect(_start_pool(workers).map(_run_replication, jobs, chunksize=1))


def run_plan(plan: ExperimentPlan) -> SummaryTable:
    """Execute the plan; deterministic for a given (scenario seed, plan).
    It runs on min(threads, replications) workers, and serially when that
    is 1.  The process's pool is started by its first pooled plan and reused
    by every later one with the same worker count; a plan with another count
    replaces it.  While a plan that starts the pool runs, BLAS in the calling
    process is single-threaded."""
    theta0 = plan.scenario.model.theta0_array()
    jobs = [(plan.scenario, plan.estimators, plan.alpha, rep)
            for rep in range(plan.replications)]
    workers = min(plan.threads, plan.replications)
    if workers > 1:
        records = _run_pooled(workers, jobs)
    else:
        records = [_run_replication(job) for job in jobs]

    stacked = {key: np.stack([r[key] for r in records]) for key in records[0]}
    return SummaryTable(theta0=theta0, labels=[estimator_label(c) for c in plan.estimators],
                        **stacked)


# ---------------------------------------------------------------------------
# CSV emission (full double precision, deterministic ordering)
# ---------------------------------------------------------------------------

def format_cell(x) -> str:
    """A CSV cell: floats at full double precision, anything else via str."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_rows(path: str, header: list[str], rows) -> None:
    """A CSV file: the header, then each row with every cell through format_cell."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


def write_summary_csv(table: SummaryTable, path: str) -> None:
    mean, sd, cov = table.mean(), table.sd(), table.coverage()
    fails, mtime = table.failure_counts(), table.mean_time()
    rows = []
    for e, (variant, lam) in enumerate(table.labels):
        for i in range(table.p):
            rows.append([
                variant, float(lam), i + 1,
                float(mean[e, i]), float(sd[e, i]), float(cov[e, i]),
                int(fails[e]), float(mtime[e]),
            ])
    write_rows(path, ["estimator", "lambda", "coord", "mean", "sd",
                      "coverage", "failures", "mean_time_s"], rows)


def _write_raw_csv(table: SummaryTable, raw: np.ndarray, prefix: str, path: str) -> None:
    """One row per (rep, estimator) of an (M, n_est, p) raw matrix."""
    header = ["rep", "estimator", "lambda"] + [f"{prefix}_{i+1}" for i in range(table.p)]
    rows = []
    for rep in range(raw.shape[0]):
        for e, (variant, lam) in enumerate(table.labels):
            rows.append([rep, variant, float(lam)] + [float(v) for v in raw[rep, e]])
    write_rows(path, header, rows)


def write_raw_theta_csv(table: SummaryTable, path: str) -> None:
    _write_raw_csv(table, table.raw_theta, "theta", path)


def write_raw_u_csv(table: SummaryTable, path: str) -> None:
    _write_raw_csv(table, table.raw_u, "u", path)


def write_lambda_sweep_csv(table: SummaryTable, path: str) -> None:
    mean, sd = table.mean(), table.sd()
    rows = []
    for e, (variant, lam) in enumerate(table.labels):
        if variant == "gqlf":
            continue
        for i in range(table.p):
            rows.append([float(lam), i + 1, float(mean[e, i]), float(sd[e, i])])
    write_rows(path, ["lambda", "coord", "mean", "sd"], rows)
