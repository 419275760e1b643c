"""The benchmark's workloads and its correctness gate.

Every workload is a closed loop with one caller: a batch job that issues its
next call into rvolest only when the previous call has returned.  A run is a
sequence of passes; pass k executes one fixed-size batch built by
`build(name, batch_seed(seed, k))`, through the public API only, and `check`
is the correctness gate.  The same seed always gives the same batches and,
for the same code, byte-identical outputs.

Each pass draws a fresh batch because some costs are rare and large: about
one dp(0.1) fit in sixty on sec6-5-jumpdiff runs Nelder-Mead to its
iteration limit (10 s instead of 60 ms).  A median over passes with fresh
batches shows the typical pass; a batch repeated in every pass would make
the whole run, and so the seed, carry that one fit.  Batches are small,
so that a run has several passes to take the median of, but each spans a
few paths, since the cost of one path varies: one cluster-scan path takes
1.5 to 2.5 s.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import norm, t as student_t

import rvolest as rv
import rvolest.montecarlo as rv_montecarlo
from rvolest import RobustConfig

N = 5000
JUMPDIFF_ESTIMATORS = (RobustConfig.gqlf(), RobustConfig.density_power(0.1))
CLUSTER_CONFIG = RobustConfig.density_power(0.5)
D2_ESTIMATORS = (
    RobustConfig.gqlf(),
    RobustConfig.density_power(0.5),
    RobustConfig.hoelder(0.5),
)
D2_THETA0 = np.array([0.3, -0.4])

JUMPDIFF_REPS, JUMPDIFF_THREADS = 8, 2
CLUSTER_PATHS = 3
D2_PATHS, D2_N = 4, 250
# --tiny sizes, for the smoke test and the warm-up; two tiny passes give the
# gate 16 fits, which keeps its band narrower than a shift of theta0 by 1
TINY_N, TINY_REPS, TINY_PATHS, TINY_D2_N = 500, 8, 8, 100

NAMES = ("mc-jumpdiff", "cluster-scan", "fit-d2")

# The gate's band is a five-sigma normal tail taken at the run's degrees of
# freedom (about 5.8 standard errors at 48 fits, 17 at 8), plus an
# allowance for the estimators' finite-sample bias: criterion 7 accepts a
# jump-diffusion mean 0.03 from the published value.
GATE_TAIL = float(norm.sf(5.0))
BIAS_TOL = 0.03
# Criterion 9 asks each path for capture >= 0.5 and an abrupt |D| change; the
# batch mean must reach that capture and most paths must show the change.
# (Over 42 desk-scale paths: capture 0.52 to 0.93, mean 0.72, no scan without
# the change.)
MIN_SPIKE_CAPTURE = 0.5
# Whitened d = 2 residuals have E|eps|^2 = 2.
D2_RESIDUAL_TOL = 0.3


@dataclass(frozen=True)
class Inputs:
    """A workload's fixed inputs: everything one pass needs."""

    threads: int
    theta0: np.ndarray
    plan: rv.ExperimentPlan | None = None
    scenarios: tuple = ()           # cluster-scan: (scenario, replication) pairs
    paths: tuple = ()               # fit-d2: bivariate ObservationPaths
    model: rv.ModelSpec | None = None


@dataclass
class PassResult:
    """What one pass over the fixed inputs did and produced."""

    wall_s: float
    fit_ms: list[float]                 # latency of each dp/holder fit
    attempted: int                      # fits attempted
    failed: int                         # fits that raised RvolestError
    converged: int                      # fits that reported converged=True
    robust: dict = field(default_factory=dict)  # label -> (R, p) theta_hat, NaN = failed
    digests: dict = field(default_factory=dict)
    spike_capture: float | None = None
    problems: list[str] = field(default_factory=list)


def corr_model() -> rv.ModelSpec:
    """The corr-2d family: S = L L' with L = [[e^{t1/2}, 0], [1/2, e^{t2/2}]].

    SPD for every theta, and the off-diagonal couples the coordinates.  Only
    pointwise maps are given, so every evaluation goes through the d >= 2
    per-increment loops.
    """

    def S(x, theta):
        a = np.exp(theta[0])
        b = np.exp(theta[1])
        r = 0.5 * np.sqrt(a)
        return np.array([[a, r], [r, 0.25 + b]])

    def dS(x, theta):
        a = np.exp(theta[0])
        b = np.exp(theta[1])
        d1 = np.array([[a, 0.25 * np.sqrt(a)], [0.25 * np.sqrt(a), 0.0]])
        d2 = np.array([[0.0, 0.0], [0.0, b]])
        return np.stack([d1, d2])

    return rv.ModelSpec(
        name="corr-2d", d=2, p=2, cov_dim=1, S=S, dS=dS,
        box=rv.ParameterBox([-4.0, -4.0], [4.0, 4.0], [0.0, 0.0]),
        covariate_source=rv.CovariateSource.EXTERNAL,
    )


def corr_path(model: rv.ModelSpec, seed: int, index: int, n: int) -> rv.ObservationPath:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))
    lower = np.linalg.cholesky(model.S(None, D2_THETA0))
    eps = rng.standard_normal((n, 2)) @ lower.T
    h = 1.0 / n
    responses = np.vstack([np.zeros(2), np.cumsum(np.sqrt(h) * eps, axis=0)])
    return rv.ObservationPath(
        n=n, T=1.0, times=np.arange(n + 1) * h,
        covariates=np.zeros((n + 1, 1)), responses=responses,
    )


def build(name: str, seed: int, tiny: bool = False, count: int | None = None) -> Inputs:
    """The fixed inputs of workload `name` for `seed`; `count` overrides the
    number of replications or paths."""
    if name == "mc-jumpdiff":
        scenario = rv.get_preset("sec6-5-jumpdiff", n=TINY_N if tiny else N, seed=seed)
        plan = rv.ExperimentPlan(
            scenario=scenario, estimators=JUMPDIFF_ESTIMATORS,
            replications=count or (TINY_REPS if tiny else JUMPDIFF_REPS),
            threads=JUMPDIFF_THREADS,
        )
        return Inputs(JUMPDIFF_THREADS, scenario.model.theta0_array(), plan=plan)
    if name == "cluster-scan":
        scenario = rv.get_preset("sec6-1-spike", n=TINY_N if tiny else N, seed=seed)
        count = count or (TINY_PATHS if tiny else CLUSTER_PATHS)
        return Inputs(1, scenario.model.theta0_array(),
                      scenarios=tuple((scenario, r) for r in range(count)),
                      model=rv.make_builtin(scenario.model.name))
    if name == "fit-d2":
        model = corr_model()
        count = count or (TINY_PATHS if tiny else D2_PATHS)
        n = TINY_D2_N if tiny else D2_N
        paths = tuple(corr_path(model, seed, i, n) for i in range(count))
        return Inputs(1, D2_THETA0.copy(), paths=paths, model=model)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def batch_seed(seed: int, index: int) -> int:
    """The seed of pass `index` of a run with seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _is_robust(config: RobustConfig) -> bool:
    return config.variant is not rv.Variant.GQLF


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _mc_pass(inputs: Inputs, outdir: str, threads: int) -> PassResult:
    plan = replace(inputs.plan, threads=threads)
    raw_theta = os.path.join(outdir, "raw_theta.csv")
    raw_u = os.path.join(outdir, "raw_u.csv")
    t0 = time.perf_counter()
    table = rv.run_plan(plan)
    rv_montecarlo.write_raw_theta_csv(table, raw_theta)
    rv_montecarlo.write_raw_u_csv(table, raw_u)
    wall = time.perf_counter() - t0

    robust_cols = [e for e, c in enumerate(plan.estimators) if _is_robust(c)]
    ok = ~table.failed
    return PassResult(
        wall_s=wall,
        fit_ms=list(1e3 * table.times[:, robust_cols].ravel()),
        attempted=int(table.failed.size),
        failed=int(table.failed.sum()),
        converged=int((table.converged & ok).sum()),
        robust={plan.estimators[e].label: table.raw_theta[:, e, :] for e in robust_cols},
        digests={"raw_theta.csv": _file_sha256(raw_theta), "raw_u.csv": _file_sha256(raw_u)},
    )


class _FitLog:
    """Times the workload's own estimate calls and counts their outcomes."""

    def __init__(self, configs):
        self.robust_ms = []
        self.attempted = self.failed = self.converged = 0
        self.estimates = {c.label: [] for c in configs if _is_robust(c)}

    def fit(self, path, model, config):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = rv.estimate(path, model, config)
        except rv.RvolestError:
            res = None
        if _is_robust(config):
            self.robust_ms.append(1e3 * (time.perf_counter() - t0))
            theta = res.theta_hat if res is not None else np.full(model.p, np.nan)
            self.estimates[config.label].append(theta)
        if res is None:
            self.failed += 1
        elif res.converged:
            self.converged += 1
        return res

    def result(self, wall: float, **kwargs) -> PassResult:
        return PassResult(
            wall_s=wall, fit_ms=self.robust_ms,
            attempted=self.attempted, failed=self.failed, converged=self.converged,
            robust={k: np.array(v) for k, v in self.estimates.items()}, **kwargs,
        )


def _cluster_pass(inputs: Inputs) -> PassResult:
    """The criterion-9 pipeline on each path of the batch."""
    log = _FitLog((CLUSTER_CONFIG,))
    model = inputs.model
    labels, captures, problems = [], [], []
    abrupt = 0
    t0 = time.perf_counter()
    for scenario, rep in inputs.scenarios:
        bundle = rv.simulate(scenario, replication=rep)
        res = log.fit(bundle.observed, model, CLUSTER_CONFIG)
        if res is None:
            continue
        eps_hat = rv.residuals(bundle.observed, model, res.theta_hat)
        sweep = rv.suggest_k(eps_hat, range(2, 11))
        part = rv.merge_consecutive(
            rv.kmeans(eps_hat, sweep.suggested_k), rv.MergeMode.SPIKE_PAIR
        )
        flagged = set(part.d_indices.tolist())
        spikes = bundle.spike_indices
        captures.append(sum(1 for i in spikes if {i, i + 1} & flagged) / max(len(spikes), 1))
        labels.append(part.labels)
        abrupt += sweep.abrupt_found
    wall = time.perf_counter() - t0
    if 2 * abrupt < len(inputs.scenarios):
        problems.append(f"K-scan found the abrupt |D| change on only {abrupt} paths")
    capture = float(np.mean(captures)) if captures else 0.0
    if capture < MIN_SPIKE_CAPTURE:
        problems.append(f"spike capture {capture:.3f} < {MIN_SPIKE_CAPTURE}")
    thetas = log.estimates[CLUSTER_CONFIG.label]
    return log.result(
        wall, spike_capture=capture, problems=problems,
        digests={"partitions": _sha256(*labels, *thetas)},
    )


def _d2_pass(inputs: Inputs) -> PassResult:
    """gqlf, dp and holder fits plus residuals on each bivariate path."""
    log = _FitLog(D2_ESTIMATORS)
    model = inputs.model
    outputs, sq_norms = [], []
    t0 = time.perf_counter()
    for path in inputs.paths:
        fits = [log.fit(path, model, config) for config in D2_ESTIMATORS]
        dp = fits[1]
        if dp is None:
            continue
        eps_hat = rv.residuals(path, model, dp.theta_hat)
        sq_norms.append(eps_hat**2)
        outputs += [f.theta_hat for f in fits if f is not None] + [eps_hat]
    wall = time.perf_counter() - t0
    problems = []
    if sq_norms:
        mean_sq = float(np.mean(np.concatenate(sq_norms)))
        if abs(mean_sq - 2.0) > D2_RESIDUAL_TOL:
            problems.append(f"mean squared d=2 residual {mean_sq:.3f}, expected 2")
    return log.result(wall, problems=problems, digests={"fits": _sha256(*outputs)})


def run_pass(inputs: Inputs, outdir: str, threads: int | None = None) -> PassResult:
    """Execute the fixed inputs once; `threads` overrides the pool size of a
    Monte Carlo workload (the traced run executes everything serially)."""
    if inputs.plan is not None:
        return _mc_pass(inputs, outdir, inputs.threads if threads is None else threads)
    if inputs.scenarios:
        return _cluster_pass(inputs)
    return _d2_pass(inputs)


def check(results: list[PassResult], theta0: np.ndarray) -> list[str]:
    """Correctness gate over the passes of a run: the problems found, empty
    when the outputs are correct.

    Each dp and holder mean over all passes must lie within a Monte Carlo
    standard-error band of theta0, with the standard error taken from the
    R estimates themselves.  A failed fit leaves NaN in its row, so it fails
    the gate instead of being dropped.
    """
    problems = [problem for result in results for problem in result.problems]
    for label in results[0].robust:
        est = np.concatenate([np.asarray(r.robust[label], dtype=float) for r in results])
        reps = est.shape[0]
        if reps < 2:
            problems.append(f"{label}: need at least 2 fits for a band, got {reps}")
            continue
        failed = int(np.isnan(est).any(axis=1).sum())
        if failed:
            problems.append(f"{label}: {failed} of {reps} fits failed")
            continue
        mean = est.mean(axis=0)
        crit = student_t.isf(GATE_TAIL, reps - 1)
        band = crit * est.std(axis=0, ddof=1) / np.sqrt(reps) + BIAS_TOL
        if np.any(np.abs(mean - theta0) > band):
            problems.append(
                f"{label}: mean {np.round(mean, 4).tolist()} of {reps} fits outside "
                f"theta0 {np.round(theta0, 4).tolist()} +/- {np.round(band, 4).tolist()}"
            )
    return problems
