"""Box-constrained maximization of a quasi-likelihood and plug-in inference.

The maximizer is projected quasi-Newton (L-BFGS-B) over the model's parameter
box, driven by the analytic gradient; it is the only optimizer.  The box must
keep S(x, theta) SPD: a trial point where factorization fails raises
CholeskyFailure with the offending increment index, so a failed evaluation
never turns into a reported success.  The value and gradient at theta_hat are
the optimizer's own final evaluation, and so is the per-increment record that
the plug-in step reads when that evaluation ran at exactly theta_hat; on any
other point S and dS are evaluated once more.  scipy is imported by the
functions that use it, so `import rvolest` does not load it.  L-BFGS-B runs
with every OpenBLAS pinned to one thread (see `blas`).

Plug-in asymptotic matrices replace (1/T) integral g(X_t, theta_0) dt by
(1/n) sum_j g(x_{j-1}, theta_hat).  With t_k = tr(S^{-1} d_k S),
v_kl = tr(S^{-1} d_k S S^{-1} d_l S) and the averages V_e = avg dd^e v and
TT_e = avg dd^e t t', the Fisher matrix is V_0 / 2, and so are Gamma and Sigma
for the plain GQLF (their lam -> 0 limit).  A robust variant is one row
(g, c_g, s, c_s) of a table:

  Gamma = K_lam/(lam+1) (V_g / 2 + c_g TT_g),  Sigma = K_2lam/(2lam+1) V_s / 2 + c_s TT_s
  dp       (-lam/2,          lam^2/4, -lam,         eps'(lam)/4)
  hoelder  (-lam/(2(lam+1)), 0,       -lam/(lam+1), eps''(lam))

For d = 1, v = t t', so each matrix is a scalar times one weighted Gram
product (t w).' t / n; for d >= 2, v_kl = tr(A_k A_l) from the record's
whitened derivatives and V_e = w @ v / n.  The sandwich avar = Gamma^{-1} Sigma
Gamma^{-1} gives the intervals theta_hat_i +/- z_{1-alpha/2} sqrt(avar_ii / n).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blas import pinned_to_one_thread
from .exceptions import SingularGamma
from .likelihood import (ObservationPath, RobustConfig, Variant, _increments, covariate_block,
                         value_and_grad)
from .mathcore import eps_dprime, eps_prime, k_const
from .model import ModelSpec

# Unused here; the benchmark's span list wraps it until ROADMAP item 9 retires it.
from .mathcore import chol_spd  # noqa: F401


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the box-constrained maximizer."""

    initial: Optional[np.ndarray] = None
    tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        if self.initial is not None and not np.isfinite(self.initial).all():
            raise ValueError(f"initial must be finite, got {np.asarray(self.initial).tolist()}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if isinstance(self.max_iters, bool) or not (
                isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass
class EstimationResult:
    theta_hat: np.ndarray
    objective_value: float
    config: RobustConfig
    gamma_hat: np.ndarray
    sigma_hat: np.ndarray
    fisher_hat: np.ndarray
    avar: np.ndarray | None
    ci: np.ndarray | None          # (p, 2) lower/upper, NaN when omitted
    alpha: float
    converged: bool
    iterations: int
    nfev: int                      # objective evaluations, the plug-in step's excluded
    projected_grad_norm: float
    boundary_active: np.ndarray    # bool per coordinate
    # always False; kept for estimate.json readers and for perfbench/spans.KEEP,
    # which reads it until ROADMAP item 9b
    used_fallback: bool = False
    negative_variance: list[int] = field(default_factory=list)
    taper_diagnostic: float | None = None
    u_stat: np.ndarray | None = None   # sqrt(n)(theta_hat - theta0)/sqrt(avar_ii)


def check_taper_schedule(n: int, lam: float, kappa: float = 1.0, T: float = 1.0) -> float:
    """sqrt(n) h^kappa / lambda with h = T/n; large values warn lambda is too
    small for this sample size under jump regularity kappa."""
    if n < 1 or lam <= 0 or kappa <= 0.5:
        raise ValueError("need n >= 1, lambda > 0, kappa > 1/2")
    return float(np.sqrt(n) * (T / n) ** kappa / lam)


# variant -> (Gamma weight exponent, Gamma t t' coef, Sigma weight exponent, Sigma t t' coef)
_VARIANT_TABLE = {
    Variant.DENSITY_POWER: lambda lam, d: (-0.5 * lam, 0.25 * lam**2, -lam,
                                           0.25 * eps_prime(lam, d)),
    Variant.HOELDER: lambda lam, d: (-0.5 * lam / (lam + 1.0), 0.0, -lam / (lam + 1.0),
                                     eps_dprime(lam, d)),
}


def plugin_matrices(path, model, theta_hat, config: RobustConfig, *, record=None):
    """(gamma_hat, sigma_hat, fisher_hat) at theta_hat for the given variant.

    ``record`` is likelihood's per-increment record evaluated at exactly
    theta_hat, which `estimate` always hands over; without it S and dS are
    evaluated here.
    """
    inc = _increments(path, model, theta_hat) if record is None else record
    n, d, p, t = path.n, model.d, model.p, inc.t
    if d > 1:
        flat = inc.a.reshape(n, p, d * d)
        v = (flat @ flat.transpose(0, 2, 1)).reshape(n, p * p)  # tr(A_k A_l), A_l symmetric

    def average(exponent, v_coef, tt_coef):
        """v_coef V + tt_coef TT with the weights dd^exponent (none at 0), symmetrized."""
        w = np.exp(exponent * inc.log_det) if exponent else None
        tt = (t if w is None else t * w[:, None]).T @ t / n
        vbar = tt if d == 1 else ((v.sum(axis=0) if w is None else w @ v) / n).reshape(p, p)
        out = v_coef * vbar + tt_coef * tt
        return 0.5 * (out + out.T)

    fisher = average(0.0, 0.5, 0.0)
    if config.variant is Variant.GQLF:
        return fisher.copy(), fisher.copy(), fisher
    lam = config.lam
    g_exp, g_tt, s_exp, s_tt = _VARIANT_TABLE[config.variant](lam, d)
    g_scale = k_const(lam, d) / (lam + 1.0)
    gamma = average(g_exp, 0.5 * g_scale, g_tt * g_scale)
    sigma = average(s_exp, 0.5 * k_const(2.0 * lam, d) / (2.0 * lam + 1.0), s_tt)
    return gamma, sigma, fisher


def sandwich_avar(gamma: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Gamma^{-1} Sigma Gamma^{-1}; raises SingularGamma when not invertible."""
    try:
        ginv = np.linalg.inv(gamma)
    except np.linalg.LinAlgError:
        raise SingularGamma("plug-in curvature matrix is singular") from None
    if not np.all(np.isfinite(ginv)) or np.linalg.cond(gamma) > 1e14:
        raise SingularGamma("plug-in curvature matrix is numerically singular")
    avar = ginv @ sigma @ ginv
    return 0.5 * (avar + avar.T)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def confidence_intervals(
    theta_hat: np.ndarray,
    gamma: np.ndarray,
    sigma: np.ndarray,
    n: int,
    alpha: float = 0.05,
    theta0: Optional[np.ndarray] = None,
):
    """Per-coordinate normal intervals from the sandwich variance.

    Returns (ci, avar, u_stat, negative_variance).  Coordinates with a
    negative sandwich diagonal get NaN bounds and are listed in
    negative_variance rather than receiving a fabricated interval.  u_stat is
    the standardized statistic sqrt(n)(theta_hat - theta0)/sqrt(avar_ii),
    available in simulation mode (theta0 supplied).  Raises ValueError unless
    0 < alpha < 1.
    """
    _check_alpha(alpha)
    from scipy.special import ndtri

    theta_hat = np.asarray(theta_hat, dtype=float)
    avar = sandwich_avar(gamma, sigma)
    diag = np.diagonal(avar)
    negative = [int(i) for i in np.flatnonzero(diag < 0.0)]
    half = np.full_like(theta_hat, np.nan)
    ok = diag >= 0.0
    z = float(ndtri(1.0 - alpha / 2.0))
    half[ok] = z * np.sqrt(diag[ok] / n)
    ci = np.column_stack([theta_hat - half, theta_hat + half])
    u_stat = None
    if theta0 is not None:
        theta0 = np.asarray(theta0, dtype=float)
        u_stat = np.full_like(theta_hat, np.nan)
        pos = diag > 0.0
        u_stat[pos] = np.sqrt(n) * (theta_hat[pos] - theta0[pos]) / np.sqrt(diag[pos])
    return ci, avar, u_stat, negative


def estimate(
    path: ObservationPath,
    model: ModelSpec,
    config: RobustConfig,
    opts: OptimizerOptions | None = None,
    alpha: float = 0.05,
    theta0: Optional[np.ndarray] = None,
) -> EstimationResult:
    """Maximize the configured objective over the model's parameter box.

    Deterministic: identical inputs give an identical result.  theta0 (the
    true value, simulation mode) only adds the standardized statistic.
    Raises CholeskyFailure when S is not SPD at a trial point, and ValueError
    before any fitting unless 0 < alpha < 1 and the start point and theta0
    are finite.
    """
    _check_alpha(alpha)
    opts = opts or OptimizerOptions()
    box = model.box
    start = box.clamp(opts.initial if opts.initial is not None else box.initial)
    if theta0 is not None and (np.shape(theta0) != (box.p,) or not np.isfinite(theta0).all()):
        raise ValueError(f"theta0 must be {box.p} finite numbers, "
                         f"got {np.asarray(theta0).tolist()}")

    features = model.feature_block(covariate_block(path, model))  # theta-free: once per fit
    last = []  # [theta bytes, record] of the latest evaluation
    latest = [None, None]  # [theta bytes, negated gradient] of the latest evaluation

    def neg_value(theta):
        val, grad = value_and_grad(path, model, theta, config, keep=last, features=features)
        latest[:] = [np.asarray(theta, dtype=float).tobytes(), -grad]
        return -val

    def neg_grad(theta):  # the gradient of the evaluation that gave the value
        if np.asarray(theta, dtype=float).tobytes() != latest[0]:
            neg_value(theta)
        return latest[1]

    import scipy.optimize

    with pinned_to_one_thread():  # L-BFGS-B's LAPACK calls are too small to share
        res = scipy.optimize.minimize(
            neg_value, start, jac=neg_grad, method="L-BFGS-B",
            bounds=list(zip(box.lower, box.upper)),
            options={"maxiter": opts.max_iters, "gtol": opts.tol, "ftol": 1e-14})
    theta_hat = box.clamp(res.x)
    value, grad = -float(res.fun), -res.jac
    # exact active bounds of the clamped theta_hat; pg drops what pushes out of the box there
    at_lower, at_upper = theta_hat <= box.lower, theta_hat >= box.upper
    pg = np.where((at_lower & (grad < 0)) | (at_upper & (grad > 0)), 0.0, grad)
    pg_norm = float(np.max(np.abs(pg))) if pg.size else 0.0
    converged = bool(res.success) or pg_norm <= opts.tol

    # the optimizer's record when its copied theta is theta_hat's bits, else a new one
    record = (last[1] if last and last[0] == theta_hat.tobytes()
              else _increments(path, model, theta_hat, features=features))
    gamma, sigma, fisher = plugin_matrices(path, model, theta_hat, config, record=record)
    try:
        ci, avar, u_stat, negative = confidence_intervals(
            theta_hat, gamma, sigma, path.n, alpha=alpha, theta0=theta0
        )
    except SingularGamma:
        ci, avar, u_stat, negative = None, None, None, []

    taper = (None if config.variant is Variant.GQLF
             else check_taper_schedule(path.n, config.lam, T=path.T))

    return EstimationResult(
        theta_hat=theta_hat,
        objective_value=value,
        config=config,
        gamma_hat=gamma,
        sigma_hat=sigma,
        fisher_hat=fisher,
        avar=avar,
        ci=ci,
        alpha=alpha,
        converged=converged,
        iterations=int(res.nit),
        nfev=int(res.nfev),
        projected_grad_norm=pg_norm,
        boundary_active=at_lower | at_upper,
        negative_variance=negative,
        u_stat=u_stat,
        taper_diagnostic=taper,
    )
