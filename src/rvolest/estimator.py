"""Box-constrained maximization of a quasi-likelihood and plug-in inference.

The maximizer is projected quasi-Newton (L-BFGS-B) over the model's parameter
box, driven by the analytic gradient; it is the only optimizer.  The box must
keep S(x, theta) SPD: a trial point where factorization fails raises
CholeskyFailure with the offending increment index, so a failed evaluation
never turns into a reported success.  The value and gradient at theta_hat are
the optimizer's own final evaluation, and so is the per-increment record that
the plug-in step reads when that evaluation ran at exactly theta_hat; on any
other point S and dS are evaluated once more.  scipy is imported by the
functions that use it, so `import rvolest` does not load it.

Plug-in asymptotic matrices replace (1/T) integral g(X_t, theta_0) dt by
(1/n) sum_j g(x_{j-1}, theta_hat):

  fisher   I_kl      = avg  v_kl / 2
  dp       Gamma_kl  = K_lam/(lam+1)   * avg dd^{-lam/2} (v_kl + lam^2/2 t_k t_l) / 2
           Sigma_kl  = K_2lam/(2lam+1) * avg dd^{-lam}   v_kl / 2
                       + eps'(lam)/4   * avg dd^{-lam}   t_k t_l
  hoelder  Gamma_kl  = K_lam/(lam+1)   * avg dd^{-lam/(2(lam+1))} v_kl / 2
           Sigma_kl  = K_2lam/(2lam+1) * avg dd^{-lam/(lam+1)}    v_kl / 2
                       + eps''(lam)    * avg dd^{-lam/(lam+1)}    t_k t_l

with t_k = tr(S^{-1} d_k S) and v_kl = tr(S^{-1} d_k S S^{-1} d_l S), read
from likelihood's per-increment record: v_kl = tr(A_k A_l) from its whitened
derivatives, or t_k t_l for d = 1.  Both Gamma and Sigma tend to the Fisher
matrix as lam -> 0.  The sandwich avar = Gamma^{-1} Sigma Gamma^{-1} feeds
the normal confidence intervals theta_hat_i +/- z_{1-alpha/2} sqrt(avar_ii / n).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import SingularGamma
from .likelihood import ObservationPath, RobustConfig, Variant, _increments, value_and_grad
from .mathcore import eps_dprime, eps_prime, k_const
from .model import ModelSpec

# Unused here; the benchmark's span list wraps them until ROADMAP item 9 retires them.
from .likelihood import covariate_block  # noqa: F401
from .mathcore import chol_spd  # noqa: F401


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the box-constrained maximizer."""

    initial: Optional[np.ndarray] = None
    tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
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
    projected_grad_norm: float
    boundary_active: np.ndarray    # bool per coordinate
    negative_variance: list[int] = field(default_factory=list)
    u_stat: np.ndarray | None = None   # sqrt(n)(theta_hat - theta0)/sqrt(avar_ii)
    taper_diagnostic: float | None = None
    used_fallback: bool = False    # always False; kept for estimate.json readers


def check_taper_schedule(n: int, lam: float, kappa: float = 1.0, T: float = 1.0) -> float:
    """sqrt(n) h^kappa / lambda with h = T/n; large values warn lambda is too
    small for this sample size under jump regularity kappa."""
    if n < 1 or lam <= 0 or kappa <= 0.5:
        raise ValueError("need n >= 1, lambda > 0, kappa > 1/2")
    return float(np.sqrt(n) * (T / n) ** kappa / lam)


def plugin_matrices(path, model, theta_hat, config: RobustConfig, *, record=None):
    """(gamma_hat, sigma_hat, fisher_hat) at theta_hat for the given variant.

    For the plain GQLF both Gamma and Sigma coincide with the Fisher matrix
    (the lam -> 0 limit of either robust family).  ``record`` is likelihood's
    per-increment record already evaluated at exactly theta_hat; without it
    S and dS are evaluated here.
    """
    inc = _increments(path, model, theta_hat) if record is None else record
    n, d, p = path.n, model.d, model.p
    outer_t = inc.t[:, :, None] * inc.t[:, None, :]
    if d == 1:
        v = outer_t
    else:
        flat = inc.a.reshape(n, p, d * d)
        v = flat @ flat.transpose(0, 2, 1)  # tr(A_k A_l), A_l symmetric
    fisher = 0.5 * v.mean(axis=0)

    if config.variant is Variant.GQLF:
        return fisher.copy(), fisher.copy(), fisher

    lam = config.lam
    k1 = k_const(lam, d)
    k2 = k_const(2.0 * lam, d)
    if config.variant is Variant.DENSITY_POWER:
        w_gamma = np.exp(-0.5 * lam * inc.log_det)
        w_sigma = np.exp(-lam * inc.log_det)
        gamma = (k1 / (lam + 1.0)) * 0.5 * np.einsum(
            "j,jkl->kl", w_gamma, v + 0.5 * lam**2 * outer_t
        ) / n
        sigma = (
            (k2 / (2.0 * lam + 1.0)) * 0.5 * np.einsum("j,jkl->kl", w_sigma, v) / n
            + 0.25 * eps_prime(lam, d) * np.einsum("j,jkl->kl", w_sigma, outer_t) / n
        )
    else:
        w_gamma = np.exp(-0.5 * lam / (lam + 1.0) * inc.log_det)
        w_sigma = np.exp(-lam / (lam + 1.0) * inc.log_det)
        gamma = (k1 / (lam + 1.0)) * 0.5 * np.einsum("j,jkl->kl", w_gamma, v) / n
        sigma = (
            (k2 / (2.0 * lam + 1.0)) * 0.5 * np.einsum("j,jkl->kl", w_sigma, v) / n
            + eps_dprime(lam, d) * np.einsum("j,jkl->kl", w_sigma, outer_t) / n
        )
    return 0.5 * (gamma + gamma.T), 0.5 * (sigma + sigma.T), fisher


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


def _projected_grad(theta, grad, lower, upper) -> np.ndarray:
    """Gradient with blocked (infeasible-improving) components zeroed out."""
    pg = grad.copy()
    at_lower = theta <= lower + 1e-12 * (1.0 + np.abs(lower))
    at_upper = theta >= upper - 1e-12 * (1.0 + np.abs(upper))
    pg[at_lower & (pg < 0)] = 0.0
    pg[at_upper & (pg > 0)] = 0.0
    return pg


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
    before any fitting unless 0 < alpha < 1.
    """
    _check_alpha(alpha)
    opts = opts or OptimizerOptions()
    box = model.box
    start = box.clamp(opts.initial if opts.initial is not None else box.initial)
    if theta0 is not None and np.shape(theta0) != (box.p,):
        raise ValueError(f"theta0 must have {box.p} entries, got shape {np.shape(theta0)}")

    last = []  # [theta bytes, record] of the latest evaluation

    def neg_val_grad(theta):
        val, grad = value_and_grad(path, model, theta, config, keep=last)
        return -val, -grad

    import scipy.optimize

    res = scipy.optimize.minimize(
        neg_val_grad,
        start,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(box.lower, box.upper)),
        options={"maxiter": opts.max_iters, "gtol": opts.tol, "ftol": 1e-14},
    )
    theta_hat = box.clamp(res.x)
    value, grad = -float(res.fun), -res.jac
    pg = _projected_grad(theta_hat, grad, box.lower, box.upper)
    pg_norm = float(np.max(np.abs(pg))) if pg.size else 0.0
    converged = bool(res.success) or pg_norm <= opts.tol
    boundary = (theta_hat <= box.lower + 1e-10) | (theta_hat >= box.upper - 1e-10)

    # reuse the optimizer's record when its copied theta is theta_hat's bits
    record = last[1] if last and last[0] == theta_hat.tobytes() else None
    gamma, sigma, fisher = plugin_matrices(path, model, theta_hat, config, record=record)
    try:
        ci, avar, u_stat, negative = confidence_intervals(
            theta_hat, gamma, sigma, path.n, alpha=alpha, theta0=theta0
        )
    except SingularGamma:
        ci, avar, u_stat, negative = None, None, None, []

    taper = None
    if config.variant is not Variant.GQLF:
        taper = check_taper_schedule(path.n, config.lam, T=path.T)

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
        projected_grad_norm=pg_norm,
        boundary_active=boundary,
        negative_variance=negative,
        u_stat=u_stat,
        taper_diagnostic=taper,
    )
