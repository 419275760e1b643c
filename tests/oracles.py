"""Independent numerical oracles used by the test suite only.

Quadrature lives here (adaptive for d=1, tensor Gauss-Legendre on [-12,12]^2
for d=2) so the shipped closed forms are always checked against a separate
computation path; the three Gaussian moment identities, written in terms of
the library's k_const, are checked against it.  A per-increment slogdet/inv
loop checks the batched Cholesky kernel, a finite-difference Hessian of the
analytic gradient checks the plug-in curvature matrices, an einsum over
(n, p, p) stacks checks their weighted Gram products, a full-grid Euler
loop checks the self-response models' Euler kernel, and
`scipy.optimize.minimize` checks the estimator's L-BFGS-B loop.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from rvolest import (
    CholeskyFailure,
    DriftKind,
    Lane,
    Variant,
    k_const,
    make_builtin,
    rng_stream,
    value_and_grad,
)
from rvolest.likelihood import _increments, covariate_block, scaled_increments
from rvolest.mathcore import LOG_2PI, chol_spd, eps_dprime, eps_prime
from rvolest.simulator import _jump_deltas

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(240)
_LIM = 12.0
_X1 = _GL_NODES * _LIM
_W1 = _GL_WEIGHTS * _LIM


def phi1(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def quad_1d(f, tol=1e-12):
    val, _ = quad(f, -_LIM, _LIM, epsabs=tol, epsrel=tol, limit=400)
    return val


def quad_2d(f):
    """Tensor Gauss-Legendre integral of f(z1, z2) over [-12, 12]^2."""
    z1, z2 = np.meshgrid(_X1, _X1, indexing="ij")
    vals = f(z1, z2)
    return float(_W1 @ vals @ _W1)


def phi2(z1, z2):
    return np.exp(-0.5 * (z1 * z1 + z2 * z2)) / (2.0 * np.pi)


def quad_phi_power(a: float, d: int) -> float:
    """integral phi^a over R^d by quadrature."""
    if d == 1:
        return quad_1d(lambda z: phi1(z) ** a)
    if d == 2:
        return quad_2d(lambda z1, z2: phi2(z1, z2) ** a)
    raise ValueError("quadrature oracle supports d in {1, 2}")


def quad_quadratic_moment(lam: float, a_mat) -> float:
    """integral phi^(lam+1) A[z (x) z] dz by quadrature, d in {1, 2}."""
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    d = a_mat.shape[0]
    if d == 1:
        return quad_1d(lambda z: phi1(z) ** (lam + 1.0) * a_mat[0, 0] * z * z)
    if d == 2:
        def f(z1, z2):
            form = (
                a_mat[0, 0] * z1 * z1
                + 2.0 * a_mat[0, 1] * z1 * z2
                + a_mat[1, 1] * z2 * z2
            )
            return phi2(z1, z2) ** (lam + 1.0) * form
        return quad_2d(f)
    raise ValueError("quadrature oracle supports d in {1, 2}")


def quad_biquadratic_moment(lam: float, a1, a2) -> float:
    a1 = np.atleast_2d(np.asarray(a1, dtype=float))
    a2 = np.atleast_2d(np.asarray(a2, dtype=float))
    d = a1.shape[0]
    if d == 1:
        return quad_1d(
            lambda z: phi1(z) ** (lam + 1.0) * a1[0, 0] * a2[0, 0] * z**4
        )
    if d == 2:
        def form(a, z1, z2):
            return a[0, 0] * z1 * z1 + 2.0 * a[0, 1] * z1 * z2 + a[1, 1] * z2 * z2

        def f(z1, z2):
            return phi2(z1, z2) ** (lam + 1.0) * form(a1, z1, z2) * form(a2, z1, z2)

        return quad_2d(f)
    raise ValueError("quadrature oracle supports d in {1, 2}")


def _as_symmetric(a) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"not square: shape {a.shape}")
    if np.abs(a - a.T).max() > 1e-8 * max(np.abs(a).max(), 1.0):
        raise ValueError("matrix not symmetric")
    return 0.5 * (a + a.T)


def phi_power_integral(a: float, cov) -> float:
    """integral of phi(z; 0, cov)^a over R^d, equal to a^(-d/2) det(2 pi cov)^((1-a)/2).

    ``cov`` may be an SPD array (factored by the library's chol_spd as a stack
    of one) or a positive scalar (d=1).
    """
    if a <= 0:
        raise ValueError(f"power a must be > 0, got {a}")
    arr = np.asarray(cov, dtype=float)
    if arr.ndim == 0:
        if not arr > 0:
            raise CholeskyFailure("scalar variance not positive")
        d, logdet = 1, float(np.log(arr))
    else:
        d, logdet = arr.shape[0], 2.0 * float(np.log(np.diagonal(chol_spd(arr[None])[0])).sum())
    log_val = -0.5 * d * np.log(a) + 0.5 * (1.0 - a) * (d * LOG_2PI + logdet)
    return float(np.exp(log_val))


def gauss_quadratic_moment(lam: float, a) -> float:
    """integral phi(z)^(lam+1) A[z (x) z] dz = k_const(lam, d) * trace(A)."""
    a = _as_symmetric(a)
    return k_const(lam, a.shape[0]) * float(np.trace(a))


def gauss_biquadratic_moment(lam: float, a1, a2) -> float:
    """integral phi^(lam+1) A1[z(x)z] A2[z(x)z] dz
    = k_const/(lam+1) * (tr(A1) tr(A2) + 2 tr(A1 A2)).
    """
    a1 = _as_symmetric(a1)
    a2 = _as_symmetric(a2)
    if a1.shape != a2.shape:
        raise ValueError("A1, A2 must have the same dimension")
    mixed = float(np.trace(a1) * np.trace(a2) + 2.0 * np.trace(a1 @ a2))
    return k_const(lam, a1.shape[0]) / (lam + 1.0) * mixed


def objective(path, model, theta, config) -> float:
    """The objective value alone."""
    return value_and_grad(path, model, theta, config)[0]


def hess_objective(path, model, theta, config) -> np.ndarray:
    """Symmetrized central finite-difference Hessian of the analytic gradient."""
    theta = np.asarray(theta, dtype=float)
    p = theta.shape[0]
    hess = np.empty((p, p))
    for k in range(p):
        step = 1e-4 * (1.0 + abs(theta[k]))
        up, down = theta.copy(), theta.copy()
        up[k] += step
        down[k] -= step
        g_up = value_and_grad(path, model, up, config)[1]
        g_down = value_and_grad(path, model, down, config)[1]
        hess[k] = (g_up - g_down) / (2.0 * step)
    return 0.5 * (hess + hess.T)


def random_spd(rng, d: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + d * np.eye(d))


def random_symmetric(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return 0.5 * (a + a.T)


def increment_reference(path, model, theta):
    """Per-increment terms for any d, one increment at a time from one-row
    s_values/ds_values blocks with np.linalg.slogdet and inv (no Cholesky, no
    batching).

    Returns (log det S_j, eps_j' S_j^{-1} eps_j, t_jk = tr(S_j^{-1} d_k S_j),
    u_jk = eps_j' S_j^{-1} d_k S_j S_j^{-1} eps_j,
    v_jkl = tr(S_j^{-1} d_k S_j S_j^{-1} d_l S_j)).
    """
    theta = np.asarray(theta, dtype=float)
    d, p = model.d, model.p
    rows = []
    for x, e in zip(covariate_block(path, model), scaled_increments(path)):
        s = model.s_values(x[None], theta).reshape(d, d)
        ds = model.ds_values(x[None], theta).reshape(p, d, d)
        sign, log_det = np.linalg.slogdet(s)
        assert sign > 0
        sinv = np.linalg.inv(s)
        m = sinv @ ds
        y = sinv @ e
        rows.append((
            log_det, e @ y, np.trace(m, axis1=1, axis2=2),
            np.einsum("a,kab,b->k", y, ds, y), np.einsum("kab,lba->kl", m, m),
        ))
    return tuple(np.array(col) for col in zip(*rows))


def objective_reference(path, model, theta, config):
    """(value, gradient) of a quasi-likelihood objective from increment_reference."""
    log_det, quad, t, u, _ = increment_reference(path, model, theta)
    d, lam = model.d, config.lam
    if config.variant is Variant.GQLF:
        return -0.5 * np.sum(log_det + quad), -0.5 * np.sum(t - u, axis=0)
    w = (2.0 * np.pi) ** (-0.5 * d * lam) * np.exp(-0.5 * lam * quad)
    if config.variant is Variant.DENSITY_POWER:
        kc = (2.0 * np.pi) ** (-0.5 * d * lam) / (lam + 1.0) ** (1.0 + 0.5 * d)
        taper = np.exp(-0.5 * lam * log_det)
        grad = 0.5 * taper[:, None] * (w[:, None] * (u - t) + lam * kc * t)
        return np.sum(taper * (w / lam - kc)), np.sum(grad, axis=0)
    taper = np.exp(-0.5 * lam / (lam + 1.0) * log_det)
    grad = 0.5 * (taper * w)[:, None] * (u - t / (lam + 1.0))
    return np.sum(taper * w) / lam, np.sum(grad, axis=0)


def plugin_matrices_einsum(path, model, theta_hat, config):
    """(gamma, sigma, fisher) from (n, p, p) stacks of v_kl and t_k t_l, each
    weighted average an einsum over the increments."""
    inc = _increments(path, model, theta_hat)
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
            "j,jkl->kl", w_gamma, v + 0.5 * lam**2 * outer_t) / n
        sigma = ((k2 / (2.0 * lam + 1.0)) * 0.5 * np.einsum("j,jkl->kl", w_sigma, v) / n
                 + 0.25 * eps_prime(lam, d) * np.einsum("j,jkl->kl", w_sigma, outer_t) / n)
    else:
        w_gamma = np.exp(-0.5 * lam / (lam + 1.0) * inc.log_det)
        w_sigma = np.exp(-lam / (lam + 1.0) * inc.log_det)
        gamma = (k1 / (lam + 1.0)) * 0.5 * np.einsum("j,jkl->kl", w_gamma, v) / n
        sigma = ((k2 / (2.0 * lam + 1.0)) * 0.5 * np.einsum("j,jkl->kl", w_sigma, v) / n
                 + eps_dprime(lam, d) * np.einsum("j,jkl->kl", w_sigma, outer_t) / n)
    return 0.5 * (gamma + gamma.T), 0.5 * (sigma + sigma.T), fisher


def lbfgsb_minimize(fun, x0, lower, upper, tol, max_iters):
    """`estimator._lbfgsb` through `scipy.optimize.minimize`, as `estimate`
    called it before the loop: (x, f, g, nit, nfev, success)."""
    import scipy.optimize

    res = scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
                                  bounds=list(zip(lower, upper)),
                                  options={"maxiter": max_iters, "gtol": tol, "ftol": 1e-14})
    return res.x, res.fun, res.jac, res.nit, res.nfev, res.success


def euler_full_grid(model, y0, dw, jumps, h, substeps, theta) -> np.ndarray:
    """The observed values of the Euler steps y <- y + y h + sqrt(S) w + jd
    over the arrays dw and jumps: sqrt of a one-row s_values block (not the
    model's Euler kernel) at every fine step, with every jump term added, all
    len(dw) + 1 fine values stored, then every substeps-th one taken."""
    y_fine = np.empty(len(dw) + 1)
    y_fine[0] = y = float(y0)
    for i, (w, jd) in enumerate(zip(np.asarray(dw).tolist(), np.asarray(jumps).tolist()), 1):
        y = y + y * h + math.sqrt(model.s_values(np.array([[y]]), theta)[0]) * w + jd
        y_fine[i] = y
    return y_fine[::substeps]


def euler_reference(scenario, replication=0) -> np.ndarray:
    """Observed responses of a spike-free self-response scenario from
    `euler_full_grid` on the scenario's own draws."""
    assert scenario.spike is None
    m = scenario.n * scenario.substeps
    fine_h = scenario.T / m
    dw = rng_stream(scenario.seed, replication, Lane.BROWNIAN).normal(
        0.0, np.sqrt(fine_h), size=m)
    jump_deltas, _ = _jump_deltas(
        scenario, rng_stream(scenario.seed, replication, Lane.JUMPS), m)
    h = fine_h if scenario.model.drift is DriftKind.RESPONSE else 0.0
    return euler_full_grid(make_builtin(scenario.model.name), scenario.y0, dw, jump_deltas, h,
                           scenario.substeps, scenario.model.theta0)
