"""End-to-end checks of the d >= 2 matrix path (likelihood, estimation,
plug-in matrices, residuals) on a correlated bivariate family, and of the
one objective kernel against a per-increment reference at d = 1, 2 and 3."""

import numpy as np
import pytest
from oracles import hess_objective, increment_reference, objective, objective_reference

from rvolest import (
    CholeskyFailure,
    ModelSpec,
    ObservationPath,
    ParameterBox,
    RobustConfig,
    estimate,
    k_const,
    plugin_matrices,
    residuals,
    value_and_grad,
)
from rvolest.likelihood import _increments
from rvolest.model import CovariateSource

CONFIGS = [RobustConfig.gqlf(), RobustConfig.density_power(0.6), RobustConfig.hoelder(0.4)]

THETA0 = np.array([0.3, -0.4])


def corr_model():
    # S = L L' with L = [[e^{t1/2}, 0], [1/2, e^{t2/2}]]: SPD for all theta,
    # off-diagonal couples the coordinates so traces are not diagonal-only
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

    return ModelSpec(
        name="corr-2d", d=2, p=2, cov_dim=1, S=S, dS=dS,
        box=ParameterBox([-4.0, -4.0], [4.0, 4.0], [0.0, 0.0]),
        covariate_source=CovariateSource.EXTERNAL,
    )


def make_path(rng, n=800, theta=THETA0):
    model = corr_model()
    lower = np.linalg.cholesky(model.S(None, theta))
    eps = rng.standard_normal((n, 2)) @ lower.T
    h = 1.0 / n
    responses = np.vstack([np.zeros(2), np.cumsum(np.sqrt(h) * eps, axis=0)])
    path = ObservationPath(
        n=n, T=1.0, times=np.arange(n + 1) * h,
        covariates=np.zeros((n + 1, 1)), responses=responses,
    )
    return path, model


@pytest.mark.parametrize("config", CONFIGS, ids=["gqlf", "dp", "holder"])
def test_gradient_matches_fd(config, rng):
    path, model = make_path(rng, n=120)
    for _ in range(5):
        theta = rng.uniform(-1.0, 1.0, size=2)
        analytic = value_and_grad(path, model, theta, config)[1]
        fd = np.empty(2)
        for k in range(2):
            step = 1e-6 * (1 + abs(theta[k]))
            up, down = theta.copy(), theta.copy()
            up[k] += step
            down[k] -= step
            fd[k] = (objective(path, model, up, config)
                     - objective(path, model, down, config)) / (2 * step)
        assert np.abs(analytic - fd).max() / max(1.0, np.abs(analytic).max()) < 1e-5


def test_estimation_recovers_truth(rng):
    path, model = make_path(rng, n=800)
    for config in (RobustConfig.gqlf(), RobustConfig.density_power(0.3)):
        res = estimate(path, model, config)
        assert res.converged
        np.testing.assert_allclose(res.theta_hat, THETA0, atol=0.25)


def test_plugin_gamma_matches_hessian(rng):
    path, model = make_path(rng, n=800)
    config = RobustConfig.density_power(0.5)
    res = estimate(path, model, config)
    gamma, _, _ = plugin_matrices(path, model, res.theta_hat, config)
    hess = -hess_objective(path, model, res.theta_hat, config) / path.n
    assert np.abs(hess - gamma).max() / np.abs(gamma).max() < 0.07


def test_plugin_lambda_zero_limit():
    rng = np.random.default_rng(5)
    path, model = make_path(rng, n=200)
    _, _, fisher = plugin_matrices(path, model, THETA0, RobustConfig.gqlf())
    gamma, sigma, _ = plugin_matrices(
        path, model, THETA0, RobustConfig.density_power(1e-4)
    )
    assert np.abs(gamma - fisher).max() < 1e-3
    assert np.abs(sigma - fisher).max() < 1e-3


def test_residual_norms_standardized(rng):
    path, model = make_path(rng, n=2000)
    eps_hat = residuals(path, model, THETA0)
    # squared norms of whitened bivariate increments average to d = 2
    assert np.mean(eps_hat**2) == pytest.approx(2.0, rel=0.1)


def test_dp_influence_bounded_d2(rng):
    path, model = make_path(rng, n=100)
    lam = 0.5
    config = RobustConfig.density_power(lam)
    base = objective(path, model, THETA0, config)
    contaminated = np.array(path.responses, copy=True)
    contaminated[-1] += np.array([1e6, -1e6])
    bad = ObservationPath(
        n=path.n, T=path.T, times=path.times,
        covariates=path.covariates, responses=contaminated,
    )
    det = float(np.linalg.det(model.S(None, THETA0)))
    width = det ** (-lam / 2.0) * (2 * np.pi) ** (-lam) / lam  # d = 2
    assert abs(objective(bad, model, THETA0, config) - base) <= width + 1e-12
    # sanity: the bound uses the K constant consistently
    assert k_const(lam, 2) > 0


def coupled_model(d):
    """S = L L' with L lower triangular, diagonal e^{theta/2} and off-diagonal
    entries x/2, so S varies across increments with the covariate; p = d."""

    def chol(x, theta):
        return 0.5 * x[0] * np.tril(np.ones((d, d)), -1) + np.diag(np.exp(0.5 * theta))

    def S(x, theta):
        lower = chol(x, theta)
        return lower @ lower.T

    def dS(x, theta):
        lower = chol(x, theta)
        out = np.empty((d, d, d))
        for k in range(d):
            dl = np.zeros((d, d))
            dl[k, k] = 0.5 * np.exp(0.5 * theta[k])
            out[k] = dl @ lower.T + lower @ dl.T
        return out

    return ModelSpec(
        name=f"coupled-{d}d", d=d, p=d, cov_dim=1, S=S, dS=dS,
        box=ParameterBox([-4.0] * d, [4.0] * d, [0.0] * d),
    )


def random_path(rng, n, d, covariates):
    h = 1.0 / n
    responses = np.vstack([np.zeros(d), np.cumsum(rng.normal(0.0, np.sqrt(h), (n, d)), axis=0)])
    return ObservationPath(
        n=n, T=1.0, times=np.arange(n + 1) * h, covariates=covariates, responses=responses,
    )


def assert_close(got, want):
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_kernel_matches_per_increment_reference(d, rng):
    n = 60
    model = coupled_model(d)
    path = random_path(rng, n, d, rng.uniform(-1.0, 1.0, (n + 1, 1)))
    theta = rng.uniform(-1.0, 1.0, size=d)
    log_det, quad, t, _, v = increment_reference(path, model, theta)
    for config in CONFIGS:
        value, grad = objective_reference(path, model, theta, config)
        got_value, got_grad = value_and_grad(path, model, theta, config)
        assert_close(got_value, value)
        assert_close(got_grad, grad)
    inc = _increments(path, model, theta)
    assert_close(inc.log_det, log_det)
    assert_close(inc.quad, quad)
    assert_close(inc.t, t)
    if d == 1:  # v = t t'
        assert_close(inc.t[:, :, None] * inc.t[:, None, :], v)
    else:
        assert_close(np.einsum("jkab,jlba->jkl", inc.a, inc.a), v)
    assert_close(residuals(path, model, theta), np.sqrt(quad))


def test_indefinite_increment_reported_by_every_consumer(rng):
    # S = e^theta [[1, x], [x, 1]] is indefinite only where |x| > 1
    n, k = 50, 37
    unit, swap = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    model = ModelSpec(
        name="coupled-unit", d=2, p=1, cov_dim=1,
        S=lambda x, theta: np.exp(theta[0]) * (unit + x[0] * swap),
        dS=lambda x, theta: np.exp(theta[0]) * (unit + x[0] * swap)[None],
        box=ParameterBox([-1.0], [1.0], [0.0]),
    )
    covariates = np.full((n + 1, 1), 0.5)
    covariates[k - 1] = 2.0  # x_{k-1} feeds increment k
    path = random_path(rng, n, 2, covariates)
    theta = np.array([0.2])
    for config in CONFIGS:
        for call in (value_and_grad, plugin_matrices):
            with pytest.raises(CholeskyFailure) as err:
                call(path, model, theta, config)
            assert err.value.index == k
    with pytest.raises(CholeskyFailure) as err:
        residuals(path, model, theta)
    assert err.value.index == k
