import hashlib
from dataclasses import replace

import numpy as np
import pytest
from conftest import c_ordered_ds, make_exp_linear_path
from oracles import hess_objective, lbfgsb_minimize, plugin_matrices_einsum

import rvolest.estimator as estimator_mod
from rvolest import (
    CholeskyFailure,
    ModelSpec,
    ObservationPath,
    OptimizerOptions,
    ParameterBox,
    RobustConfig,
    SingularGamma,
    check_taper_schedule,
    confidence_intervals,
    eps_dprime,
    eps_prime,
    estimate,
    get_preset,
    k_const,
    make_builtin,
    plugin_matrices,
    residuals,
    scaled_increments,
    simulate,
    value_and_grad,
)
from rvolest.likelihood import covariate_block
from rvolest.model import CovariateSource


def const_model_path(n=64, eps2=1.0):
    """const-levy path whose scaled increments satisfy eps_j^2 = eps2 exactly."""
    model = make_builtin("const-levy")
    h = 1.0 / n
    signs = np.resize([1.0, -1.0], n)
    responses = np.concatenate([[0.0], np.cumsum(signs * np.sqrt(eps2 * h))])
    path = ObservationPath(
        n=n, T=1.0, times=np.arange(n + 1) * h,
        covariates=np.zeros((n + 1, 1)), responses=responses,
    )
    return path, model


class TestOptimizer:
    @pytest.mark.parametrize("fields, said", [
        ({"tol": -1.0}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": np.nan}, "tol"),
        ({"max_iters": 0}, "max_iters"), ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": True}, "max_iters"), ({"initial": np.array([np.nan, 5.0])}, "initial"),
        ({"initial": [0.0, np.inf, 0.0]}, "initial"),
    ], ids=["tol-negative", "tol-zero", "tol-nan", "max-iters-zero", "max-iters-fraction",
            "max-iters-bool", "initial-nan", "initial-inf"])
    def test_options_that_cannot_work_are_rejected(self, fields, said):
        # a negative tol used to report every start as converged
        with pytest.raises(ValueError, match=f"^{said} must be"):
            OptimizerOptions(**fields)

    @pytest.mark.parametrize("theta0", [[np.nan, 3.0, 0.0], [-2.0, -np.inf, 0.0]],
                             ids=["nan", "inf"])
    def test_non_finite_theta0_is_rejected_before_the_fit(self, theta0, rng, monkeypatch):
        # a NaN truth used to give NaN standardized statistics without a word
        path, model = make_exp_linear_path(rng, n=100)
        monkeypatch.setattr(estimator_mod, "value_and_grad", None)  # never reached
        with pytest.raises(ValueError, match=r"^theta0 must be 3 finite numbers"):
            estimate(path, model, RobustConfig.gqlf(), theta0=np.array(theta0))

    def test_nfev_counts_the_objective_evaluations(self, rng, monkeypatch):
        path, model = make_exp_linear_path(rng, n=300, spikes=2)
        calls = []
        original = estimator_mod.value_and_grad

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimator_mod, "value_and_grad", counting)
        res = estimate(path, model, RobustConfig.density_power(0.5))
        assert res.nfev == len(calls) >= res.iterations >= 1

    def test_interior_argmax_exact(self):
        # const-levy GQLF is -(n/2)(theta + C e^{-theta}) with argmax log C
        path, model = const_model_path(n=50, eps2=1.7)
        res = estimate(path, model, RobustConfig.gqlf())
        assert res.converged
        assert not res.used_fallback
        assert res.theta_hat[0] == pytest.approx(np.log(1.7), abs=1e-7)
        assert res.projected_grad_norm < 1e-6

    def test_argmax_invariant_under_positive_scaling(self, rng, monkeypatch):
        path, model = make_exp_linear_path(rng, n=400)
        config = RobustConfig.density_power(0.5)
        base = estimate(path, model, config)
        original = estimator_mod.value_and_grad

        def scaled(*args, **kwargs):
            val, grad = original(*args, **kwargs)
            return 3.7 * val, 3.7 * grad

        monkeypatch.setattr(estimator_mod, "value_and_grad", scaled)
        rescaled = estimate(path, model, config)
        np.testing.assert_allclose(rescaled.theta_hat, base.theta_hat, atol=1e-6)

    def test_deterministic(self, rng):
        path, model = make_exp_linear_path(rng, n=300, spikes=2)
        config = RobustConfig.hoelder(0.4)
        a = estimate(path, model, config)
        b = estimate(path, model, config)
        np.testing.assert_array_equal(a.theta_hat, b.theta_hat)
        np.testing.assert_array_equal(a.gamma_hat, b.gamma_hat)
        assert a.objective_value == b.objective_value
        # the reported value is the optimizer's own evaluation at theta_hat
        assert a.objective_value == value_and_grad(path, model, a.theta_hat, config)[0]

    def test_theta_stays_in_box(self, rng):
        box = ParameterBox(lower=[-0.5] * 3, upper=[0.5] * 3, initial=[0.0] * 3)
        model = replace(make_builtin("exp-linear-3"), box=box)
        path, _ = make_exp_linear_path(rng, n=200)
        res = estimate(path, model, RobustConfig.gqlf())
        assert np.all((box.lower <= res.theta_hat) & (res.theta_hat <= box.upper))
        assert res.boundary_active.any()  # true optimum lies outside this box

    def test_initial_override_clamped(self, rng):
        path, model = make_exp_linear_path(rng, n=100)
        opts = OptimizerOptions(initial=np.array([50.0, 0.0, 0.0]))
        res = estimate(path, model, RobustConfig.gqlf(), opts)
        box = model.box
        assert np.all((box.lower <= res.theta_hat) & (res.theta_hat <= box.upper))

    def test_failed_trial_point_raises_with_index(self):
        # S(theta) = theta with a non-SPD region inside the box: a
        # quasi-Newton trial step lands there.  The failure must surface with
        # its increment index, never as a converged fit at the start point.
        def S(x, theta):
            return float(theta[0])

        def dS(x, theta):
            return np.array([1.0])

        model = ModelSpec(
            name="linear-variance", d=1, p=1, cov_dim=1, S=S, dS=dS,
            box=ParameterBox(lower=[-10.0], upper=[3.0], initial=[2.0]),
            covariate_source=CovariateSource.EXTERNAL,
        )
        path, _ = const_model_path(n=100, eps2=1.2)
        with pytest.raises(CholeskyFailure) as info:
            estimate(path, model, RobustConfig.gqlf())
        assert info.value.index == 1

    def test_jumpdiff_dp_fit_has_no_failed_trial_point(self, monkeypatch):
        # The rational-diffusion box keeps S >= 1e-4, so every point that
        # L-BFGS-B tries, box corners included, can be evaluated.
        path = simulate(get_preset("sec6-5-jumpdiff", seed=1)).observed
        model = make_builtin("rational-diffusion")
        failures = []
        original = estimator_mod.value_and_grad

        def counting(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except CholeskyFailure as exc:
                failures.append(exc.index)
                raise

        monkeypatch.setattr(estimator_mod, "value_and_grad", counting)
        res = estimate(path, model, RobustConfig.density_power(0.1))
        assert failures == []
        assert res.converged
        assert not res.boundary_active.any()


class TestPluginMatrices:
    def test_fisher_constant_model(self):
        path, model = const_model_path()
        _, _, fisher = plugin_matrices(path, model, np.zeros(1), RobustConfig.gqlf())
        assert fisher[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_gqlf_variant_returns_fisher(self):
        path, model = const_model_path()
        gamma, sigma, fisher = plugin_matrices(path, model, np.zeros(1), RobustConfig.gqlf())
        np.testing.assert_array_equal(gamma, fisher)
        np.testing.assert_array_equal(sigma, fisher)

    def test_dp_closed_forms_at_lambda_one(self):
        # constant model S = e^theta at theta = 0: frozen closed-form oracles
        path, model = const_model_path()
        gamma, sigma, _ = plugin_matrices(
            path, model, np.zeros(1), RobustConfig.density_power(1.0)
        )
        want_gamma = k_const(1.0, 1) * 0.375
        want_sigma = k_const(2.0, 1) / 6.0 + eps_prime(1.0, 1) / 4.0
        assert gamma[0, 0] == pytest.approx(want_gamma, rel=1e-12)
        assert gamma[0, 0] == pytest.approx(0.0528928, abs=1e-6)
        assert sigma[0, 0] == pytest.approx(want_sigma, rel=1e-12)
        assert sigma[0, 0] == pytest.approx(0.0103411, abs=1e-6)

    def test_hoelder_closed_forms_at_lambda_one(self):
        path, model = const_model_path()
        gamma, sigma, _ = plugin_matrices(
            path, model, np.zeros(1), RobustConfig.hoelder(1.0)
        )
        assert gamma[0, 0] == pytest.approx(k_const(1.0, 1) / 4.0, rel=1e-12)
        want_sigma = k_const(2.0, 1) / 6.0 + eps_dprime(1.0, 1)
        assert sigma[0, 0] == pytest.approx(want_sigma, rel=1e-12)

    @pytest.mark.parametrize("make_config",
                             [RobustConfig.density_power, RobustConfig.hoelder])
    def test_lambda_to_zero_limits(self, make_config):
        path, model = const_model_path()
        theta = np.zeros(1)
        _, _, fisher = plugin_matrices(path, model, theta, RobustConfig.gqlf())
        gamma, sigma, _ = plugin_matrices(path, model, theta, make_config(1e-4))
        assert np.abs(gamma - fisher).max() < 1e-3
        assert np.abs(sigma - fisher).max() < 1e-3

    def test_plugin_matches_hessian_on_clean_data(self, rng):
        path, model = make_exp_linear_path(rng, n=5000)
        config = RobustConfig.density_power(0.5)
        res = estimate(path, model, config)
        gamma, _, _ = plugin_matrices(path, model, res.theta_hat, config)
        hess = -hess_objective(path, model, res.theta_hat, config) / path.n
        rel = np.abs(hess - gamma).max() / np.abs(gamma).max()
        assert rel < 0.05

    def test_empirical_score_outer_product_cross_check(self, rng):
        # Sigma-hat closed form vs the empirical outer product of per-increment
        # scores on clean data at theta0 (they estimate the same limit).
        path, model = make_exp_linear_path(rng, n=5000)
        theta0 = np.array([-2.0, 3.0, 0.0])
        lam = 0.5
        config = RobustConfig.density_power(lam)
        _, sigma, _ = plugin_matrices(path, model, theta0, config)
        x = path.covariates[:-1]
        eps = scaled_increments(path)[:, 0]
        s = model.s_values(x, theta0)
        t = model.ds_values(x, theta0) / s[:, None]
        q = eps**2 / s
        w = np.exp(-0.5 * lam * (np.log(2 * np.pi) + q))
        scores = 0.5 * np.exp(-0.5 * lam * np.log(s))[:, None] * (
            (w * (q - 1.0))[:, None] + lam * k_const(lam, 1)
        ) * t
        emp = scores.T @ scores / path.n
        assert np.abs(emp - sigma).max() / np.abs(sigma).max() < 0.1


class TestConfidenceIntervals:
    def test_half_width_identity_avar(self):
        theta = np.zeros(3)
        ci, avar, _, neg = confidence_intervals(theta, np.eye(3), np.eye(3), n=100)
        np.testing.assert_allclose(avar, np.eye(3), atol=1e-14)
        half = (ci[:, 1] - ci[:, 0]) / 2
        assert half == pytest.approx([0.196] * 3, abs=5e-4)
        assert neg == []

    def test_u_stat(self):
        theta = np.array([1.0])
        _, _, u, _ = confidence_intervals(
            theta, np.eye(1), np.eye(1), n=400, theta0=np.array([0.8])
        )
        assert u[0] == pytest.approx(20 * 0.2, rel=1e-12)

    def test_negative_variance_reported_not_fabricated(self):
        gamma = np.eye(2)
        sigma = np.diag([-1.0, 1.0])
        ci, _, u, neg = confidence_intervals(
            np.zeros(2), gamma, sigma, n=50, theta0=np.zeros(2)
        )
        assert neg == [0]
        assert np.isnan(ci[0]).all() and np.isfinite(ci[1]).all()
        assert np.isnan(u[0]) and np.isfinite(u[1])

    def test_singular_gamma_raises(self):
        with pytest.raises(SingularGamma):
            confidence_intervals(np.zeros(2), np.zeros((2, 2)), np.eye(2), n=10)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.5, -0.1, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # 0 gives infinite bounds, (1, 2) reversed ones, >= 2 or < 0 NaN
        with pytest.raises(ValueError, match="alpha"):
            confidence_intervals(np.zeros(1), np.eye(1), np.eye(1), n=10, alpha=alpha)

    def test_estimate_rejects_alpha_before_fitting(self, rng, monkeypatch):
        path, model = make_exp_linear_path(rng, n=50)
        calls = []
        original = estimator_mod.value_and_grad

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimator_mod, "value_and_grad", counting)
        with pytest.raises(ValueError, match="alpha"):
            estimate(path, model, RobustConfig.gqlf(), alpha=1.5)
        assert calls == []

    def test_ci_brackets_estimate(self, rng):
        path, model = make_exp_linear_path(rng, n=500)
        res = estimate(path, model, RobustConfig.density_power(0.3))
        assert res.ci is not None
        assert np.all(res.ci[:, 0] <= res.theta_hat + 1e-12)
        assert np.all(res.theta_hat <= res.ci[:, 1] + 1e-12)


class TestTaperSchedule:
    def test_reference_value(self):
        assert check_taper_schedule(5000, 0.1, kappa=1.0, T=1.0) == pytest.approx(
            np.sqrt(5000) / 5000 / 0.1, rel=1e-12
        )
        assert check_taper_schedule(5000, 0.1) == pytest.approx(0.1414, abs=1e-4)

    def test_vanishes_with_n(self):
        vals = [check_taper_schedule(n, 0.1) for n in (100, 1000, 10_000, 100_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.05

    def test_warning_regime_for_rough_jumps(self):
        # kappa near 1/2 with tiny lambda: diagnostic blows up
        val = check_taper_schedule(5000, 0.01, kappa=0.6)
        assert val == pytest.approx(np.sqrt(5000) * 5000 ** (-0.6) / 0.01, rel=1e-12)
        assert val > 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            check_taper_schedule(0, 0.1)
        with pytest.raises(ValueError):
            check_taper_schedule(100, 0.1, kappa=0.5)


class TestCleanDataConsistency:
    def test_small_lambda_matches_gqlf_argmax(self, rng):
        path, model = make_exp_linear_path(rng, n=5000)
        base = estimate(path, model, RobustConfig.gqlf())
        small = estimate(path, model, RobustConfig.density_power(1e-4))
        assert np.abs(small.theta_hat - base.theta_hat).max() < 0.01

    def test_estimate_recovers_truth_roughly(self, rng):
        path, model = make_exp_linear_path(rng, n=5000)
        res = estimate(path, model, RobustConfig.gqlf())
        np.testing.assert_allclose(res.theta_hat, [-2.0, 3.0, 0.0], atol=0.15)
        value, _ = value_and_grad(path, model, res.theta_hat, RobustConfig.gqlf())
        assert value == res.objective_value


def _golden_path(kind):
    if kind == "external":
        path = simulate(get_preset("sec6-1-spike", n=400, seed=3)).observed
        return path, make_builtin("exp-linear-3"), np.array([-1.5, 2.5, 0.3])
    if kind == "self-response":
        path = simulate(get_preset("sec6-5-jumpdiff", n=400, seed=3)).observed
        return path, make_builtin("rational-diffusion"), np.array([1.5, 2.5])
    from test_multidim import coupled_model, random_path
    rng = np.random.default_rng(7)
    path = random_path(rng, 200, 2, rng.uniform(-1.0, 1.0, (201, 1)))
    return path, coupled_model(2), np.array([0.2, -0.3])


@pytest.mark.parametrize("kind, expected", [
    ("external", "7ba14c7567eb9b550c926a8eb4e64ba161aed80d563f0ac446e0157c1c193b6e"),
    ("self-response", "db4b1dc594cdd193edc4c3b5c1c047e7a85f7aa9e03c3a23143cca0ed4f43b7d"),
    ("d2", "4cc4f714d8899a10117741625df31da9c9c8868d842ed05d6f9216171eb30c4c"),
])
def test_estimation_layer_keeps_its_bits(kind, expected):
    # sha256 of the objective at a fixed theta, of every fit output and of the
    # residuals, for gqlf, dp and holder: a refactor of the per-increment
    # statistics must reproduce every bit
    path, model, theta = _golden_path(kind)
    digest = hashlib.sha256()
    for config in (RobustConfig.gqlf(), RobustConfig.density_power(0.5),
                   RobustConfig.hoelder(0.5)):
        value, grad = value_and_grad(path, model, theta, config)
        res = estimate(path, model, config)
        for arr in (value, grad, res.theta_hat, res.objective_value, res.gamma_hat,
                    res.sigma_hat, res.fisher_hat, res.ci,
                    residuals(path, model, res.theta_hat)):
            digest.update(np.asarray(arr, dtype=float).tobytes())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("kind, expected", [
    ("external", "98046282cdc7e82ce358dd308d4dd72f2ebd9e278689011851f2b31d8b52b006"),
    ("self-response", "ef15375f2f5f3a4488bf2715707bdbed9111b246784621efd402cb30d4530aa2"),
    ("d2", "98986f3bd74d318f7a55cbfa3612795171c21b359b6d25beba9c4a6ed68eef8b"),
])
def test_fit_keeps_its_bits(kind, expected):
    # sha256 of the objective at a fixed theta, of theta_hat, of the objective
    # there and of the residuals, for gqlf, dp and holder: a faster objective
    # or plug-in step must not move theta_hat by one bit
    path, model, theta = _golden_path(kind)
    digest = hashlib.sha256()
    for config in (RobustConfig.gqlf(), RobustConfig.density_power(0.5),
                   RobustConfig.hoelder(0.5)):
        value, grad = value_and_grad(path, model, theta, config)
        res = estimate(path, model, config)
        for arr in (value, grad, res.theta_hat, res.objective_value,
                    residuals(path, model, res.theta_hat)):
            digest.update(np.asarray(arr, dtype=float).tobytes())
    assert digest.hexdigest() == expected


def _record_fits():
    """The fits whose diagnostic record is pinned: the golden paths, three
    jumpdiff replications that end on the box (rep 2 also not converged), and
    a fit cut off after two iterations."""
    for kind in ("external", "self-response", "d2"):
        path, model, _ = _golden_path(kind)
        for config in (RobustConfig.gqlf(), RobustConfig.density_power(0.5),
                       RobustConfig.hoelder(0.5)):
            yield estimate(path, model, config)
    scenario = get_preset("sec6-5-jumpdiff", n=1000, seed=1)
    model = make_builtin(scenario.model.name)
    for rep in range(3):
        path = simulate(scenario, replication=rep).observed
        yield estimate(path, model, RobustConfig.gqlf(), theta0=scenario.model.theta0_array())
    path, model, _ = _golden_path("external")
    yield estimate(path, model, RobustConfig.density_power(0.5), OptimizerOptions(max_iters=2))


def test_fit_record_keeps_its_bits():
    # sha256 of each fit's diagnostic fields (float repr round-trips every
    # bit): a refactor of how estimate judges its result must not move a flag
    records = [tuple(value.tolist() if isinstance(value, np.ndarray) else value
                     for value in (res.converged, res.iterations, res.nfev,
                                   res.projected_grad_norm, res.boundary_active,
                                   res.negative_variance, res.taper_diagnostic, res.u_stat))
               for res in _record_fits()]
    assert any(any(record[4]) for record in records)  # the bound rule is exercised
    assert not all(record[0] for record in records)
    digest = hashlib.sha256(repr(records).encode())
    assert digest.hexdigest() == "b13f49678c830d55e5efd466a2691fe9c6dad671a34df7c8b8e3eb18d5b01e6f"


_CONFIGS = {"gqlf": RobustConfig.gqlf(), "dp": RobustConfig.density_power(0.5),
            "holder": RobustConfig.hoelder(0.5)}


def _lbfgsb_problem(case):
    """(negated objective, the list of its calls, start, lower, upper,
    max_iters) of a fit named `<kind>-<config>`, `jumpdiff-rep<r>` (gqlf, n = 1000),
    `external-dp-max_iters2` or `open-box` (exp-linear-3, dp 0.5, on a box
    with bounds -inf, +inf and one of each: scipy's codes 0, 1 and 3)."""
    max_iters, config = 500, RobustConfig.density_power(0.5)
    if case.startswith("jumpdiff-rep"):
        scenario, config = get_preset("sec6-5-jumpdiff", n=1000, seed=1), RobustConfig.gqlf()
        path = simulate(scenario, replication=int(case[-1])).observed
        model = make_builtin(scenario.model.name)
    elif case == "open-box":
        path, _, _ = _golden_path("external")
        model = replace(make_builtin("exp-linear-3"), box=ParameterBox(
            lower=[-np.inf, -10.0, -np.inf], upper=[np.inf, np.inf, 10.0], initial=[0.0] * 3))
    elif case == "external-dp-max_iters2":
        path, model, _ = _golden_path("external")
        max_iters = 2
    else:
        kind, name = case.rsplit("-", 1)
        path, model, _ = _golden_path(kind)
        config = _CONFIGS[name]
    features = model.feature_block(covariate_block(path, model))
    calls = []

    def negated(theta):
        calls.append(theta)
        value, grad = value_and_grad(path, model, theta, config, features=features)
        return -value, -grad

    box = model.box
    return negated, calls, box.clamp(box.initial), box.lower, box.upper, max_iters


@pytest.mark.parametrize("case", [f"{kind}-{name}" for kind in ("external", "self-response", "d2")
                                  for name in _CONFIGS]
                         + ["jumpdiff-rep0", "jumpdiff-rep1", "jumpdiff-rep2",
                            "external-dp-max_iters2", "open-box"])
def test_lbfgsb_loop_matches_scipy_minimize(case):
    # the loop that drives scipy's compiled kernel gives minimize's x bits,
    # f, g, iteration and evaluation counts and success flag, and its nfev
    # counts the objective's calls
    negated, calls, start, lower, upper, max_iters = _lbfgsb_problem(case)
    x, f, g, nit, nfev, success = estimator_mod._lbfgsb(negated, start, lower, upper, 1e-8,
                                                        max_iters)
    assert nfev == len(calls)
    want = lbfgsb_minimize(negated, start, lower, upper, 1e-8, max_iters)
    assert x.tobytes() == want[0].tobytes()
    assert f == want[1]
    np.testing.assert_array_equal(g, want[2])
    assert (nit, nfev, success) == tuple(want[3:])
    if case == "jumpdiff-rep2" or case.endswith("max_iters2"):
        assert not success
    if case.endswith("max_iters2"):
        assert nit == 2


def test_lbfgsb_loop_reuses_a_re_requested_point(monkeypatch):
    # the d2 dp golden fit asks for f and g at its last point again; the loop
    # answers from its copy, as scipy's ScalarFunction does, which keeps
    # minimize's nfev of 24
    import scipy.optimize._lbfgsb as kernel

    setulb, requests = kernel.setulb, []

    def counting(*args):
        setulb(*args)
        if args[11][0] == 3:  # task FG
            requests.append(args[1].copy())

    monkeypatch.setattr(kernel, "setulb", counting)
    negated, calls, start, lower, upper, max_iters = _lbfgsb_problem("d2-dp")
    nfev = estimator_mod._lbfgsb(negated, start, lower, upper, 1e-8, max_iters)[4]
    assert nfev == len(calls) == 24
    assert len(requests) > nfev
    assert any((a == b).all() for a, b in zip(requests[1:], requests))


def test_setulb_keeps_the_signature_the_loop_calls():
    # estimator._lbfgsb calls scipy's private compiled L-BFGS-B kernel with
    # these 17 positional arguments, the C kernel's signature since scipy 1.15
    # (pyproject's floor); a scipy that changes it must fail here, not fit wrong
    from scipy.optimize._lbfgsb import setulb

    assert setulb.__doc__.splitlines()[0] == (
        "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)")


@pytest.mark.parametrize("kind", ["external", "self-response", "d2",
                                  "external-c-order", "self-response-c-order"])
@pytest.mark.parametrize("config", [RobustConfig.gqlf(), RobustConfig.density_power(0.1),
                                    RobustConfig.density_power(0.5),
                                    RobustConfig.hoelder(0.5)],
                         ids=["gqlf", "dp0.1", "dp0.5", "holder"])
def test_plugin_matrices_match_the_einsum_oracle(kind, config):
    # each weighted Gram product agrees with the (n, p, p) einsum within
    # 1e-12 of the matrix's largest entry, whether dS comes parameter-major
    # (the builtins) or row-major (a custom map)
    path, model, theta = _golden_path(kind.removesuffix("-c-order"))
    if kind.endswith("-c-order"):
        model = c_ordered_ds(model)
    got = plugin_matrices(path, model, theta, config)
    for mine, want in zip(got, plugin_matrices_einsum(path, model, theta, config)):
        scale = np.abs(want).max()
        assert scale > 0.0
        assert np.abs(mine - want).max() <= 1e-12 * scale
        np.testing.assert_array_equal(mine, mine.T)


def _reuse_case(kind, rng):
    if kind == "d1":
        return make_exp_linear_path(rng, n=300, spikes=2)
    from test_multidim import coupled_model, random_path
    path = random_path(rng, 200, 2, rng.uniform(-1.0, 1.0, (201, 1)))
    return path, coupled_model(2)


def _assert_plugin_bits(res, path, model, config):
    gamma, sigma, fisher = plugin_matrices(path, model, res.theta_hat, config)
    np.testing.assert_array_equal(res.gamma_hat, gamma)
    np.testing.assert_array_equal(res.sigma_hat, sigma)
    np.testing.assert_array_equal(res.fisher_hat, fisher)


class TestPluginReuse:
    """The plug-in step reads the optimizer's last per-increment record when
    that evaluation ran at theta_hat, and evaluates S and dS again otherwise."""

    @pytest.mark.parametrize("kind", ["d1", "d2"])
    @pytest.mark.parametrize("config", [RobustConfig.gqlf(), RobustConfig.density_power(0.5),
                                        RobustConfig.hoelder(0.5)], ids=["gqlf", "dp", "holder"])
    def test_one_ds_evaluation_per_objective_evaluation(self, kind, config, rng, monkeypatch):
        path, model = _reuse_case(kind, rng)
        calls = {"value_and_grad": 0, "ds_values": 0}
        original_vg, original_ds = estimator_mod.value_and_grad, ModelSpec.ds_values

        def counting_vg(*args, **kwargs):
            calls["value_and_grad"] += 1
            return original_vg(*args, **kwargs)

        def counting_ds(self, *args, **kwargs):
            calls["ds_values"] += 1
            return original_ds(self, *args, **kwargs)

        monkeypatch.setattr(estimator_mod, "value_and_grad", counting_vg)
        monkeypatch.setattr(ModelSpec, "ds_values", counting_ds)
        res = estimate(path, model, config)
        monkeypatch.undo()
        assert calls["value_and_grad"] >= 2
        assert calls["ds_values"] == calls["value_and_grad"]
        _assert_plugin_bits(res, path, model, config)

    @pytest.mark.parametrize("kind", ["d1", "d2"])
    def test_miss_recomputes_at_theta_hat(self, kind, rng, monkeypatch):
        # the optimizer evaluates one more point after it has finished, then
        # writes theta_hat into the buffer it passed: a record kept by
        # reference, or taken without a check, would be the wrong point's
        path, model = _reuse_case(kind, rng)
        config = RobustConfig.density_power(0.5)
        real = estimator_mod._lbfgsb

        def one_more(fun, *args):
            out = real(fun, *args)
            buffer = out[0] + 0.05
            fun(buffer)
            buffer[:] = out[0]
            return out

        monkeypatch.setattr(estimator_mod, "_lbfgsb", one_more)
        res = estimate(path, model, config)
        monkeypatch.undo()
        _assert_plugin_bits(res, path, model, config)
        np.testing.assert_array_equal(res.theta_hat, estimate(path, model, config).theta_hat)

    def test_objective_without_the_hand_back_recomputes(self, rng, monkeypatch):
        # a replacement objective that drops the keyword leaves no record
        path, model = _reuse_case("d1", rng)
        config = RobustConfig.hoelder(0.5)
        base = estimate(path, model, config)
        original = estimator_mod.value_and_grad

        def dropping(path, model, theta, config, **_):
            return original(path, model, theta, config)

        monkeypatch.setattr(estimator_mod, "value_and_grad", dropping)
        res = estimate(path, model, config)
        for name in ("theta_hat", "gamma_hat", "sigma_hat", "fisher_hat", "ci"):
            np.testing.assert_array_equal(getattr(res, name), getattr(base, name))
