import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import c_ordered_ds, make_exp_linear_path
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hess_objective, objective, objective_reference

from rvolest import (
    CholeskyFailure,
    DgpModel,
    ModelSpec,
    ObservationPath,
    RobustConfig,
    Scenario,
    Variant,
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
from rvolest.likelihood import LAMBDA_BAR, _increments, covariate_block

GQLF = RobustConfig.gqlf()
DP = RobustConfig.density_power
HO = RobustConfig.hoelder


def single_increment_path(s_value: float, eps: float):
    """n = 1, T = 1 path under const-levy with S = s_value and eps_1 = eps."""
    model = make_builtin("const-levy")
    theta = np.array([np.log(s_value)])
    path = ObservationPath(
        n=1, T=1.0, times=np.array([0.0, 1.0]),
        covariates=np.zeros((2, 1)), responses=np.array([0.0, eps]),
    )
    return path, model, theta


class TestHandValues:
    def test_gqlf_zero_increments_identity_s(self):
        path, model, theta = single_increment_path(1.0, 0.0)
        assert objective(path, model, theta, GQLF) == pytest.approx(0.0, abs=1e-15)

    def test_gqlf_hand_value(self):
        path, model, theta = single_increment_path(2.0, 1.0)
        value = objective(path, model, theta, GQLF)
        assert value == pytest.approx(-0.5 * (np.log(2.0) + 0.5), rel=1e-12)
        assert value == pytest.approx(-0.59657, abs=1e-5)

    def test_dp_hand_value(self):
        path, model, theta = single_increment_path(1.0, 0.0)
        want = 1.0 / np.sqrt(2 * np.pi) - k_const(1.0, 1)
        assert objective(path, model, theta, DP(1.0)) == pytest.approx(want, rel=1e-12)
        assert objective(path, model, theta, DP(1.0)) == pytest.approx(0.2578949, abs=1e-7)

    def test_hoelder_hand_value(self):
        path, model, theta = single_increment_path(1.0, 0.0)
        assert objective(path, model, theta, HO(1.0)) == pytest.approx(0.3989423, abs=1e-7)

    def test_dp_huge_increment_limit(self):
        # phi^lam -> 0, so the summand tends to -K * det^{-lam/2}
        for s, lam in ((1.0, 1.0), (2.5, 0.4)):
            path, model, theta = single_increment_path(s, 1e8)
            want = -k_const(lam, 1) * s ** (-lam / 2.0)
            assert objective(path, model, theta, DP(lam)) == pytest.approx(want, rel=1e-12)

    def test_hoelder_huge_increment_limit(self):
        path, model, theta = single_increment_path(1.0, 1e8)
        assert objective(path, model, theta, HO(1.0)) == pytest.approx(0.0, abs=1e-300)

    def test_objective_dispatch(self, rng):
        # value_and_grad evaluates the formula of the configured variant
        path, model = make_exp_linear_path(rng, n=32)
        theta = np.array([-1.0, 2.0, 0.3])
        values = []
        for config in (GQLF, DP(0.7), HO(0.7)):
            want, _ = objective_reference(path, model, theta, config)
            values.append(objective(path, model, theta, config))
            assert values[-1] == pytest.approx(want, rel=1e-12)
        assert len(set(values)) == 3


class TestLambdaZeroDegeneracy:
    """Both tapered objectives degenerate to the plain GQLF as lambda -> 0."""

    LAM = 1e-6

    def dp_transform(self, path, diff):
        return diff / path.h ** (path.d * self.LAM / 2.0)

    def hoelder_transform(self, path, diff):
        lam, d = self.LAM, path.d
        factor = (path.h ** (d * lam / 2.0)) ** (-1.0 / (lam + 1.0)) * (
            (lam + 1.0) * k_const(lam, d)
        ) ** (-lam / (lam + 1.0))
        return factor * diff

    def test_matches_gqlf_differences(self, rng):
        # theta pairs in the estimation-relevant neighborhood of theta_0: the
        # degeneracy is asymptotic in lambda and the remainder is O(lam g^2),
        # so wildly misspecified theta (huge quadratic forms) would need an
        # even smaller lambda for the same relative accuracy.
        theta0 = np.array([-2.0, 3.0, 0.0])
        for _ in range(10):
            n = int(rng.integers(24, 80))
            path, model = make_exp_linear_path(rng, n=n)
            th1 = theta0 + rng.uniform(-1.5, 1.5, size=3)
            th2 = theta0 + rng.uniform(-1.5, 1.5, size=3)
            want = objective(path, model, th1, GQLF) - objective(path, model, th2, GQLF)
            got_dp = self.dp_transform(
                path,
                objective(path, model, th1, DP(self.LAM))
                - objective(path, model, th2, DP(self.LAM)),
            )
            got_ho = self.hoelder_transform(
                path,
                objective(path, model, th1, HO(self.LAM))
                - objective(path, model, th2, HO(self.LAM)),
            )
            assert got_dp == pytest.approx(want, rel=1e-3)
            assert got_ho == pytest.approx(want, rel=1e-3)


class TestBoundedness:
    @given(
        lam=st.floats(0.05, 2.0),
        det=st.floats(0.05, 50.0),
        eps=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_dp_summand_bounds(self, lam, det, eps):
        path, model, theta = single_increment_path(det, eps)
        val = objective(path, model, theta, DP(lam))
        kconst = k_const(lam, 1)
        lo = -kconst * det ** (-lam / 2.0)
        hi = det ** (-lam / 2.0) * ((2 * np.pi) ** (-lam / 2.0) / lam - kconst)
        assert lo - 1e-12 <= val <= hi + 1e-12

    @given(
        lam=st.floats(0.05, 2.0),
        det=st.floats(0.05, 50.0),
        eps=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_hoelder_summand_bounds(self, lam, det, eps):
        path, model, theta = single_increment_path(det, eps)
        val = objective(path, model, theta, HO(lam))
        hi = det ** (-lam / (2 * (lam + 1.0))) * (2 * np.pi) ** (-lam / 2.0) / lam
        assert 0.0 <= val <= hi + 1e-12

    def test_influence_bounded_for_dp_unbounded_for_gqlf(self, rng):
        path, model = make_exp_linear_path(rng, n=50)
        theta = np.array([-2.0, 3.0, 0.0])
        lam = 0.5
        base_dp = objective(path, model, theta, DP(lam))
        base_gq = objective(path, model, theta, GQLF)
        contaminated = np.array(path.responses[:, 0], copy=True)
        contaminated[-1] += 1e7  # only the last increment changes
        bad = ObservationPath(
            n=path.n, T=path.T, times=path.times,
            covariates=path.covariates, responses=contaminated,
        )
        s_last = model.s_values(path.covariates[-2:-1], theta)[0]
        width = s_last ** (-lam / 2.0) * (2 * np.pi) ** (-lam / 2.0) / lam
        assert abs(objective(bad, model, theta, DP(lam)) - base_dp) <= width + 1e-12
        assert abs(objective(bad, model, theta, GQLF) - base_gq) > 1e6


class TestGradients:
    def fd_grad(self, path, model, theta, config):
        grad = np.empty(3)
        for k in range(3):
            step = 1e-6 * (1.0 + abs(theta[k]))
            up, down = theta.copy(), theta.copy()
            up[k] += step
            down[k] -= step
            grad[k] = (
                objective(path, model, up, config) - objective(path, model, down, config)
            ) / (2 * step)
        return grad

    @pytest.mark.parametrize(
        "config",
        [GQLF, DP(0.5), HO(0.5)],
        ids=["gqlf", "dp", "holder"],
    )
    def test_grad_matches_fd(self, config, rng):
        worst = 0.0
        for _ in range(50):
            path, model = make_exp_linear_path(rng, n=40)
            theta = rng.uniform(-3, 3, size=3)
            analytic = value_and_grad(path, model, theta, config)[1]
            numeric = self.fd_grad(path, model, theta, config)
            rel = np.abs(analytic - numeric).max() / max(1e-8, np.abs(analytic).max())
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_gqlf_gradient_hand_value(self):
        # d=1, S=e^theta, eps=0, n=1: gradient of -1/2(theta + eps^2 e^-theta) is -1/2
        path, model, _ = single_increment_path(1.0, 0.0)
        grad = value_and_grad(path, model, np.array([0.0]), GQLF)[1]
        assert grad[0] == pytest.approx(-0.5, rel=1e-12)

    def test_fast_path_matches_matrix_path(self, rng):
        for config in (GQLF, DP(0.8), HO(0.3)):
            path, model = make_exp_linear_path(rng, n=30)
            theta = rng.uniform(-2, 2, size=3)
            v1, g1 = value_and_grad(path, model, theta, config)
            v2, g2 = objective_reference(path, model, theta, config)
            assert v1 == pytest.approx(v2, rel=1e-12)
            np.testing.assert_allclose(g1, g2, rtol=1e-10)


class TestHessian:
    def test_symmetric(self, rng):
        path, model = make_exp_linear_path(rng, n=30)
        hess = hess_objective(path, model, np.array([-1.0, 1.0, 0.2]), DP(0.5))
        assert np.abs(hess - hess.T).max() < 1e-8

    def test_const_path_information_limit(self):
        # increments of exactly +/- sqrt(h) make the empirical second moment 1,
        # so -(1/n) d^2 H equals 1/2 at theta = 0 up to FD error.
        n = 128
        model = make_builtin("const-levy")
        h = 1.0 / n
        signs = np.resize([1.0, -1.0], n)
        responses = np.concatenate([[0.0], np.cumsum(signs * np.sqrt(h))])
        path = ObservationPath(
            n=n, T=1.0, times=np.arange(n + 1) * h,
            covariates=np.zeros((n + 1, 1)), responses=responses,
        )
        hess = hess_objective(path, model, np.array([0.0]), GQLF)
        assert -hess[0, 0] / n == pytest.approx(0.5, rel=1e-6)


class TestValidationAndErrors:
    def test_robust_config_lambda_range(self):
        with pytest.raises(ValueError):
            RobustConfig.density_power(0.0)
        with pytest.raises(ValueError):
            RobustConfig.hoelder(2.5)
        assert RobustConfig.hoelder(LAMBDA_BAR).lam == LAMBDA_BAR  # closed at the bar
        assert RobustConfig.gqlf().variant is Variant.GQLF

    @pytest.mark.parametrize("name", ["gqlf", "dp", "holder"])
    @pytest.mark.parametrize("lam", ["0.5", True, False, None, 0.5j],
                             ids=["str", "true", "false", "none", "complex"])
    def test_robust_config_rejects_a_lambda_that_is_not_a_real_number(self, name, lam):
        # "0.5" used to raise TypeError from the range check, and True passed it
        with pytest.raises(ValueError, match="lambda must be a number"):
            RobustConfig(name, lam)

    @pytest.mark.parametrize("lam", [1, np.float32(0.5), np.float64(0.25), np.int64(1)],
                             ids=["int", "float32", "float64", "int64"])
    def test_robust_config_stores_lambda_as_a_float(self, lam):
        # a float32 lambda was stored as float32, and so computed in float32
        for config in (RobustConfig.density_power(lam), RobustConfig.hoelder(lam),
                       RobustConfig(Variant.GQLF, lam)):
            assert type(config.lam) is float and config.lam == float(lam)

    @pytest.mark.parametrize("name, lam", [("gqlf", 0.0), ("dp", 0.5), ("holder", 0.5)])
    def test_robust_config_coerces_a_variant_name(self, name, lam):
        # a name used to reach the objective as a str: "dp" evaluated the
        # Hoelder objective and estimate died with KeyError: 'dp'
        config = RobustConfig(name, lam)
        assert config.variant is Variant(name) and config == RobustConfig(Variant(name), lam)
        path = simulate(get_preset("sec6-1-spike", n=500, seed=3)).observed
        model = make_builtin("exp-linear-3")
        theta = np.array([-2.0, 3.0, 0.0])
        got = value_and_grad(path, model, theta, config)
        want = value_and_grad(path, model, theta, RobustConfig(Variant(name), lam))
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        assert estimate(path, model, config).theta_hat.tolist() == \
            estimate(path, model, RobustConfig(Variant(name), lam)).theta_hat.tolist()

    def test_robust_config_rejects_an_unknown_variant(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid Variant"):
            RobustConfig("bogus", 0.5)

    def test_path_validation(self):
        with pytest.raises(ValueError):
            ObservationPath(n=2, T=1.0, times=np.array([0.0, 0.4, 1.0]),
                            covariates=None, responses=np.zeros(3))
        with pytest.raises(ValueError):
            ObservationPath(n=2, T=1.0, times=np.array([0.0, 0.5]),
                            covariates=None, responses=np.zeros(3))
        with pytest.raises(ValueError):
            ObservationPath(n=2, T=1.0, times=np.array([0.0, 0.5, 1.0]),
                            covariates=np.zeros((2, 1)), responses=np.zeros(3))

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_path_rejects_nonfinite_horizon(self, T):
        # a NaN or infinite horizon used to pass the grid check (NaN compares false)
        with pytest.raises(ValueError, match="finite T"):
            ObservationPath(n=2, T=T, times=np.array([0.0, 0.5, 1.0]),
                            covariates=None, responses=np.zeros(3))

    @pytest.mark.parametrize("field, value", [
        ("responses", np.nan), ("responses", np.inf), ("times", np.nan),
        ("covariates", -np.inf),
    ], ids=["nan-response", "inf-response", "nan-time", "inf-covariate"])
    def test_path_rejects_non_finite_data(self, field, value):
        # a NaN response used to fail the fit as "matrix not SPD", an infinite
        # one to give theta_hat = 0 with objective -inf, and a NaN time passed
        # the grid check (NaN compares false)
        path = simulate(get_preset("sec6-1-spike", n=400, seed=3)).observed
        arrays = {name: np.array(getattr(path, name))
                  for name in ("times", "responses", "covariates")}
        arrays[field][7:9] = value
        with pytest.raises(ValueError, match=rf"^{field} must be finite, but row 7 holds"):
            ObservationPath(n=path.n, T=path.T, **arrays)

    def test_scaled_increments_recomputable(self, rng):
        path, _ = make_exp_linear_path(rng, n=16)
        eps = scaled_increments(path)
        assert eps.shape == (16, 1)
        np.testing.assert_allclose(
            eps[:, 0], np.diff(path.responses[:, 0]) / np.sqrt(path.h), rtol=0
        )

    def test_scaled_increments_are_the_paths_read_only_array(self, rng):
        # computed once per path: every evaluation reads the same array,
        # and nothing can write into it
        path, _ = make_exp_linear_path(rng, n=16)
        eps = scaled_increments(path)
        assert eps is scaled_increments(path) and not eps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            eps[0, 0] = 1.0

    def test_cholesky_failure_reports_index(self):
        model = make_builtin("rational-diffusion")
        path = ObservationPath(
            n=3, T=1.0, times=np.arange(4) / 3.0,
            covariates=None, responses=np.array([0.0, 0.1, 0.2, 0.3]),
        )
        with pytest.raises(CholeskyFailure) as err:
            objective(path, model, np.array([0.0, 0.0]), GQLF)
        assert err.value.index == 1

    def test_missing_external_covariates(self):
        model = make_builtin("exp-linear-3")
        path = ObservationPath(
            n=2, T=1.0, times=np.array([0.0, 0.5, 1.0]),
            covariates=None, responses=np.zeros(3),
        )
        with pytest.raises(ValueError):
            objective(path, model, np.zeros(3), GQLF)

    @pytest.mark.parametrize("call", [
        lambda path, model: value_and_grad(path, model, model.box.initial, DP(0.5)),
        lambda path, model: plugin_matrices(path, model, model.box.initial, DP(0.5)),
        lambda path, model: residuals(path, model, model.box.initial),
    ], ids=["value_and_grad", "plugin_matrices", "residuals"])
    @pytest.mark.parametrize("name, x_cols, y_cols, said", [
        ("exp-linear-3", 3, 2, "path has 2 response columns, model 'exp-linear-3' has d = 1"),
        ("const-levy", 3, 2, "path has 2 response columns, model 'const-levy' has d = 1"),
        ("rational-diffusion", 0, 2,
         "path has 2 response columns, model 'rational-diffusion' has d = 1"),
        ("exp-linear-3", 1, 1, "model 'exp-linear-3' reads 3 covariate columns, path has 1"),
        ("exp-linear-3", 4, 1, "model 'exp-linear-3' reads 3 covariate columns, path has 4"),
        ("const-levy", 3, 1, "model 'const-levy' reads 1 covariate columns, path has 3"),
    ], ids=["two-responses", "two-responses-const", "two-responses-self", "one-covariate",
            "four-covariates", "three-covariates-const"])
    def test_path_that_does_not_fit_the_model(self, call, name, x_cols, y_cols, said, rng):
        # a wrong response dimension used to be fitted on the first column
        n = 20
        times = np.arange(n + 1) / n
        path = ObservationPath(
            n=n, T=1.0, times=times,
            covariates=np.cos(np.outer(times, np.arange(1, x_cols + 1))) if x_cols else None,
            responses=np.cumsum(rng.normal(0.0, 0.2, (n + 1, y_cols)), axis=0),
        )
        with pytest.raises(ValueError, match=re.escape(said)):
            call(path, make_builtin(name))

    @pytest.mark.parametrize("call", [
        lambda path, model, theta: value_and_grad(path, model, theta, DP(0.5)),
        lambda path, model, theta: plugin_matrices(path, model, theta, DP(0.5)),
        lambda path, model, theta: residuals(path, model, theta),
    ], ids=["value_and_grad", "plugin_matrices", "residuals"])
    @pytest.mark.parametrize("name, theta, said", [
        ("rational-diffusion", [2.0, 3.0, 99.0], "theta must be p = 2 finite numbers, got "
                                                 "[2.0, 3.0, 99.0]"),
        ("rational-diffusion", [2.0], "theta must be p = 2 finite numbers, got [2.0]"),
        ("exp-linear-3", [-2.0, np.nan, 0.0], "theta must be p = 3 finite numbers, got "
                                              "[-2.0, nan, 0.0]"),
    ], ids=["too-long", "too-short", "nan"])
    def test_theta_that_does_not_fit_the_model(self, call, name, theta, said, rng):
        # a longer theta used to give a gradient of length p, a shorter one an
        # IndexError and a NaN one a CholeskyFailure
        model = make_builtin(name)
        n = 20
        times = np.arange(n + 1) / n
        path = ObservationPath(
            n=n, T=1.0, times=times,
            covariates=np.cos(np.outer(times, [1, 2, 3])) if name == "exp-linear-3" else None,
            responses=1.0 + np.cumsum(rng.normal(0.0, 0.2, n + 1)),
        )
        with pytest.raises(ValueError, match=re.escape(said)):
            call(path, model, np.array(theta))

    def test_simulated_const_levy_path_fits(self):
        # a simulated external path carries as many trig covariates as the
        # model reads
        sc = Scenario(model=DgpModel(name="const-levy", theta0=(0.5,)), n=200, seed=1)
        path = simulate(sc).observed
        assert path.covariates.shape[1] == 1
        res = estimate(path, make_builtin("const-levy"), GQLF)
        assert res.converged and abs(res.theta_hat[0] - 0.5) < 0.3

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_model_evaluation_per_call(self, d, rng, monkeypatch):
        # the objective and the plug-in matrices evaluate S and dS once;
        # residuals evaluate S once and never dS
        if d == 1:
            path, model = make_exp_linear_path(rng, n=40)
        else:
            from test_multidim import coupled_model, random_path
            path = random_path(rng, 40, 2, rng.uniform(-1.0, 1.0, (41, 1)))
            model = coupled_model(2)
        calls = []

        def counting(name):
            original = getattr(ModelSpec, name)

            def wrapper(self, *args, **kwargs):
                calls.append(name)
                return original(self, *args, **kwargs)
            return wrapper

        for name in ("s_values", "ds_values"):
            monkeypatch.setattr(ModelSpec, name, counting(name))
        theta = model.box.initial
        for call, want in [
            (lambda: value_and_grad(path, model, theta, DP(0.5)), ["s_values", "ds_values"]),
            (lambda: plugin_matrices(path, model, theta, DP(0.5)), ["s_values", "ds_values"]),
            (lambda: residuals(path, model, theta), ["s_values"]),
        ]:
            calls.clear()
            call()
            assert calls == want

    def test_value_and_grad_consistent(self, rng):
        path, model = make_exp_linear_path(rng, n=25)
        theta = np.array([0.5, -0.5, 1.0])
        config = DP(0.3)
        val, grad = value_and_grad(path, model, theta, config)
        want_val, want_grad = objective_reference(path, model, theta, config)
        assert val == pytest.approx(want_val, rel=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-10)
        # pure: a second call gives bit-identical output
        val2, grad2 = value_and_grad(path, model, theta, config)
        assert val2 == val
        np.testing.assert_array_equal(grad2, grad)


def _in_place_case(kind, rng):
    if kind == "external":
        return make_exp_linear_path(rng, n=300, spikes=2)
    if kind == "self-response":
        path = simulate(get_preset("sec6-5-jumpdiff", n=400, seed=3)).observed
        return path, make_builtin("rational-diffusion")
    from test_multidim import coupled_model, random_path
    return random_path(rng, 200, 2, rng.uniform(-1.0, 1.0, (201, 1))), coupled_model(2)


def _read_only(fn):
    def frozen(x_block, theta):
        out = np.array(fn(x_block, theta), dtype=float)
        out.setflags(write=False)
        return out
    return frozen


class TestInPlaceSafety:
    """The objective writes only into its own scratch arrays: never into the
    record that the plug-in step reads afterwards, nor into a model map's result."""

    @pytest.mark.parametrize("kind", ["external", "self-response", "d2"])
    @pytest.mark.parametrize("config", [GQLF, DP(0.1), DP(0.5), HO(0.5)],
                             ids=["gqlf", "dp0.1", "dp0.5", "holder"])
    def test_kept_record_equals_a_fresh_one(self, kind, config, rng):
        path, model = _in_place_case(kind, rng)
        theta = model.box.initial + 0.1
        keep = []
        value_and_grad(path, model, theta, config, keep=keep)
        for got, want in zip(keep[1], _increments(path, model, theta), strict=True):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind", ["external", "self-response"])
    def test_read_only_model_maps_fit_with_the_same_bits(self, kind, rng):
        path, model = _in_place_case(kind, rng)
        frozen = replace(model, name="read-only", s_path=_read_only(model.s_path),
                         ds_path=_read_only(model.ds_path))
        for config in (GQLF, DP(0.1), HO(0.5)):
            want, got = estimate(path, model, config), estimate(path, frozen, config)
            for name in ("theta_hat", "objective_value", "gamma_hat", "sigma_hat",
                         "fisher_hat", "ci", "nfev"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestDerivativeLayout:
    """The builtin d = 1 ds_path maps return a parameter-major (n, p) view;
    a custom map's row-major array gives the same objective."""

    @pytest.mark.parametrize("kind", ["external", "self-response"])
    @pytest.mark.parametrize("config", [GQLF, DP(0.1), DP(0.5), HO(0.5)],
                             ids=["gqlf", "dp0.1", "dp0.5", "holder"])
    def test_row_major_and_parameter_major_ds_agree(self, kind, config, rng):
        path, model = _in_place_case(kind, rng)
        rows = c_ordered_ds(model)
        x_block = covariate_block(path, model)
        for theta in (model.box.initial, model.box.initial + 0.1):
            builtin, custom = (m.ds_values(x_block, theta) for m in (model, rows))
            assert builtin.T.flags.c_contiguous and custom.flags.c_contiguous
            np.testing.assert_array_equal(builtin, custom)
            (want, want_grad), (got, got_grad) = (value_and_grad(path, m, theta, config)
                                                  for m in (rows, model))
            assert got == want
            assert np.abs(got_grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
