import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvolest import (
    BUILTIN_NAMES,
    ModelSpec,
    ParameterBox,
    UnknownModel,
    estimate,
    get_preset,
    make_builtin,
    residuals,
    simulate,
    value_and_grad,
)
from rvolest.likelihood import ObservationPath, RobustConfig, covariate_block
from rvolest.model import CovariateSource


def random_args(rng, model):
    x = rng.uniform(-1.5, 1.5, size=model.cov_dim)
    theta = rng.uniform(model.box.lower, model.box.upper)
    return x, theta


def fd_grad(f, theta, step=1e-6):
    grad = []
    for k in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[k] += step * (1 + abs(theta[k]))
        down[k] -= step * (1 + abs(theta[k]))
        grad.append((f(up) - f(down)) / (up[k] - down[k]))
    return np.array(grad)


def s_at(model, x, theta):
    """S at one covariate row, from a one-row block."""
    return model.s_values(np.atleast_2d(np.asarray(x, dtype=float)), theta)[0]


def ds_at(model, x, theta):
    """dS at one covariate row, from a one-row block."""
    return model.ds_values(np.atleast_2d(np.asarray(x, dtype=float)), theta)[0]


class TestBuiltins:
    def test_exp_linear_point_values(self):
        m = make_builtin("exp-linear-3")
        x = np.array([1.0, 0.0, 0.0])
        assert s_at(m, x, np.array([-2.0, 3.0, 0.0])) == pytest.approx(np.exp(-2.0), rel=1e-12)
        assert s_at(m, x, np.array([-2.0, 3.0, 0.0])) == pytest.approx(0.135335, abs=1e-6)
        # derivative of exp at theta = 0 equals x_1 * S = 1
        assert ds_at(m, x, np.zeros(3))[0] == pytest.approx(1.0, rel=1e-12)
        assert m.covariate_source is CovariateSource.EXTERNAL

    def test_rational_point_values(self):
        m = make_builtin("rational-diffusion")
        assert s_at(m, [0.0], np.array([2.0, 3.0])) == pytest.approx(4.0, rel=1e-12)
        # far out in y, sigma -> theta_2
        assert s_at(m, [100.0], np.array([2.0, 3.0])) == pytest.approx(9.0, rel=1e-3)
        assert m.covariate_source is CovariateSource.SELF_RESPONSE

    def test_const_levy(self):
        m = make_builtin("const-levy")
        for x in (np.array([0.0]), np.array([42.0])):
            assert s_at(m, x, np.array([0.7])) == pytest.approx(np.exp(0.7), rel=1e-12)

    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            make_builtin("no-such-model")
        assert set(BUILTIN_NAMES) == {"const-levy", "exp-linear-3", "rational-diffusion"}

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_ds_matches_finite_differences(self, name, rng):
        m = make_builtin(name)
        worst = 0.0
        for _ in range(100):
            x, theta = random_args(rng, m)
            analytic = ds_at(m, x, theta)
            numeric = fd_grad(lambda th: float(s_at(m, x, th)), theta)
            scale = max(1.0, np.abs(analytic).max())
            worst = max(worst, np.abs(analytic - numeric).max() / scale)
        assert worst < 1e-5

    def test_exp_linear_positive(self, rng):
        m = make_builtin("exp-linear-3")
        for _ in range(200):
            x, theta = random_args(rng, m)
            assert s_at(m, x, theta) > 0.0

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_s_positive_at_every_box_corner(self, name):
        # estimate stops with CholeskyFailure where S is not positive, so S
        # must stay positive on the whole default box.  A lagged-response
        # covariate is unbounded, so its grid reaches large |y|.
        m = make_builtin(name)
        grid = (0.0, 0.5, -1.0, 2.0, -10.0)
        if m.covariate_source is CovariateSource.SELF_RESPONSE:
            grid += (1e3, -1e6)
        xs = np.array(list(itertools.product(grid, repeat=m.cov_dim)))
        for corner in itertools.product(*zip(m.box.lower, m.box.upper)):
            theta = np.array(corner)
            assert np.all(m.s_values(xs, theta) > 0.0), corner
            assert all(s_at(m, x, theta) > 0.0 for x in xs), corner

    @given(theta1=st.floats(0.01, 10.0), theta2=st.floats(0.01, 10.0),
           y=st.floats(-1e6, 1e6))
    @settings(max_examples=500, deadline=None)
    def test_rational_sigma_is_exact_sqrt_of_s(self, theta1, theta2, y):
        # the Euler kernel steps with sigma where it took sqrt(S): on the box,
        # sqrt(RN(s * s)) == s in binary64, so the paths keep their bits.  One
        # step with h = -1 and w = 1 is (y - y) + sigma * 1 = sigma exactly.
        m = make_builtin("rational-diffusion")
        theta = (theta1, theta2)
        step = m.euler(y, np.array([1.0]), np.array([0.0]), -1.0, 1, theta)
        assert math.sqrt(s_at(m, [y], theta)) == step[1]

    def test_rational_sigma_between_thetas(self):
        m = make_builtin("rational-diffusion")
        theta = np.array([2.0, 5.0])
        for y in np.linspace(-10, 10, 101):
            sigma = np.sqrt(s_at(m, [y], theta))
            assert min(theta) - 1e-12 <= sigma <= max(theta) + 1e-12


class TestParameterBox:
    def test_clamp_examples(self):
        box = ParameterBox(lower=[-10.0] * 3, upper=[10.0] * 3, initial=[0.0] * 3)
        inside = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(box.clamp(inside), inside)
        clipped = box.clamp(np.array([-12.0, 0.0, 0.0]))
        assert clipped[0] == -10.0
        np.testing.assert_array_equal(box.clamp(box.upper), box.upper)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterBox(lower=[0.0], upper=[0.0], initial=[0.0])
        with pytest.raises(ValueError):
            ParameterBox(lower=[0.0], upper=[1.0], initial=[2.0])
        with pytest.raises(ValueError):
            ParameterBox(lower=[0.0, 1.0], upper=[1.0], initial=[0.5])

    @pytest.mark.parametrize("field, lower, upper, initial", [
        ("lower", [np.nan, 0.01], [10.0, 10.0], [5.0, 5.0]),
        ("upper", [0.01, 0.01], [10.0, np.nan], [5.0, 5.0]),
        ("initial", [0.01, 0.01], [10.0, 10.0], [np.nan, 5.0]),
        ("initial", [-np.inf, 0.01], [10.0, 10.0], [-np.inf, 5.0]),
    ], ids=["nan-lower", "nan-upper", "nan-initial", "inf-initial"])
    def test_nan_bound_or_non_finite_start_is_named(self, field, lower, upper, initial):
        # a NaN start used to reach the fit, which stopped with a
        # CholeskyFailure at increment 1 instead of naming the start
        with pytest.raises(ValueError, match=f"^{field} "):
            ParameterBox(lower=lower, upper=upper, initial=initial)

    def test_infinite_bounds_are_still_accepted(self):
        box = ParameterBox(lower=[-np.inf, 0.0], upper=[np.inf, 1.0], initial=[3.0, 0.5])
        np.testing.assert_array_equal(box.clamp([1e300, 2.0]), [1e300, 1.0])

    def test_dimension_mismatch_in_clamp(self):
        box = ParameterBox(lower=[0.0], upper=[1.0], initial=[0.5])
        with pytest.raises(ValueError):
            box.clamp(np.array([0.1, 0.2]))

    def test_custom_box_threading(self):
        box = ParameterBox(lower=[-1.0] * 3, upper=[1.0] * 3, initial=[0.1] * 3)
        m = replace(make_builtin("exp-linear-3"), box=box)
        assert m.box is box
        assert make_builtin("exp-linear-3").box.lower[0] == -10.0


def brownian_path(rng, n, d=1):
    h = 1.0 / n
    responses = np.vstack([np.zeros(d), np.cumsum(rng.normal(0.0, np.sqrt(h), (n, d)), axis=0)])
    return ObservationPath(n=n, T=1.0, times=np.arange(n + 1) * h,
                           covariates=np.zeros((n + 1, 1)), responses=responses)


def const_model(d=1, s_path=None, ds_path=None):
    """S = e^theta I_d with p = 1, from the given vectorized maps or correct ones."""
    shape = (d, d) if d > 1 else ()
    unit = np.eye(d).reshape(shape)

    def good_s(xb, theta):
        return np.exp(theta[0]) * np.broadcast_to(unit, (len(xb), *shape))

    def good_ds(xb, theta):
        return good_s(xb, theta)[:, None]

    return ModelSpec(name=f"const-{d}d", d=d, p=1, cov_dim=1,
                     box=ParameterBox([-2.0], [2.0], [0.5]),
                     s_path=s_path or good_s, ds_path=ds_path or good_ds)


class TestModelContract:
    def test_builtins_are_shared_read_only_records(self):
        for name in BUILTIN_NAMES:
            m = make_builtin(name)
            assert make_builtin(name) is m
            assert not m.box.lower.flags.writeable

    def test_a_family_gives_some_form_of_s_and_of_ds(self):
        m = const_model()
        with pytest.raises(ValueError, match="neither s_path nor S"):
            replace(m, s_path=None)
        with pytest.raises(ValueError, match="neither ds_path nor dS"):
            replace(m, ds_path=None)

    def test_box_length_must_equal_p(self):
        short = ParameterBox([-1.0], [1.0], [0.0])
        with pytest.raises(ValueError, match="'short' has p = 2, its box has 1 entries"):
            replace(const_model(), name="short", p=2, box=short)
        with pytest.raises(ValueError, match="p = 3, its box has 1 entries"):
            replace(make_builtin("exp-linear-3"), box=short)

    def test_well_shaped_maps_fit(self, rng):
        for d in (1, 2):
            res = estimate(brownian_path(rng, 300, d), const_model(d), RobustConfig.gqlf())
            assert res.gamma_hat.shape == (1, 1)

    @pytest.mark.parametrize("d, which, bad", [
        (1, "ds_path", lambda xb, theta: np.full(len(xb), np.exp(theta[0]))),
        (1, "s_path", lambda xb, theta: np.full((len(xb), 1), np.exp(theta[0]))),
        (2, "s_path", lambda xb, theta: np.exp(theta[0]) * np.ones((len(xb), 4))),
        (2, "ds_path", lambda xb, theta: np.exp(theta[0]) * np.ones((len(xb), 2, 2))),
    ], ids=["d1-ds-flat", "d1-s-column", "d2-s-flat", "d2-ds-no-p-axis"])
    def test_misshaped_vectorized_map_is_rejected(self, d, which, bad, rng):
        # unchecked, a d = 1 ds_path of shape (n,) gives a "converged" fit with
        # an n x n gamma_hat, and an s_path of shape (n, 1) an n x n residual array
        model = const_model(d, **{which: bad})
        path = brownian_path(rng, 300, d)
        want = {"s_path": (300,) if d == 1 else (300, d, d),
                "ds_path": (300, 1) if d == 1 else (300, 1, d, d)}[which]
        said = (f"model 'const-{d}d': {which} returned shape "
                f"{np.shape(bad(np.zeros((300, 1)), [0.0]))}, expected {want}")
        calls = [lambda: estimate(path, model, RobustConfig.gqlf())]
        if which == "s_path":
            calls.append(lambda: residuals(path, model, np.zeros(1)))
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == said


def jumpdiff_path(n=400):
    return simulate(get_preset("sec6-5-jumpdiff", n=n, seed=3)).observed


def counted_features(model):
    """The model with its features map wrapped to record each call's row count."""
    calls = []

    def features(x_block):
        calls.append(len(x_block))
        return model.features(x_block)
    return replace(model, name="counted", features=features), calls


CONFIGS = [RobustConfig.gqlf(), RobustConfig.density_power(0.1), RobustConfig.hoelder(0.5)]
CONFIG_IDS = ["gqlf", "dp0.1", "holder"]


class TestFeatures:
    """A theta-free features map is computed once per fit and read by the
    vectorized maps in place of the covariate block."""

    def test_features_run_once_per_fit_and_once_per_residuals_call(self):
        path = jumpdiff_path()
        model, calls = counted_features(make_builtin("rational-diffusion"))
        for config in CONFIGS:
            calls.clear()
            res = estimate(path, model, config)
            assert res.nfev >= 5 and calls == [path.n]
            calls.clear()
            residuals(path, model, res.theta_hat)
            assert calls == [path.n]

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_features_give_the_bits_of_the_family_without_them(self, config):
        path, model = jumpdiff_path(), make_builtin("rational-diffusion")
        plain = replace(model, name="plain", features=None,
                        s_path=lambda xb, theta: model.s_path(model.features(xb), theta),
                        ds_path=lambda xb, theta: model.ds_path(model.features(xb), theta))
        for theta in (model.box.initial, np.array([0.3, 2.0])):
            (want, want_grad), (got, got_grad) = (value_and_grad(path, m, theta, config)
                                                  for m in (plain, model))
            assert got == want
            np.testing.assert_array_equal(got_grad, want_grad)
        want, got = estimate(path, plain, config), estimate(path, model, config)
        for name in ("theta_hat", "objective_value", "gamma_hat", "sigma_hat", "ci", "nfev"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_array_equal(residuals(path, model, got.theta_hat),
                                      residuals(path, plain, got.theta_hat))

    @pytest.mark.parametrize("rows", [399, 401])
    def test_features_with_the_wrong_row_count_are_rejected(self, rows):
        path = jumpdiff_path()
        model = replace(make_builtin("rational-diffusion"), name="ragged",
                        features=lambda x_block: np.ones((rows, 2)))
        theta = model.box.initial
        said = f"model 'ragged': features returned shape ({rows}, 2), expected 400 rows"
        for call in (lambda: estimate(path, model, RobustConfig.gqlf()),
                     lambda: value_and_grad(path, model, theta, RobustConfig.gqlf()),
                     lambda: residuals(path, model, theta),
                     lambda: model.s_values(covariate_block(path, model), theta)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == said

    def test_a_response_mismatch_is_named_before_the_features_run(self):
        model, calls = counted_features(make_builtin("rational-diffusion"))
        path = brownian_path(np.random.default_rng(0), 50, d=2)
        with pytest.raises(ValueError, match="path has 2 response columns"):
            estimate(path, model, RobustConfig.gqlf())
        assert calls == []
