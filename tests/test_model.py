import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvolest import (
    BUILTIN_NAMES,
    ParameterBox,
    UnknownModel,
    make_builtin,
)
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


class TestBuiltins:
    def test_exp_linear_point_values(self):
        m = make_builtin("exp-linear-3")
        x = np.array([1.0, 0.0, 0.0])
        assert m.S(x, np.array([-2.0, 3.0, 0.0])) == pytest.approx(np.exp(-2.0), rel=1e-12)
        assert m.S(x, np.array([-2.0, 3.0, 0.0])) == pytest.approx(0.135335, abs=1e-6)
        # derivative of exp at theta = 0 equals x_1 * S = 1
        assert m.dS(x, np.zeros(3))[0] == pytest.approx(1.0, rel=1e-12)
        assert m.covariate_source is CovariateSource.EXTERNAL

    def test_rational_point_values(self):
        m = make_builtin("rational-diffusion")
        assert m.S(np.array([0.0]), np.array([2.0, 3.0])) == pytest.approx(4.0, rel=1e-12)
        # far out in y, sigma -> theta_2
        assert m.S(np.array([100.0]), np.array([2.0, 3.0])) == pytest.approx(9.0, rel=1e-3)
        assert m.covariate_source is CovariateSource.SELF_RESPONSE

    def test_const_levy(self):
        m = make_builtin("const-levy")
        for x in (np.array([0.0]), np.array([42.0])):
            assert m.S(x, np.array([0.7])) == pytest.approx(np.exp(0.7), rel=1e-12)

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
            analytic = np.asarray(m.dS(x, theta), dtype=float).reshape(m.p)
            numeric = fd_grad(lambda th: float(np.asarray(m.S(x, th))), theta)
            scale = max(1.0, np.abs(analytic).max())
            worst = max(worst, np.abs(analytic - numeric).max() / scale)
        assert worst < 1e-5

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_batch_matches_pointwise(self, name, rng):
        m = make_builtin(name)
        xs = np.array([random_args(rng, m)[0] for _ in range(30)])
        theta = random_args(rng, m)[1]
        batch_s = m.s_values(xs, theta)
        batch_ds = m.ds_values(xs, theta)
        for j in range(30):
            assert batch_s[j] == pytest.approx(float(np.asarray(m.S(xs[j], theta))), rel=1e-14)
            np.testing.assert_allclose(
                batch_ds[j], np.asarray(m.dS(xs[j], theta)).reshape(m.p), rtol=1e-14
            )

    def test_exp_linear_positive(self, rng):
        m = make_builtin("exp-linear-3")
        for _ in range(200):
            x, theta = random_args(rng, m)
            assert m.S(x, theta) > 0.0

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
            assert all(m.S(x, theta) > 0.0 for x in xs), corner

    @given(theta1=st.floats(0.01, 10.0), theta2=st.floats(0.01, 10.0),
           y=st.floats(-1e6, 1e6))
    @settings(max_examples=500, deadline=None)
    def test_rational_sigma_is_exact_sqrt_of_s(self, theta1, theta2, y):
        # the Euler loop steps with sigma where it took sqrt(S): on the box,
        # sqrt(RN(s * s)) == s in binary64, so the paths keep their bits
        m = make_builtin("rational-diffusion")
        theta = (theta1, theta2)
        assert math.sqrt(m.S(np.array([y]), theta)) == m.sigma(y, theta)

    def test_rational_sigma_between_thetas(self):
        m = make_builtin("rational-diffusion")
        theta = np.array([2.0, 5.0])
        for y in np.linspace(-10, 10, 101):
            sigma = np.sqrt(m.S(np.array([y]), theta))
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

    def test_dimension_mismatch_in_clamp(self):
        box = ParameterBox(lower=[0.0], upper=[1.0], initial=[0.5])
        with pytest.raises(ValueError):
            box.clamp(np.array([0.1, 0.2]))

    def test_custom_box_threading(self):
        box = ParameterBox(lower=[-1.0] * 3, upper=[1.0] * 3, initial=[0.1] * 3)
        m = make_builtin("exp-linear-3", box)
        assert m.box is box
