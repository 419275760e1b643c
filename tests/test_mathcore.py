import numpy as np
import pytest
from oracles import (
    gauss_biquadratic_moment,
    gauss_quadratic_moment,
    phi_power_integral,
    quad_biquadratic_moment,
    quad_phi_power,
    quad_quadratic_moment,
    random_spd,
    random_symmetric,
)

from rvolest import CholeskyFailure, eps_dprime, eps_prime, k_const
from rvolest.mathcore import chol_spd


class TestKConst:
    def test_zero_lambda_is_one(self):
        for d in (1, 2, 3, 5):
            assert k_const(0.0, d) == pytest.approx(1.0, abs=0)

    def test_matches_phi_square_quadrature(self):
        # (lam+1) K_{lam,1} = integral phi^{lam+1}
        assert 2.0 * k_const(1.0, 1) == pytest.approx(quad_phi_power(2.0, 1), abs=1e-12)
        assert k_const(1.0, 1) == pytest.approx(0.1410474, abs=5e-8)

    def test_half_lambda(self):
        assert 1.5 * k_const(0.5, 1) == pytest.approx(quad_phi_power(1.5, 1), abs=1e-12)
        assert k_const(0.5, 1) == pytest.approx(0.3438, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            k_const(-0.1, 1)
        with pytest.raises(ValueError):
            k_const(0.5, 0)


class TestPhiPowerIntegral:
    def test_normalization(self, rng):
        for d in (1, 2, 3):
            cov = random_spd(rng, d)
            assert phi_power_integral(1.0, cov) == pytest.approx(1.0, rel=1e-12)

    def test_scalar_fast_path_matches_matrix(self):
        for s in (0.3, 1.0, 4.7):
            for a in (0.5, 1.5, 2.0):
                assert phi_power_integral(a, s) == pytest.approx(
                    phi_power_integral(a, np.array([[s]])), rel=1e-14
                )

    def test_squared_density_d1(self):
        assert phi_power_integral(2.0, 1.0) == pytest.approx(
            quad_phi_power(2.0, 1), abs=1e-12
        )
        assert phi_power_integral(2.0, 1.0) == pytest.approx(0.2820948, abs=5e-8)

    def test_squared_density_d2(self):
        got = phi_power_integral(2.0, np.eye(2))
        assert got == pytest.approx(quad_phi_power(2.0, 1) ** 2, abs=1e-12)
        assert got == pytest.approx(0.0795775, abs=5e-8)

    def test_rotation_invariance(self, rng):
        for d in (2, 3):
            cov = random_spd(rng, d)
            base = phi_power_integral(1.7, cov)
            for _ in range(10):
                q, _ = np.linalg.qr(rng.normal(size=(d, d)))
                rotated = q @ cov @ q.T
                rotated = 0.5 * (rotated + rotated.T)
                assert phi_power_integral(1.7, rotated) == pytest.approx(base, rel=1e-12)

    def test_not_spd_raises(self):
        with pytest.raises(CholeskyFailure):
            phi_power_integral(2.0, np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestGaussMoments:
    def test_standard_second_moment(self):
        for d in (1, 2, 4):
            assert gauss_quadratic_moment(0.0, np.eye(d)) == pytest.approx(d, rel=1e-12)

    def test_d1_quadrature(self):
        got = gauss_quadratic_moment(1.0, np.array([[1.0]]))
        assert got == pytest.approx(quad_quadratic_moment(1.0, 1.0), abs=1e-12)
        assert got == pytest.approx(0.1410474, abs=5e-8)

    def test_d2_diag(self):
        a = np.diag([2.0, 3.0])
        got = gauss_quadratic_moment(0.5, a)
        assert got == pytest.approx(5.0 * k_const(0.5, 2), rel=1e-12)
        assert got == pytest.approx(quad_quadratic_moment(0.5, a), abs=1e-10)

    def test_random_vs_quadrature(self, rng):
        # 20 random symmetric A across d in {1, 2}, lambda in (0, 2]
        for i in range(20):
            d = 1 + (i % 2)
            lam = float(rng.uniform(0.05, 2.0))
            a = random_symmetric(rng, d)
            assert gauss_quadratic_moment(lam, a) == pytest.approx(
                quad_quadratic_moment(lam, a), abs=1e-8
            )

    def test_fourth_moment(self):
        assert gauss_biquadratic_moment(0.0, [[1.0]], [[1.0]]) == pytest.approx(3.0, rel=1e-12)

    def test_biquadratic_d1(self):
        got = gauss_biquadratic_moment(1.0, [[1.0]], [[1.0]])
        assert got == pytest.approx(k_const(1.0, 1) / 2.0 * 3.0, rel=1e-12)
        assert got == pytest.approx(0.2115711, abs=5e-8)
        assert got == pytest.approx(quad_biquadratic_moment(1.0, 1.0, 1.0), abs=1e-12)

    def test_biquadratic_identity_d2(self):
        assert gauss_biquadratic_moment(0.0, np.eye(2), np.eye(2)) == pytest.approx(
            8.0, rel=1e-12
        )

    def test_biquadratic_random_vs_quadrature(self, rng):
        for i in range(10):
            d = 1 + (i % 2)
            lam = float(rng.uniform(0.05, 2.0))
            a1 = random_symmetric(rng, d)
            a2 = random_symmetric(rng, d)
            assert gauss_biquadratic_moment(lam, a1, a2) == pytest.approx(
                quad_biquadratic_moment(lam, a1, a2), abs=1e-8
            )


class TestEpsCoefficients:
    def test_vanish_at_zero(self):
        for d in (1, 2, 3):
            assert abs(eps_prime(1e-8, d)) < 1e-6
            assert abs(eps_dprime(1e-8, d)) < 1e-6
            assert abs(eps_prime(1e-6, d)) < 1e-4
            assert abs(eps_dprime(1e-6, d)) < 1e-4

    def test_closed_form_values(self):
        # frozen from mpmath evaluation of the closed forms (50 digits)
        assert eps_prime(1.0, 1) == pytest.approx(0.020944809552164343, rel=1e-12)
        assert eps_dprime(1.0, 1) == pytest.approx(0.0006381121474789258, rel=1e-12)

    def test_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50

        def K(lam, d):
            return (2 * mp.pi) ** (-d * lam / 2) / (lam + 1) ** (1 + mp.mpf(d) / 2)

        for lam in (0.25, 1.0, 1.75):
            for d in (1, 2):
                lam_mp = mp.mpf(lam)
                expect_p = (
                    (1 / (2 * lam_mp + 1) + 2 * lam_mp - 1) * K(2 * lam_mp, d)
                    - lam_mp**2 * K(lam_mp, d) ** 2
                )
                expect_pp = (
                    mp.mpf(1) / 4 * (1 / (2 * lam_mp + 1) - 1 / (lam_mp + 1) ** 2)
                    * K(2 * lam_mp, d)
                )
                assert eps_prime(lam, d) == pytest.approx(float(expect_p), rel=1e-13)
                assert eps_dprime(lam, d) == pytest.approx(float(expect_pp), rel=1e-13)

    def test_score_variance_oracle(self):
        # eps' and eps'' are exactly the t(x)t excess in the per-increment
        # score variance of the constant unit model; check by Monte Carlo.
        rng = np.random.default_rng(7)
        z = rng.standard_normal(2_000_000)
        phi = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        for lam in (0.5, 1.0):
            k1, k2 = k_const(lam, 1), k_const(2 * lam, 1)
            dp_score = 0.5 * (phi**lam * (z * z - 1.0) + lam * k1)
            want_dp = k2 / (2 * lam + 1) * 0.5 + eps_prime(lam, 1) / 4.0
            assert dp_score.var() == pytest.approx(want_dp, abs=3e-4)
            ho_score = 0.5 * phi**lam * (z * z - 1.0 / (lam + 1.0))
            want_ho = k2 / (2 * lam + 1) * 0.5 + eps_dprime(lam, 1)
            assert ho_score.var() == pytest.approx(want_ho, abs=3e-4)

    def test_continuous_on_grid(self):
        grid = np.linspace(1e-4, 2.0, 400)
        for d in (1, 2):
            vals_p = np.array([eps_prime(l, d) for l in grid])
            vals_pp = np.array([eps_dprime(l, d) for l in grid])
            assert np.max(np.abs(np.diff(vals_p))) < 0.02
            assert np.max(np.abs(np.diff(vals_pp))) < 0.02

    def test_domain(self):
        with pytest.raises(ValueError):
            eps_prime(0.0, 1)
        with pytest.raises(ValueError):
            eps_dprime(-1.0, 1)


class TestPhiPowerConsistency:
    def test_k_const_vs_phi_power(self):
        # (lam+1) k_const(lam, d) = phi_power_integral(lam+1, I_d)
        for lam in np.arange(0.1, 2.01, 0.1):
            for d in (1, 2, 3):
                lhs = (lam + 1.0) * k_const(lam, d)
                rhs = phi_power_integral(lam + 1.0, np.eye(d))
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSpdMatrix:
    def test_pivot_tolerance(self):
        # smallest pivot must exceed 1e-12 * largest diagonal
        with pytest.raises(CholeskyFailure):
            chol_spd(np.diag([1.0, 1e-14]))
        chol_spd(np.diag([1.0, 1e-10]))  # fine

    def test_failure_carries_index(self):
        with pytest.raises(CholeskyFailure) as err:
            chol_spd(np.diag([1.0, -1.0]), index=17)
        assert err.value.index == 17

    def test_stack_matches_numpy(self, rng):
        stack = np.stack([random_spd(rng, 3) for _ in range(20)])
        np.testing.assert_array_equal(chol_spd(stack), np.linalg.cholesky(stack))

    @pytest.mark.parametrize(
        "bad",
        [np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 1.0, 1e-14]), np.full((3, 3), np.nan)],
        ids=["indefinite", "singular", "non-finite"],
    )
    def test_stack_failure_index_is_position(self, bad, rng):
        for k in (1, 2, 7, 13, 20):
            stack = np.stack([random_spd(rng, 3) for _ in range(20)])
            stack[k - 1] = bad
            with pytest.raises(CholeskyFailure) as err:
                chol_spd(stack)
            assert err.value.index == k

    def test_stack_reports_first_failure_of_any_kind(self, rng):
        stack = np.stack([random_spd(rng, 2) for _ in range(10)])
        stack[8, 0, 0] = np.inf
        stack[6] = -np.eye(2)
        stack[4] = np.diag([1.0, 1e-14])
        for k in (5, 7, 9):
            with pytest.raises(CholeskyFailure) as err:
                chol_spd(stack)
            assert err.value.index == k
            stack[k - 1] = np.eye(2)
        chol_spd(stack)
