"""Closed-form Gaussian constants, density-power coefficients, and the batched SPD kernel.

Everything here is a pure function of its arguments.  The constant
K_{lam,d} = k_const(lam, d) carries the moment identities behind the robust
objectives and their asymptotic covariance matrices: with ``phi`` the
d-dimensional standard normal density,

    integral phi(z)^(lam+1) dz                    = (lam+1) * k_const(lam, d)
    integral phi(z)^(lam+1) A[z (x) z] dz         = k_const(lam, d) * tr(A)
    integral phi(z)^(lam+1) A1[z(x)z] A2[z(x)z] dz
        = k_const(lam, d)/(lam+1) * (tr(A1) tr(A2) + 2 tr(A1 A2))

The library uses only k_const (and eps_prime/eps_dprime built on it); the
three identities are implemented in tests/oracles.py, where they are checked
against numerical quadrature.
"""

from __future__ import annotations

import numpy as np

from .exceptions import CholeskyFailure

LOG_2PI = float(np.log(2.0 * np.pi))

# Relative pivot tolerance for accepting a Cholesky factorization: the
# smallest pivot must exceed 1e-12 times the largest diagonal entry.
_PIVOT_RTOL = 1e-12


def chol_spd(stack: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of each matrix in an (n, d, d) stack.

    Raises CholeskyFailure when a matrix has non-finite entries, the
    factorization breaks down, or its smallest pivot is below the relative
    tolerance (near-singular S for extreme theta); the failure's ``index`` is
    the 1-based position of the first failing matrix in the stack.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected an (n, d, d) stack, got shape {stack.shape}")
    # m ends the prefix that passes every check; the first failure of any kind wins
    finite = np.isfinite(stack).all(axis=(1, 2))
    m = len(stack) if finite.all() else int(np.argmin(finite))
    message = "matrix has non-finite entries"
    try:
        lower = np.linalg.cholesky(stack[:m])
    except np.linalg.LinAlgError:
        m, message = _first_unfactorable(stack[:m]), "matrix not SPD"
        lower = np.linalg.cholesky(stack[:m])
    pivots = np.diagonal(lower, axis1=1, axis2=2) ** 2
    scale = np.diagonal(stack[:m], axis1=1, axis2=2).max(axis=1, initial=0.0)
    singular = pivots.min(axis=1) <= _PIVOT_RTOL * scale
    if singular.any():
        m, message = int(np.argmax(singular)), "matrix numerically singular"
    if m < len(stack):
        raise CholeskyFailure(message, index=m + 1)
    return lower


def _first_unfactorable(stack: np.ndarray) -> int:
    """0-based position of the first matrix np.linalg.cholesky rejects, by bisection."""
    good, bad = 0, len(stack)  # stack[:good] factors, stack[good:bad] holds a failure
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(stack[good:mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return good


def k_const(lam: float, d: int) -> float:
    """The normal-power normalization (2 pi)^(-d lam/2) / (lam+1)^(1+d/2).

    Defined for lam >= 0, d >= 1; equals 1 at lam = 0.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    # exp/log form keeps full precision for the very small lam used in
    # taper-limit checks.
    return float(np.exp(-0.5 * d * lam * LOG_2PI - (1.0 + 0.5 * d) * np.log1p(lam)))


def eps_prime(lam: float, d: int) -> float:
    """Taper excess-variance coefficient of the density-power score.

    eps'(lam) = (1/(2 lam + 1) + 2 lam - 1) K_{2 lam, d} - lam^2 K_{lam, d}^2,
    the t(x)t coefficient in the score variance beyond the Fisher part.
    Vanishes as lam -> 0.
    """
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    k2 = k_const(2.0 * lam, d)
    k1 = k_const(lam, d)
    return (1.0 / (2.0 * lam + 1.0) + 2.0 * lam - 1.0) * k2 - lam**2 * k1**2


def eps_dprime(lam: float, d: int) -> float:
    """Taper excess-variance coefficient of the Hoelder-normalized score.

    eps''(lam) = (1/4) (1/(2 lam + 1) - 1/(lam + 1)^2) K_{2 lam, d}.
    Vanishes as lam -> 0.
    """
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    k2 = k_const(2.0 * lam, d)
    return 0.25 * (1.0 / (2.0 * lam + 1.0) - 1.0 / (lam + 1.0) ** 2) * k2
