"""Parametric diffusion-coefficient families S(x, theta) and the parameter box.

A model supplies the squared diffusion coefficient S = sigma sigma' together
with its analytic theta-derivatives dS, the covariate convention and a
parameter box; optional vectorized maps evaluate S and dS along a whole
covariate block.  S must be SPD at every point of the box: the estimator
stops with CholeskyFailure at a trial point where it is not.

Builtin families (names as they appear in scenario configs):

  "exp-linear-3"       S(x, theta) = exp(theta_1 x_1 + theta_2 x_2 + theta_3 x_3),
                       external deterministic covariate, d = 1, p = 3.
  "rational-diffusion" sigma(y, theta) = (theta_1 + theta_2 y^2) / (1 + y^2),
                       S = sigma^2, covariate = lagged response, d = 1, p = 2,
                       box [0.01, 10]^2.  sigma is a convex combination of
                       theta_1 and theta_2, so S >= 1e-4 for every y: the
                       box keeps S uniformly positive, as the M-estimator
                       theory assumes (a lower bound of 0 would allow S = 0).
  "const-levy"         S(theta) = exp(theta_1), constant in x, d = 1, p = 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import UnknownModel


class CovariateSource(enum.Enum):
    """Where x_{j-1} comes from.  The estimator reads it from here, and
    `simulate` takes its design from it: EXTERNAL gets the deterministic trig
    covariate and zero drift, SELF_RESPONSE the lagged response (Euler loop)."""

    EXTERNAL = "external"
    SELF_RESPONSE = "self-response"


@dataclass(frozen=True)
class ParameterBox:
    """Componentwise bounds and default start for the optimizer."""

    lower: np.ndarray
    upper: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        initial = np.atleast_1d(np.asarray(self.initial, dtype=float)).copy()
        if not (lower.shape == upper.shape == initial.shape):
            raise ValueError("lower/upper/initial must have equal lengths")
        if not np.all(lower < upper):
            raise ValueError("need lower < upper componentwise")
        if np.any(initial < lower) or np.any(initial > upper):
            raise ValueError("initial point outside the closed box")
        for arr in (lower, upper, initial):
            arr.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "initial", initial)

    @property
    def p(self) -> int:
        return self.lower.shape[0]

    def clamp(self, theta: np.ndarray) -> np.ndarray:
        """Componentwise projection of theta onto [lower, upper]."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != self.lower.shape:
            raise ValueError(f"theta has length {theta.shape[0]}, box has {self.p}")
        return np.clip(theta, self.lower, self.upper)


@dataclass(frozen=True)
class ModelSpec:
    """A parametric family S(x, theta) with analytic derivatives.

    S maps (x, theta) to a d x d SPD matrix (a positive scalar for d = 1);
    dS returns the p matrices d S / d theta_k stacked on the first axis (p
    scalars for d = 1).  Both are required.  s_path / ds_path are optional
    vectorized evaluators over a whole (n, cov_dim) block of covariates,
    returning the shapes of s_values / ds_values; when absent they are
    synthesized from the pointwise maps.

    sigma(y, theta) is the optional diffusion coefficient of a d = 1
    SELF_RESPONSE model, with sigma**2 == S.  `simulate`'s Euler loop calls it
    once per fine step with a float y and a float tuple theta, and stores only
    the observed values; it is the one map a simulated self-response family
    needs beyond S and dS.
    """

    name: str
    d: int
    p: int
    cov_dim: int
    S: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dS: Callable[[np.ndarray, np.ndarray], np.ndarray]
    box: ParameterBox
    covariate_source: CovariateSource = CovariateSource.EXTERNAL
    s_path: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    ds_path: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    sigma: Optional[Callable[[float, tuple], float]] = None

    def s_values(self, x_block: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """S along a covariate block; (n,) for d=1, else (n, d, d)."""
        if self.s_path is not None:
            return self.s_path(x_block, theta)
        out = np.array([np.asarray(self.S(x, theta), dtype=float) for x in x_block])
        if self.d == 1:
            return out.reshape(len(x_block))
        return out.reshape(len(x_block), self.d, self.d)

    def ds_values(self, x_block: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """dS along a covariate block; (n, p) for d=1, else (n, p, d, d)."""
        if self.ds_path is not None:
            return self.ds_path(x_block, theta)
        out = np.array([np.asarray(self.dS(x, theta), dtype=float) for x in x_block])
        if self.d == 1:
            return out.reshape(len(x_block), self.p)
        return out.reshape(len(x_block), self.p, self.d, self.d)


def _exp_linear_3(box: ParameterBox | None) -> ModelSpec:
    if box is None:
        box = ParameterBox(lower=[-10.0] * 3, upper=[10.0] * 3, initial=[0.0] * 3)

    def S(x, theta):
        return float(np.exp(np.dot(x, theta)))

    def dS(x, theta):
        s = np.exp(np.dot(x, theta))
        return np.asarray(x, dtype=float) * s

    def s_path(xb, theta):
        return np.exp(xb @ theta)

    def ds_path(xb, theta):
        return xb * np.exp(xb @ theta)[:, None]

    return ModelSpec(
        name="exp-linear-3", d=1, p=3, cov_dim=3, S=S, dS=dS,
        box=box, covariate_source=CovariateSource.EXTERNAL,
        s_path=s_path, ds_path=ds_path,
    )


def _rational_diffusion(box: ParameterBox | None) -> ModelSpec:
    if box is None:
        box = ParameterBox(lower=[0.01, 0.01], upper=[10.0, 10.0], initial=[5.0, 5.0])

    # sigma is linear in theta, so d sigma / d theta is theta-free.
    def _sig_parts(y):
        y2 = np.square(y)
        den = 1.0 + y2
        return 1.0 / den, y2 / den  # d sigma / d theta_1, d sigma / d theta_2

    def sigma(y, theta):
        # The Euler loop calls this once per fine step with a float y: plain
        # float arithmetic, in the operation order of s_path.
        y2 = y * y
        den = 1.0 + y2
        return theta[0] * (1.0 / den) + theta[1] * (y2 / den)

    def S(x, theta):
        return sigma(float(x[0]), theta) ** 2

    def dS(x, theta):
        y = float(np.atleast_1d(x)[0])
        g1, g2 = _sig_parts(y)
        sig = theta[0] * g1 + theta[1] * g2
        return np.array([2.0 * sig * g1, 2.0 * sig * g2])

    def s_path(xb, theta):
        y = np.asarray(xb, dtype=float).reshape(len(xb))
        g1, g2 = _sig_parts(y)
        return (theta[0] * g1 + theta[1] * g2) ** 2

    def ds_path(xb, theta):
        y = np.asarray(xb, dtype=float).reshape(len(xb))
        g1, g2 = _sig_parts(y)
        sig = theta[0] * g1 + theta[1] * g2
        return np.stack([2.0 * sig * g1, 2.0 * sig * g2], axis=1)

    return ModelSpec(
        name="rational-diffusion", d=1, p=2, cov_dim=1, S=S, dS=dS,
        box=box, covariate_source=CovariateSource.SELF_RESPONSE,
        s_path=s_path, ds_path=ds_path, sigma=sigma,
    )


def _const_levy(box: ParameterBox | None) -> ModelSpec:
    if box is None:
        box = ParameterBox(lower=[-5.0], upper=[5.0], initial=[0.0])

    def S(x, theta):
        return float(np.exp(theta[0]))

    def dS(x, theta):
        return np.array([np.exp(theta[0])])

    def s_path(xb, theta):
        return np.full(len(xb), np.exp(theta[0]))

    def ds_path(xb, theta):
        return np.full((len(xb), 1), np.exp(theta[0]))

    return ModelSpec(
        name="const-levy", d=1, p=1, cov_dim=1, S=S, dS=dS,
        box=box, covariate_source=CovariateSource.EXTERNAL,
        s_path=s_path, ds_path=ds_path,
    )


_BUILTINS = {
    "exp-linear-3": _exp_linear_3,
    "rational-diffusion": _rational_diffusion,
    "const-levy": _const_levy,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def make_builtin(name: str, box: ParameterBox | None = None) -> ModelSpec:
    """Construct a builtin model, optionally overriding its parameter box."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownModel(
            f"unknown model {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return factory(box)
