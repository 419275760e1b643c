"""Parametric diffusion-coefficient families S(x, theta) and the parameter box.

A model supplies the squared diffusion coefficient S = sigma sigma' together
with its analytic theta-derivatives dS, the covariate convention and a
parameter box.  S and dS are vectorized maps over a whole covariate block, or
pointwise maps as a slower fallback (see ModelSpec); the vectorized maps may
read theta-free features of the block, which `estimate` computes once per fit.
S must be SPD at every point of the box: the estimator stops with
CholeskyFailure at a trial point where it is not.

Builtin families (names as they appear in scenario configs), each one shared
record that states S and dS once, vectorized:

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
from itertools import islice
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
        for name, arr in (("lower", lower), ("upper", upper)):
            if np.isnan(arr).any():
                raise ValueError(f"{name} holds NaN: {arr.tolist()}")
        if not np.isfinite(initial).all():
            raise ValueError(f"initial must be finite, got {initial.tolist()}")
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

    S is a d x d SPD matrix (a positive scalar for d = 1); dS holds the p
    matrices d S / d theta_k stacked on the first axis (p scalars for d = 1).
    A family states each once, in one of two forms:

    - s_path / ds_path, vectorized over an (n, cov_dim) covariate block, return
      the shapes of s_values / ds_values: (n,) and (n, p) for d = 1, else
      (n, d, d) and (n, p, d, d).  The builtins give only this form.
    - S / dS, pointwise maps of one covariate row, are the slower fallback:
      s_values / ds_values loop over the rows when the vectorized map is absent.

    Construction rejects a family that gives neither form of S or of dS, and a
    box whose length is not p.  s_values / ds_values reject a vectorized
    result of the wrong shape.

    features, optional and theta-free, maps the block to the (n, k) array that
    s_path / ds_path read in its place.  s_values / ds_values compute it unless
    passed ``features=`` (`estimate` does, once per fit); S / dS read rows.

    euler(y0, dw, jumps, h, substeps, theta) is the optional Euler kernel of a
    d = 1 SELF_RESPONSE model: from the float y0 it takes the m = n * substeps
    fine steps y <- y + y h + sigma(y, theta) w + jd over the (m,) Brownian
    increments dw and jump amounts jumps, with sigma**2 == S and theta a float
    tuple, and returns the (n + 1,) values at the observation times.  `simulate`
    calls it once per path; it is what a simulated self-response family needs
    beyond S and dS.
    """

    name: str
    d: int
    p: int
    cov_dim: int
    box: ParameterBox
    covariate_source: CovariateSource = CovariateSource.EXTERNAL
    s_path: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    ds_path: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    S: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dS: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    euler: Optional[Callable[..., np.ndarray]] = None
    features: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.s_path is None and self.S is None:
            raise ValueError(f"model {self.name!r} gives neither s_path nor S")
        if self.ds_path is None and self.dS is None:
            raise ValueError(f"model {self.name!r} gives neither ds_path nor dS")
        if self.box.p != self.p:
            raise ValueError(f"model {self.name!r} has p = {self.p}, "
                             f"its box has {self.box.p} entries")

    def feature_block(self, x_block: np.ndarray) -> np.ndarray:
        """features(x_block), with one row per block row, or else the block itself."""
        values = x_block if self.features is None else np.asarray(self.features(x_block), float)
        if values.shape[:1] != (len(x_block),):
            raise ValueError(f"model {self.name!r}: features returned shape "
                             f"{values.shape}, expected {len(x_block)} rows")
        return values

    def s_values(self, x_block: np.ndarray, theta: np.ndarray, *, features=None) -> np.ndarray:
        """S along a covariate block; (n,) for d=1, else (n, d, d)."""
        return self._values("s_path", "S", (), x_block, theta, features)

    def ds_values(self, x_block: np.ndarray, theta: np.ndarray, *, features=None) -> np.ndarray:
        """dS along a covariate block; (n, p) for d=1, else (n, p, d, d)."""
        return self._values("ds_path", "dS", (self.p,), x_block, theta, features)

    def _values(self, vectorized: str, pointwise: str, lead: tuple, x_block, theta,
                features) -> np.ndarray:
        """The named vectorized map on the block's features, else the pointwise one by rows."""
        shape = (len(x_block), *lead) + ((self.d, self.d) if self.d > 1 else ())
        fn = getattr(self, vectorized)
        if fn is None:
            fn = getattr(self, pointwise)
            return np.array([np.asarray(fn(x, theta), dtype=float)
                             for x in x_block]).reshape(shape)
        features = self.feature_block(x_block) if features is None else features
        values = np.asarray(fn(features, theta), dtype=float)
        if values.shape != shape:
            raise ValueError(f"model {self.name!r}: {vectorized} returned shape "
                             f"{values.shape}, expected {shape}")
        return values


# The d = 1 ds_path maps fill a (p, n) buffer and return its (n, p) transpose
# view: parameter-major, so every per-increment step on dS runs along n.
def _exp_linear_s(xb, theta):
    return np.exp(xb @ theta)


def _exp_linear_ds(xb, theta):
    return np.multiply(xb.T, np.exp(xb @ theta), out=np.empty((xb.shape[1], len(xb)))).T


# sigma is linear in theta, so its features are d sigma / d theta_1 and
# d sigma / d theta_2, as the columns of a (2, n) array's transpose.
def _rational_features(xb):
    y2 = np.square(np.asarray(xb, dtype=float).reshape(len(xb)))
    den = 1.0 + y2
    return np.vstack((1.0 / den, y2 / den)).T


def _rational_euler(y0, dw, jumps, h, substeps, theta):
    # Python floats through memoryviews: numpy scalars would cost several
    # times the arithmetic, and lists of m floats would raise peak memory.
    # sigma is written inline, in the operation order of _rational_features
    # and _rational_s, so sigma == sqrt(S) exactly on the box.  An interval
    # without a jump drops the "+ jd" term: x + 0.0 == x unless x is -0.0.
    t1, t2 = theta
    n = len(dw) // substeps
    y_obs = np.empty(n + 1)
    out = memoryview(y_obs)
    out[0] = y = y0
    steps, jv = iter(memoryview(dw)), memoryview(jumps)
    jump_rows = set((np.flatnonzero(jumps) // substeps).tolist())
    for j in range(n):
        if j in jump_rows:
            for w, jd in zip(islice(steps, substeps), jv[j * substeps:(j + 1) * substeps]):
                y2 = y * y
                den = 1.0 + y2
                y = y + y * h + (t1 * (1.0 / den) + t2 * (y2 / den)) * w + jd
        else:
            for w in islice(steps, substeps):
                y2 = y * y
                den = 1.0 + y2
                y = y + y * h + (t1 * (1.0 / den) + t2 * (y2 / den)) * w
        out[j + 1] = y
    return y_obs


def _rational_s(g, theta):
    return (theta[0] * g[:, 0] + theta[1] * g[:, 1]) ** 2


def _rational_ds(g, theta):
    two_sig = 2.0 * (theta[0] * g[:, 0] + theta[1] * g[:, 1])
    return np.multiply(g.T, two_sig, out=np.empty((2, len(g)))).T


def _const_levy_s(xb, theta):
    return np.full(len(xb), np.exp(theta[0]))


def _const_levy_ds(xb, theta):
    return np.full((len(xb), 1), np.exp(theta[0]))


# Frozen records with read-only boxes, so make_builtin hands out the same one.
_BUILTINS = {model.name: model for model in (
    ModelSpec(name="exp-linear-3", d=1, p=3, cov_dim=3,
              box=ParameterBox(lower=[-10.0] * 3, upper=[10.0] * 3, initial=[0.0] * 3),
              s_path=_exp_linear_s, ds_path=_exp_linear_ds),
    ModelSpec(name="rational-diffusion", d=1, p=2, cov_dim=1,
              box=ParameterBox(lower=[0.01, 0.01], upper=[10.0, 10.0], initial=[5.0, 5.0]),
              covariate_source=CovariateSource.SELF_RESPONSE,
              s_path=_rational_s, ds_path=_rational_ds, euler=_rational_euler,
              features=_rational_features),
    ModelSpec(name="const-levy", d=1, p=1, cov_dim=1,
              box=ParameterBox(lower=[-5.0], upper=[5.0], initial=[0.0]),
              s_path=_const_levy_s, ds_path=_const_levy_ds),
)}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def make_builtin(name: str) -> ModelSpec:
    """The builtin model called `name`; `dataclasses.replace(model, box=...)`
    gives it another parameter box."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownModel(
            f"unknown model {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
