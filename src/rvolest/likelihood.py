"""The three quasi-likelihood objectives and their theta-derivatives.

With eps_j = h^{-1/2} (Y_{t_j} - Y_{t_{j-1}}), S_j = S(x_{j-1}, theta),
dd_j = det S_j and phi the d-dimensional standard normal density, the
objectives (additive constants dropped) are

  gqlf          -1/2 sum_j [ log dd_j + eps_j' S_j^{-1} eps_j ]
  density-power  sum_j dd_j^{-lam/2} [ (1/lam) phi(S_j^{-1/2} eps_j)^lam - K_{lam,d} ]
  hoelder        sum_j (1/lam) dd_j^{-lam/(2(lam+1))} phi(S_j^{-1/2} eps_j)^lam

The tapered variants have bounded summands: a single arbitrarily large
increment moves the density-power objective by at most
dd^{-lam/2} (2 pi)^{-d lam/2} / lam, which is what defeats jumps and spikes.
phi(.)^lam is evaluated in log space; underflow for huge increments clamps
the weight to 0, which is the correct limit.

`value_and_grad` is the one entry point: it returns the configured
objective and its analytic theta-gradient together, from one evaluation of
S and dS, through one closed-form kernel for every variant and every d.  With
Q_jk = eps_j' S_j^{-1} d_k S_j S_j^{-1} eps_j, each increment adds
(a_j t_j + b_j Q_j) / 2 to the gradient, with per-variant weights a and b; for
d = 1, Q = quad t, so the gradient is ((a + b quad) @ t) / 2.  All functions
are pure; per-increment terms are reduced with np.sum or one matrix product,
so results are bit-stable for a given input.

One private producer, `_increments`, evaluates S(x_{j-1}, theta) and dS along
the path, checks or factors S = L L' and rejects a theta that is not p finite
numbers or a path that does not fit the model's dimensions.  S and dS read the
model's theta-free features of the covariate block
(`ModelSpec.feature_block`): `estimate` computes them once per fit, a
one-call API once per call.  The per-increment record holds log det S_j,
eps_j' S_j^{-1} eps_j and t_jk = tr(S_j^{-1} d_k S_j); for d = 1 also S_j,
for d >= 2 also z_j = L_j^{-1} eps_j and A_jk = L_j^{-1} d_k S_j L_j^{-T},
with t_jk = tr A_jk.  For d = 1, t = dS / S keeps the layout of dS, which the
builtins make parameter-major, so the gradient and the plug-in Gram products
run along n.  The objective, `estimator.plugin_matrices` and
`clustering.residuals` read it; residuals ask only for the whitening, without
dS.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import CholeskyFailure
from .mathcore import LOG_2PI, chol_spd, k_const
from .model import CovariateSource, ModelSpec

# Upper end of the admissible tapering range (0, LAMBDA_BAR].
LAMBDA_BAR = 2.0


@dataclass(frozen=True)
class ObservationPath:
    """Equally spaced sample (t_j, X_{t_j}, Y_{t_j}), j = 0..n, with t_j = j T / n;
    its arrays are finite, and they and eps (`scaled_increments`, computed once)
    are read-only."""

    n: int
    T: float
    times: np.ndarray
    covariates: np.ndarray | None
    responses: np.ndarray
    eps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).copy()
        responses = np.atleast_1d(np.asarray(self.responses, dtype=float)).copy()
        if responses.ndim == 1:
            responses = responses[:, None]
        if not (self.n >= 1 and np.isfinite(self.T) and self.T > 0):
            raise ValueError("need n >= 1 and finite T > 0")
        if times.shape != (self.n + 1,) or responses.shape[0] != self.n + 1:
            raise ValueError("times and responses must have length n+1")
        _check_finite("times", times)
        _check_finite("responses", responses)
        expected = np.arange(self.n + 1) * (self.T / self.n)
        if np.max(np.abs(times - expected)) > 1e-9 * max(self.T, 1.0):
            raise ValueError("times must equal j*T/n (equally spaced grid)")
        covariates = self.covariates
        if covariates is not None:
            covariates = np.atleast_1d(np.asarray(covariates, dtype=float)).copy()
            if covariates.ndim == 1:
                covariates = covariates[:, None]
            if covariates.shape[0] != self.n + 1:
                raise ValueError("covariates must have length n+1")
            _check_finite("covariates", covariates)
            covariates.setflags(write=False)
        eps = np.diff(responses, axis=0) / np.sqrt(self.T / self.n)
        for arr in (times, responses, eps):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "covariates", covariates)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "eps", eps)

    @property
    def h(self) -> float:
        return self.T / self.n

    @property
    def d(self) -> int:
        return self.responses.shape[1]


def _check_finite(name: str, arr: np.ndarray) -> None:
    """Raises ValueError naming the first row of ``arr`` that holds a NaN or an infinity."""
    bad = ~np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"{name} must be finite, but row {j} holds {arr[j].tolist()}")


def scaled_increments(path: ObservationPath) -> np.ndarray:
    """eps_j = h^{-1/2} (Y_{t_j} - Y_{t_{j-1}}) as a read-only (n, d) array."""
    return path.eps


def _number(name: str, value) -> float:
    """A number field as a float: a bool or a non-number (a JSON string, say)
    raises ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


class Variant(enum.Enum):
    GQLF = "gqlf"
    DENSITY_POWER = "dp"
    HOELDER = "holder"


@dataclass(frozen=True)
class RobustConfig:
    """Estimator variant plus tapering parameter lambda (ignored for GQLF)."""

    variant: Variant
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))  # ValueError if unknown
        object.__setattr__(self, "lam", _number("lambda", self.lam))
        if self.variant is not Variant.GQLF and not 0.0 < self.lam <= LAMBDA_BAR:
            raise ValueError(f"lambda must lie in (0, {LAMBDA_BAR}], got {self.lam}")

    @classmethod
    def gqlf(cls) -> "RobustConfig":
        return cls(Variant.GQLF)

    @classmethod
    def density_power(cls, lam: float) -> "RobustConfig":
        return cls(Variant.DENSITY_POWER, lam)

    @classmethod
    def hoelder(cls, lam: float) -> "RobustConfig":
        return cls(Variant.HOELDER, lam)

    @property
    def label(self) -> str:
        if self.variant is Variant.GQLF:
            return "gqlf"
        return f"{self.variant.value}(lambda={self.lam:g})"


def covariate_block(path: ObservationPath, model: ModelSpec) -> np.ndarray:
    """x_{j-1} for j = 1..n per the model's covariate convention; checks d, then cov_dim."""
    if path.d != model.d:
        raise ValueError(f"path has {path.d} response columns, "
                         f"model {model.name!r} has d = {model.d}")
    if model.covariate_source is CovariateSource.SELF_RESPONSE:
        return path.responses[:-1]
    if path.covariates is None:
        raise ValueError("model expects external covariates but path has none")
    if path.covariates.shape[1] != model.cov_dim:
        raise ValueError(f"model {model.name!r} reads {model.cov_dim} covariate columns, "
                         f"path has {path.covariates.shape[1]}")
    return path.covariates[:-1]


class _Increments(NamedTuple):
    """Per-increment statistics at one theta; ``whiten_only`` sets eps, s, z only."""

    eps: np.ndarray                     # (n,) for d = 1, else (n, d)
    s: np.ndarray | None = None         # d = 1: (n,) S_j
    z: np.ndarray | None = None         # d >= 2: (n, d) L_j^{-1} eps_j
    log_det: np.ndarray | None = None   # (n,) log det S_j
    quad: np.ndarray | None = None      # (n,) eps_j' S_j^{-1} eps_j
    t: np.ndarray | None = None         # (n, p) tr(S_j^{-1} d_k S_j)
    a: np.ndarray | None = None         # d >= 2: (n, p, d, d) A_jk


def _increments(path, model, theta, whiten_only: bool = False, features=None) -> _Increments:
    """The one evaluation of S and, unless ``whiten_only``, dS along the path,
    from the model's ``features`` of the path (computed here when absent).

    Raises ValueError unless theta is p finite numbers and the path fits the
    model's dimensions, and CholeskyFailure with the 1-based index of the first
    S_j that is not SPD (for d = 1: not finite and positive), before dS is
    evaluated.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.p,) or not np.isfinite(theta).all():
        raise ValueError(f"theta must be p = {model.p} finite numbers, got {theta.tolist()}")
    x_block = covariate_block(path, model)
    features = model.feature_block(x_block) if features is None else features
    eps = scaled_increments(path)
    if model.d == 1:
        eps = eps[:, 0]
        s = model.s_values(x_block, theta, features=features)
        if not (s.min() > 0.0 and s.max() < np.inf):  # also false on NaN
            raise CholeskyFailure(index=int(np.argmax(~(np.isfinite(s) & (s > 0.0)))) + 1)
        if whiten_only:
            return _Increments(eps, s=s)
        t = model.ds_values(x_block, theta, features=features) / s[:, None]
        return _Increments(eps, s=s, log_det=np.log(s), quad=eps * eps / s, t=t)
    lower = chol_spd(model.s_values(x_block, theta, features=features))
    z = np.linalg.solve(lower, eps[:, :, None])[:, :, 0]
    if whiten_only:
        return _Increments(eps, z=z)
    log_det = 2.0 * np.log(np.diagonal(lower, axis1=1, axis2=2)).sum(axis=1)
    ds = model.ds_values(x_block, theta, features=features)
    half = np.linalg.solve(lower[:, None], ds)
    a = np.linalg.solve(lower[:, None], np.swapaxes(half, -1, -2))
    return _Increments(eps, z=z, log_det=log_det, quad=np.einsum("ja,ja->j", z, z),
                       t=np.trace(a, axis1=2, axis2=3), a=a)


def _objective(inc: _Increments, d: int, config: RobustConfig):
    """Closed-form (value, grad) for every d, with Q_jk = z_j' A_jk z_j for d >= 2.

    The variant sets weights g, b (None: 1) and constants r, c (c only with g).
    The gradient is ((g (c - r b)) @ t + (g b) @ Q) / 2, which for d = 1 is
    (g ((quad - r) b + c)) @ t / 2.  Scratch arrays are written in place, in the
    operation order of the comments; the record is only read.
    """
    q, log_det, t, lam = inc.quad, inc.log_det, inc.t, config.lam
    g = b = None
    r = 1.0
    if config.variant is Variant.GQLF:  # value = -sum(log_det + q) / 2
        buf = np.add(log_det, q)
        value = -0.5 * float(np.sum(buf))
    else:
        w = np.add(q, d * LOG_2PI)  # w = exp(-lam/2 (d LOG_2PI + q)) = phi(S^{-1/2} eps)^lam
        np.exp(np.multiply(w, -0.5 * lam, out=w), out=w)
        if config.variant is Variant.DENSITY_POWER:
            kconst = k_const(lam, d)
            g = np.multiply(log_det, -0.5 * lam)  # g = exp(-lam/2 log_det)
            np.exp(g, out=g)
            buf = np.divide(w, lam)  # value = sum(g (w / lam - kconst))
            buf -= kconst
            value = float(np.sum(np.multiply(buf, g, out=buf)))
            b, c = w, lam * kconst
        else:  # Hoelder-based: value = sum(b) / lam, b = exp(-lam/(2(lam+1)) log_det) w
            b = np.multiply(log_det, -0.5 * lam / (lam + 1.0))
            np.multiply(np.exp(b, out=b), w, out=b)
            value = float(np.sum(b)) / lam
            buf, r = w, 1.0 / (lam + 1.0)
    # the coefficient of t: g ((quad - r) b + c) for d = 1, g (c - r b) for d >= 2
    coef = np.subtract(q if d == 1 else 0.0, r, out=buf)
    if b is not None:
        coef *= b
    if g is not None:
        coef += c
        coef *= g
    grad = coef @ t
    if d > 1:
        q_form = np.einsum("ja,jkab,jb->jk", inc.z, inc.a, inc.z)
        weight = b if g is None else g * b
        grad += q_form.sum(axis=0) if weight is None else weight @ q_form
    return value, 0.5 * grad


def value_and_grad(path, model, theta, config, *, keep: list | None = None, features=None
                   ) -> tuple[float, np.ndarray]:
    """Objective and its analytic gradient in one pass (shared S/dS evaluation).

    The one public objective function: the estimator maximizes it, and every
    variant and dimension goes through it.  A ``keep`` list is set to
    ``[theta bytes, record]``: a copy of theta taken now and the
    per-increment record, which `estimator.plugin_matrices` reads at the same
    theta instead of evaluating S and dS again.  `estimate` passes the
    model's ``features`` of the path, computed once per fit.
    """
    inc = _increments(path, model, theta, features=features)
    if keep is not None:
        keep[:] = [np.asarray(theta, dtype=float).tobytes(), inc]
    return _objective(inc, model.d, config)
