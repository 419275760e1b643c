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
S and dS.  All functions are pure; per-increment terms are reduced with
np.sum (fixed pairwise topology), so results are bit-stable for a given input.

One private producer, `_increments`, evaluates S(x_{j-1}, theta) and dS
along the path, checks or factors S = L L' and rejects a path that does not
fit the model's dimensions.  S and dS read the model's theta-free features of
the covariate block (`ModelSpec.feature_block`): `estimate` computes them once
per fit, a one-call API once per call.  The per-increment record holds
log det S_j, eps_j' S_j^{-1} eps_j and t_jk = tr(S_j^{-1} d_k S_j); for d = 1
also S_j, for d >= 2 also z_j = L_j^{-1} eps_j and A_jk = L_j^{-1} d_k S_j
L_j^{-T}, with t_jk = tr A_jk.  For d = 1, t = dS / S keeps the layout of dS,
which the builtins make parameter-major, so the gradient and the plug-in Gram
products run along n.  The objective, `estimator.plugin_matrices` and
`clustering.residuals` read it; residuals ask only for the whitening, without dS.
"""

from __future__ import annotations

import enum
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
    its arrays, and eps (`scaled_increments`, computed once), are read-only."""

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


def scaled_increments(path: ObservationPath) -> np.ndarray:
    """eps_j = h^{-1/2} (Y_{t_j} - Y_{t_{j-1}}) as a read-only (n, d) array."""
    return path.eps


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
        if self.variant is not Variant.GQLF:
            if not (0.0 < self.lam <= LAMBDA_BAR):
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

    Raises ValueError when the path does not fit the model's dimensions, and
    CholeskyFailure with the 1-based index of the first S_j that is not SPD
    (for d = 1: not finite and positive), before dS is evaluated.
    """
    theta = np.asarray(theta, dtype=float)
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


def _objective_d1(inc: _Increments, config: RobustConfig):
    """Closed-form d = 1 (value, grad).  Scratch arrays are written in place, in the
    operation order of the expressions in the comments; the record is only read."""
    q, log_s, t = inc.quad, inc.log_det, inc.t
    if config.variant is Variant.GQLF:  # -sum(log_s + q) / 2, -((1 - q) @ t) / 2
        buf = np.add(log_s, q)
        return -0.5 * float(np.sum(buf)), -0.5 * (np.subtract(1.0, q, out=buf) @ t)
    lam = config.lam
    w = np.add(q, LOG_2PI)  # w = exp(-lam/2 (LOG_2PI + q)) = phi(S^{-1/2} eps)^lam
    np.exp(np.multiply(w, -0.5 * lam, out=w), out=w)
    if config.variant is Variant.DENSITY_POWER:
        kconst = k_const(lam, 1)
        taper = np.multiply(log_s, -0.5 * lam)  # taper = exp(-lam/2 log_s)
        np.exp(taper, out=taper)
        buf = np.divide(w, lam)  # value = sum(taper (w / lam - kconst))
        buf -= kconst
        value = float(np.sum(np.multiply(buf, taper, out=buf)))
        np.subtract(q, 1.0, out=buf)  # grad = (taper (w (q - 1) + lam kconst)) @ t / 2
        buf *= w
        buf += lam * kconst
        return value, 0.5 * (np.multiply(buf, taper, out=buf) @ t)

    # Hoelder-based: value = sum(taper w) / lam, grad = (taper w (q - 1/(lam+1))) @ t / 2
    taper = np.multiply(log_s, -0.5 * lam / (lam + 1.0))  # taper = exp(-lam/(2(lam+1)) log_s)
    np.multiply(np.exp(taper, out=taper), w, out=taper)
    np.subtract(q, 1.0 / (lam + 1.0), out=w)
    return float(np.sum(taper)) / lam, 0.5 * (np.multiply(w, taper, out=w) @ t)


def _objective_matrix(inc: _Increments, d: int, config: RobustConfig):
    """Batched d >= 2 (value, grad), with eps' S^{-1} d_k S S^{-1} eps = z' A_k z."""
    log_det, quad, t = inc.log_det, inc.quad, inc.t
    q = np.einsum("ja,jkab,jb->jk", inc.z, inc.a, inc.z)

    lam = config.lam
    if config.variant is Variant.GQLF:
        values = -0.5 * (log_det + quad)
        grads = -0.5 * (t - q)
    else:
        w = np.exp(-0.5 * lam * (d * LOG_2PI + quad))
        if config.variant is Variant.DENSITY_POWER:
            kconst = k_const(lam, d)
            taper = np.exp(-0.5 * lam * log_det)
            values = taper * (w / lam - kconst)
            grads = 0.5 * taper[:, None] * (w[:, None] * (q - t) + lam * kconst * t)
        else:
            taper = np.exp(-0.5 * lam / (lam + 1.0) * log_det)
            values = taper * w / lam
            grads = 0.5 * (taper * w)[:, None] * (q - t / (lam + 1.0))
    return float(np.sum(values)), np.sum(grads, axis=0)


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
    if model.d == 1:
        return _objective_d1(inc, config)
    return _objective_matrix(inc, model.d, config)
