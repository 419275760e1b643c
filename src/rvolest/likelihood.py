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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import CholeskyFailure
from .mathcore import LOG_2PI, chol_spd, k_const, whitened_derivatives
from .model import CovariateSource, ModelSpec

# Upper end of the admissible tapering range (0, LAMBDA_BAR].
LAMBDA_BAR = 2.0


@dataclass(frozen=True)
class ObservationPath:
    """Equally spaced sample (t_j, X_{t_j}, Y_{t_j}), j = 0..n, with t_j = j T / n."""

    n: int
    T: float
    times: np.ndarray
    covariates: np.ndarray | None
    responses: np.ndarray

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
        times.setflags(write=False)
        responses.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "covariates", covariates)
        object.__setattr__(self, "responses", responses)

    @property
    def h(self) -> float:
        return self.T / self.n

    @property
    def d(self) -> int:
        return self.responses.shape[1]


def scaled_increments(path: ObservationPath) -> np.ndarray:
    """eps_j = h^{-1/2} (Y_{t_j} - Y_{t_{j-1}}) as an (n, d) array."""
    return np.diff(path.responses, axis=0) / np.sqrt(path.h)


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
    """x_{j-1} for j = 1..n, read per the model's covariate convention."""
    if model.covariate_source is CovariateSource.SELF_RESPONSE:
        return path.responses[:-1]
    if path.covariates is None:
        raise ValueError("model expects external covariates but path has none")
    return path.covariates[:-1]


def _check_positive(s: np.ndarray) -> None:
    bad = ~(np.isfinite(s) & (s > 0.0))
    if np.any(bad):
        raise CholeskyFailure(index=int(np.argmax(bad)) + 1)


def _eval_d1(path, model, theta, config):
    """Vectorized d = 1 evaluation; returns (value, grad)."""
    theta = np.asarray(theta, dtype=float)
    x_block = covariate_block(path, model)
    eps = scaled_increments(path)[:, 0]
    s = np.asarray(model.s_values(x_block, theta), dtype=float)
    _check_positive(s)
    q = eps * eps / s
    log_s = np.log(s)
    t = model.ds_values(x_block, theta) / s[:, None]

    if config.variant is Variant.GQLF:
        return -0.5 * float(np.sum(log_s + q)), -0.5 * ((1.0 - q) @ t)

    lam = config.lam
    w = np.exp(-0.5 * lam * (LOG_2PI + q))  # phi(S^{-1/2} eps)^lam, d = 1
    if config.variant is Variant.DENSITY_POWER:
        kconst = k_const(lam, 1)
        det_taper = np.exp(-0.5 * lam * log_s)
        value = float(np.sum(det_taper * (w / lam - kconst)))
        return value, 0.5 * ((det_taper * (w * (q - 1.0) + lam * kconst)) @ t)

    # Hoelder-based
    det_taper = np.exp(-0.5 * lam / (lam + 1.0) * log_s)
    value = float(np.sum(det_taper * w)) / lam
    return value, 0.5 * ((det_taper * w * (q - 1.0 / (lam + 1.0))) @ t)


def _eval_general(path, model, theta, config):
    """Batched d >= 1 matrix path; reference implementation for the d=1 fast path.

    Per increment, with S = L L', z = L^{-1} eps and A_k = L^{-1} d_k S L^{-T}:
    eps' S^{-1} eps = |z|^2, t_k = tr(S^{-1} d_k S) = tr A_k and
    eps' S^{-1} d_k S S^{-1} eps = z' A_k z.
    """
    theta = np.asarray(theta, dtype=float)
    x_block = covariate_block(path, model)
    eps = scaled_increments(path)
    n, d, p = path.n, model.d, model.p
    lower = chol_spd(model.s_values(x_block, theta).reshape(n, d, d))
    log_det = 2.0 * np.log(np.diagonal(lower, axis1=1, axis2=2)).sum(axis=1)
    z = np.linalg.solve(lower, eps[:, :, None])[:, :, 0]
    quad = np.einsum("ja,ja->j", z, z)
    a = whitened_derivatives(lower, model.ds_values(x_block, theta).reshape(n, p, d, d))
    t = np.trace(a, axis1=2, axis2=3)
    q = np.einsum("ja,jkab,jb->jk", z, a, z)

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


def value_and_grad(path, model, theta, config) -> tuple[float, np.ndarray]:
    """Objective and its analytic gradient in one pass (shared S/dS evaluation).

    The one public objective function: the estimator maximizes it, and every
    variant and dimension goes through it.
    """
    if model.d == 1:
        return _eval_d1(path, model, theta, config)
    return _eval_general(path, model, theta, config)
