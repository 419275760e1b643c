"""Path generation: Euler-Maruyama diffusion plus compound-Poisson jumps and
Bernoulli spike noise.

A scenario is simulated on a refined grid of n*substeps Euler steps, of which
only the values at the n+1 observation times are kept.  Jumps arrive by a
Poisson process with the configured per-unit-time intensity; each jump lands
on the first refined gridpoint at or after its event time.  Spikes perturb
individual observations: Y_{t_j} = Y*_{t_j} + p_j C_j with p_j ~
Bernoulli(prob) and C_j ~ N(0, sigma2), independently over j = 0..n (a spike
therefore touches the two increments adjacent to t_j).

Randomness comes from three independent, replication-addressable streams
(Brownian / Jumps / Spikes) derived from counter-based Philox generators, so
replications can run in any order on any number of workers and still
reproduce bit-identically.  `simulate` returns only the observed path; as the
lanes are independent, ``simulate(replace(sc, spike=None))`` is the same draw
without spikes and ``simulate(replace(sc, jump=None, spike=None))`` the clean one.

The model's ``covariate_source``, which the estimator reads x_{j-1} by, also
sets the design: an EXTERNAL model gets the first ``cov_dim`` columns of
`trig_covariates` and zero drift (one vectorized pass); a SELF_RESPONSE model
runs an Euler loop with optional drift mu(y) = y.  That loop is the model's
`euler` kernel, called once per path with y0 as a float and theta as a float
tuple; it keeps only the observed values.

The named presets are the entries of one table, `_PRESETS`; `PRESET_NAMES`
is its keys and `get_preset` builds a `Scenario` from an entry.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .likelihood import ObservationPath, _number
from .model import CovariateSource, make_builtin


class Lane(enum.Enum):
    BROWNIAN = 0
    JUMPS = 1
    SPIKES = 2


def rng_stream(seed: int, replication: int, lane: Lane) -> np.random.Generator:
    """Independent deterministic generator for (seed, replication, lane)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication, lane.value))
    return np.random.Generator(np.random.Philox(ss))


def _count(name: str, value, least: int) -> int:
    """An integer field as an int: a bool, a fraction, a non-number or a value
    below ``least`` raises ValueError naming the field.  12.0 is accepted."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _store_numbers(record, *names: str) -> list[float]:
    """Store each named field of a frozen record as a float, through `_number`,
    and return the stored values."""
    values = [_number(f"{type(record).__name__}.{name}", getattr(record, name))
              for name in names]
    for name, value in zip(names, values):
        object.__setattr__(record, name, value)
    return values


@dataclass(frozen=True)
class JumpSpec:
    """Compound-Poisson jump component: CP(intensity, size_law), scaled by scale."""

    intensity: float               # expected events per unit time
    size_law: str = "normal"       # "normal" (mean, sigma2) or "gamma" (shape, rate)
    mean: float = 0.0
    sigma2: float = 3.0
    shape: float = 1.0
    rate: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.size_law not in ("normal", "gamma"):
            raise ValueError(f"unknown size_law {self.size_law!r}")
        values = _store_numbers(self, "intensity", "mean", "sigma2", "shape", "rate", "scale")
        if not (np.all(np.isfinite(values)) and self.intensity >= 0 and self.sigma2 >= 0
                and self.shape > 0 and self.rate > 0):
            raise ValueError("jump fields must be finite, with intensity, sigma2 >= 0 "
                             "and shape, rate > 0")

    def draw_sizes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.size_law == "normal":
            sizes = rng.normal(self.mean, np.sqrt(self.sigma2), size=count)
        else:
            sizes = rng.gamma(self.shape, 1.0 / self.rate, size=count)
        return self.scale * sizes


@dataclass(frozen=True)
class SpikeSpec:
    """Additive N(0, sigma2) contamination at each observation w.p. prob."""

    prob: float
    sigma2: float = 1.0

    def __post_init__(self):
        _store_numbers(self, "prob", "sigma2")
        if not (0.0 <= self.prob <= 1.0 and np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError("need spike prob in [0, 1] and finite sigma2 >= 0")


class DriftKind(enum.Enum):
    ZERO = "zero"
    RESPONSE = "response"   # mu(y) = y, self-response models only


@dataclass(frozen=True)
class DgpModel:
    """Data-generating coefficients: builtin diffusion family at theta0 + drift."""

    name: str
    theta0: tuple
    drift: DriftKind = DriftKind.ZERO

    def __post_init__(self):
        model = make_builtin(self.name)  # UnknownModel is a ValueError
        if np.ndim(self.theta0) != 1 or len(self.theta0) != model.p:
            raise ValueError(f"model {self.name!r} needs {model.p} theta0 entries, "
                             f"got {self.theta0!r}")
        object.__setattr__(self, "theta0", tuple(_number("theta0 entry", v)
                                                 for v in self.theta0))
        object.__setattr__(self, "drift", DriftKind(self.drift))
        theta0, box = self.theta0_array(), model.box
        if not np.all(np.isfinite(theta0)):
            raise ValueError("theta0 entries must be finite")
        if np.any(theta0 < box.lower) or np.any(theta0 > box.upper):
            raise ValueError(f"model {self.name!r}: theta0 {list(self.theta0)} lies outside "
                             f"its box, lower {box.lower.tolist()}, upper {box.upper.tolist()}")
        if model.covariate_source is CovariateSource.EXTERNAL and self.drift is not DriftKind.ZERO:
            raise ValueError(f"model {self.name!r} has an external covariate and needs zero drift")

    def theta0_array(self) -> np.ndarray:
        return np.asarray(self.theta0, dtype=float)


@dataclass(frozen=True)
class Scenario:
    model: DgpModel
    n: int
    T: float = 1.0
    jump: Optional[JumpSpec] = None
    spike: Optional[SpikeSpec] = None
    substeps: int = 10
    seed: int = 0
    y0: float = 0.0

    def __post_init__(self):
        for name, least in (("n", 1), ("substeps", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))
        _store_numbers(self, "T", "y0")
        if not (np.isfinite(self.T) and self.T > 0 and np.isfinite(self.y0)):
            raise ValueError("need finite T > 0 and finite y0")


@dataclass(frozen=True)
class PathBundle:
    observed: ObservationPath    # full contamination
    jump_times: np.ndarray
    spike_indices: np.ndarray    # observation indices j with p_j = 1


def trig_covariates(times: np.ndarray) -> np.ndarray:
    """The deterministic regression covariate (cos 2 pi t, sin 2 pi t, cos 4 pi t)."""
    two_pi_t = 2.0 * np.pi * times
    return np.column_stack([np.cos(two_pi_t), np.sin(two_pi_t), np.cos(4.0 * np.pi * times)])


def _jump_deltas(scenario: Scenario, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-refined-step jump amounts (length m) and the event times."""
    deltas = np.zeros(m)
    jump = scenario.jump
    if jump is None or jump.intensity == 0.0 or jump.scale == 0.0:
        return deltas, np.empty(0)
    count = rng.poisson(jump.intensity * scenario.T)
    times = np.sort(rng.uniform(0.0, scenario.T, size=count))
    sizes = jump.draw_sizes(rng, count)
    if count:
        fine_h = scenario.T / m
        # jump lands on the first refined gridpoint >= event time
        idx = np.minimum(np.ceil(times / fine_h - 1e-12).astype(int), m) - 1
        np.add.at(deltas, np.maximum(idx, 0), sizes)
    return deltas, times


def simulate(scenario: Scenario, replication: int = 0) -> PathBundle:
    """Generate the observed path of one replication.  The same draw without
    spikes is ``simulate(replace(scenario, spike=None), replication)``, without
    jumps and spikes ``simulate(replace(scenario, jump=None, spike=None), ...)``.
    """
    n, sub, T = scenario.n, scenario.substeps, scenario.T
    m = n * sub
    fine_h = T / m
    obs_times = np.arange(n + 1) * (T / n)

    rng_w, rng_j, rng_s = (rng_stream(scenario.seed, replication, lane) for lane in Lane)

    dw = rng_w.normal(0.0, np.sqrt(fine_h), size=m)
    jump_deltas, jump_times = _jump_deltas(scenario, rng_j, m)

    model = make_builtin(scenario.model.name)
    theta0 = scenario.model.theta0_array()
    external = model.covariate_source is CovariateSource.EXTERNAL

    if external:
        # sigma depends only on time: increments are independent, the jump
        # component is purely additive.
        x_fine = trig_covariates(np.arange(m) * fine_h)[:, :model.cov_dim]
        sigma = np.sqrt(model.s_values(x_fine, theta0))
        diffusion = scenario.y0 + np.concatenate([[0.0], np.cumsum(sigma * dw)])
        y_obs = (diffusion + np.concatenate([[0.0], np.cumsum(jump_deltas)]))[::sub]
    else:
        h = fine_h if scenario.model.drift is DriftKind.RESPONSE else 0.0  # mu(y) h = y h
        y_obs = model.euler(scenario.y0, dw, jump_deltas, h, sub, scenario.model.theta0)

    # spike contamination at observation times (drawn for all j to keep the
    # stream layout independent of the Bernoulli outcomes)
    if scenario.spike is not None and scenario.spike.prob > 0.0:
        flags = rng_s.random(n + 1) < scenario.spike.prob
        values = rng_s.normal(0.0, np.sqrt(scenario.spike.sigma2), size=n + 1)
        spikes = np.where(flags, values, 0.0)
        spike_indices = np.flatnonzero(flags)
    else:
        spikes = np.zeros(n + 1)
        spike_indices = np.empty(0, dtype=int)

    observed_y = y_obs + spikes
    covariates = trig_covariates(obs_times)[:, :model.cov_dim] if external else observed_y
    observed = ObservationPath(n=n, T=T, times=obs_times, covariates=covariates,
                               responses=observed_y)
    return PathBundle(observed, jump_times, spike_indices)


# ---------------------------------------------------------------------------
# Named presets for the shipped experiment designs
# ---------------------------------------------------------------------------

# name -> (data-generating model, spiked, jump-size law or None; JumpSpec's parameters)
_TRIG_MODEL = DgpModel(name="exp-linear-3", theta0=(-2.0, 3.0, 0.0))
_PRESETS = {
    "sec6-1-clean": (_TRIG_MODEL, False, None),
    "sec6-1-spike": (_TRIG_MODEL, True, None),
    "sec6-2-jump-normal": (_TRIG_MODEL, False, "normal"),
    "sec6-2-jump-gamma": (_TRIG_MODEL, False, "gamma"),
    "sec6-5-jumpdiff": (DgpModel(name="rational-diffusion", theta0=(2.0, 3.0),
                                 drift=DriftKind.RESPONSE), False, "normal"),
}
PRESET_NAMES = tuple(_PRESETS)


def get_preset(
    name: str,
    n: int = 5000,
    seed: int = 0,
    spike_prob: float = 0.01,
    spike_sigma2: float = 1.0,
    jump_rate_factor: float = 0.01,
) -> Scenario:
    """Build a named scenario.  jump intensity scales as jump_rate_factor * n / T."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    model, spiked, size_law = _PRESETS[name]
    return Scenario(model=model, n=n, seed=seed,
                    jump=None if size_law is None else JumpSpec(
                        intensity=jump_rate_factor * n, size_law=size_law),
                    spike=SpikeSpec(prob=spike_prob, sigma2=spike_sigma2) if spiked else None)


# ---------------------------------------------------------------------------
# JSON round-trip: the keys are the dataclass fields
# ---------------------------------------------------------------------------

def scenario_to_dict(s: Scenario) -> dict:
    out = asdict(s)
    out["model"]["drift"] = s.model.drift.value
    return out


def _check_keys(data: dict, record: type, where: str) -> None:
    """Reject keys that name no field of `record`: a typo must not pass silently."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    accepted = [f.name for f in fields(record)]
    unknown = sorted(set(data) - set(accepted))
    if unknown:
        raise ValueError(f"unknown {where} key {', '.join(map(repr, unknown))} "
                         f"(accepted: {', '.join(accepted)})")


def _record(record: type, where: str, data: dict):
    _check_keys(data, record, where)
    return record(**data)


def scenario_from_dict(data: dict) -> Scenario:
    try:
        _check_keys(data, Scenario, "scenario")
        jump, spike = data.get("jump"), data.get("spike")
        return Scenario(**{
            **data, "model": _record(DgpModel, "model", data["model"]),
            "jump": None if jump is None else _record(JumpSpec, "jump", jump),
            "spike": None if spike is None else _record(SpikeSpec, "spike", spike)})
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid scenario config: {exc}") from exc
