import os
import sys
from dataclasses import replace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from rvolest import ObservationPath, make_builtin  # noqa: E402


def make_exp_linear_path(rng, n=64, T=1.0, theta=None, spikes=0):
    """A small synthetic path under the trig-covariate exponential model."""
    model = make_builtin("exp-linear-3")
    theta = np.asarray([-2.0, 3.0, 0.0] if theta is None else theta, dtype=float)
    times = np.arange(n + 1) * (T / n)
    x = np.column_stack([
        np.cos(2 * np.pi * times),
        np.sin(2 * np.pi * times),
        np.cos(4 * np.pi * times),
    ])
    sigma = np.sqrt(model.s_values(x[:-1], theta))
    dy = sigma * rng.normal(0.0, np.sqrt(T / n), size=n)
    y = np.concatenate([[0.0], np.cumsum(dy)])
    for _ in range(spikes):
        y[rng.integers(1, n)] += rng.normal(0.0, 1.0)
    return ObservationPath(n=n, T=T, times=times, covariates=x, responses=y), model


def c_ordered_ds(model):
    """The model with its ds_path's result copied to row-major (C) order, the
    layout of a custom map that fills an (n, p) array row by row."""
    ds_path = model.ds_path
    return replace(model, name=f"{model.name}-c-order",
                   ds_path=lambda x_block, theta: np.ascontiguousarray(ds_path(x_block, theta)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
