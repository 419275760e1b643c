import contextlib
import threading

import numpy as np
import pytest

import rvolest.blas as blas_mod
import rvolest.estimator as estimator_mod
from rvolest import RobustConfig, estimate, get_preset, make_builtin, simulate


@pytest.fixture
def openblas():
    controls = blas_mod.openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    return controls


def _counts(controls):
    return [get_threads() for _, get_threads in controls]


def test_concurrent_pins_restore_the_counts_when_the_last_ends(openblas):
    # thread A enters, thread B enters, A leaves, B leaves: the counts stay at
    # one until B leaves, then come back to what they were before A entered
    before = _counts(openblas)
    entered, a_left = threading.Event(), threading.Event()
    seen = []

    def b():
        with blas_mod.pinned_to_one_thread():
            entered.set()
            a_left.wait(timeout=60)
            seen.append(_counts(openblas))

    with blas_mod.pinned_to_one_thread():
        assert set(_counts(openblas)) == {1}
        worker = threading.Thread(target=b)
        worker.start()
        assert entered.wait(timeout=60)
    a_left.set()
    worker.join(timeout=60)
    assert set(seen[0]) == {1}
    assert _counts(openblas) == before


def test_nested_pins_restore_the_counts(openblas):
    before = _counts(openblas)
    with blas_mod.pinned_to_one_thread():
        with blas_mod.pinned_to_one_thread():
            pass
        assert set(_counts(openblas)) == {1}
    assert _counts(openblas) == before


def _spike_fit(monkeypatch, pin):
    monkeypatch.setattr(estimator_mod, "pinned_to_one_thread", pin)
    bundle = simulate(get_preset("sec6-1-spike", n=500, seed=3))
    return estimate(bundle.observed, make_builtin("exp-linear-3"),
                    RobustConfig.density_power(0.5))


def test_lbfgsb_runs_on_one_blas_thread_and_keeps_its_bits(openblas, monkeypatch):
    lbfgsb, during = estimator_mod._lbfgsb, []

    def recording(*args):
        during.append(_counts(openblas))
        return lbfgsb(*args)

    monkeypatch.setattr(estimator_mod, "_lbfgsb", recording)
    before = _counts(openblas)
    pinned = _spike_fit(monkeypatch, blas_mod.pinned_to_one_thread)
    assert during and set(during[0]) == {1}
    assert _counts(openblas) == before
    free = _spike_fit(monkeypatch, contextlib.nullcontext)
    assert set(during[1]) == set(before)
    np.testing.assert_array_equal(pinned.theta_hat, free.theta_hat)
    assert pinned.objective_value == free.objective_value
