import dataclasses
import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import euler_full_grid, euler_reference

import rvolest.simulator as simulator
from rvolest import (
    BUILTIN_NAMES,
    CovariateSource,
    DgpModel,
    DriftKind,
    JumpSpec,
    Lane,
    RobustConfig,
    Scenario,
    SpikeSpec,
    estimate,
    get_preset,
    make_builtin,
    rng_stream,
    simulate,
)
from rvolest.simulator import (
    PRESET_NAMES,
    scenario_from_dict,
    scenario_to_dict,
    trig_covariates,
)


def jumped(scenario, replication=0):
    """The observed path of `scenario` without its spikes."""
    return simulate(replace(scenario, spike=None), replication).observed


def clean(scenario, replication=0):
    """The observed path of `scenario` without its jumps and spikes."""
    return simulate(replace(scenario, jump=None, spike=None), replication).observed


def spike_scenario(n=200, seed=0, prob=0.05, substeps=4):
    return Scenario(
        model=DgpModel(name="exp-linear-3", theta0=(-2.0, 3.0, 0.0)),
        n=n, seed=seed, substeps=substeps,
        spike=SpikeSpec(prob=prob, sigma2=1.0),
    )


class TestRngStreams:
    def test_reproducible(self):
        a = rng_stream(42, 3, Lane.BROWNIAN).normal(size=100)
        b = rng_stream(42, 3, Lane.BROWNIAN).normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_lane_independence(self):
        a = rng_stream(42, 0, Lane.BROWNIAN).normal(size=100_000)
        b = rng_stream(42, 0, Lane.SPIKES).normal(size=100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_replication_separation(self):
        a = rng_stream(42, 0, Lane.JUMPS).normal(size=100)
        b = rng_stream(42, 1, Lane.JUMPS).normal(size=100)
        assert not np.array_equal(a, b)

    def test_lane_isolation_in_simulation(self):
        # changing the spike law leaves the Brownian and jump draws unchanged:
        # the paths agree bit for bit away from the spiked observations
        base = simulate(spike_scenario(seed=9, prob=0.0))
        spiked = simulate(spike_scenario(seed=9, prob=0.3))
        assert spiked.spike_indices.size > 0
        keep = np.setdiff1d(np.arange(base.observed.n + 1), spiked.spike_indices)
        np.testing.assert_array_equal(
            base.observed.responses[keep], spiked.observed.responses[keep]
        )


class TestSimulate:
    def test_no_contamination_collapses_bundle(self):
        # inactive jump and spike laws give exactly the clean path
        sc = Scenario(
            model=DgpModel(name="exp-linear-3", theta0=(-2.0, 3.0, 0.0)),
            n=100, seed=5, jump=JumpSpec(intensity=0.0), spike=SpikeSpec(prob=0.0),
        )
        b = simulate(sc)
        np.testing.assert_array_equal(clean(sc).responses, jumped(sc).responses)
        np.testing.assert_array_equal(jumped(sc).responses, b.observed.responses)
        assert b.jump_times.size == 0 and b.spike_indices.size == 0

    def test_observed_equals_jumped_plus_spikes(self):
        sc = spike_scenario(seed=11, prob=0.1)
        b = simulate(sc)
        delta = b.observed.responses[:, 0] - jumped(sc).responses[:, 0]
        nonzero = np.flatnonzero(delta != 0.0)
        assert set(nonzero) <= set(b.spike_indices)
        assert b.spike_indices.size > 0

    def test_poisson_jump_counts(self):
        sc = Scenario(
            model=DgpModel(name="exp-linear-3", theta0=(-2.0, 3.0, 0.0)),
            n=50, substeps=2, jump=JumpSpec(intensity=50.0, size_law="normal"),
        )
        counts = [simulate(sc, replication=r).jump_times.size for r in range(500)]
        tol = 3.0 * np.sqrt(50.0) / np.sqrt(500)
        assert np.mean(counts) == pytest.approx(50.0, abs=tol)

    def test_spike_counts_binomial(self):
        sc = spike_scenario(n=100, prob=0.05, substeps=1)
        counts = [simulate(sc, replication=r).spike_indices.size for r in range(500)]
        mean_want = 101 * 0.05
        tol = 3.0 * np.sqrt(101 * 0.05 * 0.95) / np.sqrt(500)
        assert np.mean(counts) == pytest.approx(mean_want, abs=tol)

    def test_jump_lands_on_first_gridpoint_after_event(self):
        sc = Scenario(
            model=DgpModel(name="exp-linear-3", theta0=(-2.0, 3.0, 0.0)),
            n=40, substeps=5, seed=123,
            jump=JumpSpec(intensity=2.0, size_law="normal", mean=50.0, sigma2=0.01),
        )
        b = simulate(sc)
        if b.jump_times.size == 0:
            pytest.skip("no jump drawn for this seed")
        diff = b.observed.responses[:, 0] - clean(sc).responses[:, 0]
        first_affected = int(np.flatnonzero(np.abs(diff) > 1.0)[0])
        expected_obs_index = int(np.ceil(b.jump_times[0] * sc.n / sc.T - 1e-12))
        assert first_affected == max(expected_obs_index, 1)

    def test_gamma_jump_sizes_positive(self):
        sc = Scenario(
            model=DgpModel(name="exp-linear-3", theta0=(-2.0, 3.0, 0.0)),
            n=100, substeps=2, seed=3,
            jump=JumpSpec(intensity=20.0, size_law="gamma", shape=1.0, rate=1.0),
        )
        diff = jumped(sc).responses[:, 0] - clean(sc).responses[:, 0]
        assert diff[-1] > 0.0  # cumulated gamma jumps are positive

    def test_jump_scale_zero_disables(self):
        sc = Scenario(
            model=DgpModel(name="exp-linear-3", theta0=(-2.0, 3.0, 0.0)),
            n=50, substeps=2, seed=3,
            jump=JumpSpec(intensity=20.0, scale=0.0),
        )
        np.testing.assert_array_equal(clean(sc).responses, jumped(sc).responses)

    def test_self_response_covariates_track_observed(self):
        sc = get_preset("sec6-5-jumpdiff", n=400, seed=2)
        b = simulate(sc)
        np.testing.assert_array_equal(b.observed.covariates, b.observed.responses)
        # jumps feed back into the self-referential path, so jumped != clean + const
        if b.jump_times.size:
            diff = jumped(sc).responses[:, 0] - clean(sc).responses[:, 0]
            assert np.std(np.diff(diff[np.flatnonzero(diff != 0)])) > 0.0

    def test_quadratic_variation_ratio(self):
        # sum (dY_clean)^2 over the integrated true variance -> 1
        theta0 = np.array([-2.0, 3.0, 0.0])
        model = make_builtin("exp-linear-3")
        ratios = []
        for seed in range(50):
            sc = spike_scenario(n=5000, seed=seed, prob=0.0, substeps=4)
            qv = float(np.sum(np.diff(clean(sc).responses[:, 0]) ** 2))
            fine_t = np.linspace(0.0, 1.0, 20_001)[:-1]
            integ = float(np.mean(model.s_values(trig_covariates(fine_t), theta0)))
            ratios.append(qv / integ)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.05)

    def test_refinement_consistency(self):
        # doubling substeps moves the clean-data GQMLE mean by < 0.01: the two
        # refinement levels draw different Brownian paths, so compare the
        # Monte Carlo means (the sampling noise cancels, the bias would not)
        model = make_builtin("exp-linear-3")
        means = []
        for substeps in (10, 20):
            fits = []
            for seed in range(150):
                sc = spike_scenario(n=5000, seed=seed, prob=0.0, substeps=substeps)
                fits.append(
                    estimate(simulate(sc).observed, model, RobustConfig.gqlf()).theta_hat
                )
            means.append(np.mean(fits, axis=0))
        assert np.abs(means[0] - means[1]).max() < 0.01
        # and the default-refinement mean sits on the published clean-data row
        assert np.abs(means[0] - np.array([-2.0013, 2.9981, 0.0015])).max() < 0.01

    def test_self_response_calls_euler_once_per_path(self, monkeypatch):
        sc = get_preset("sec6-5-jumpdiff", n=200, seed=1)
        calls = []
        real_make_builtin = simulator.make_builtin

        def counting_make_builtin(name):
            model = real_make_builtin(name)

            def counting_euler(y0, dw, jumps, h, substeps, theta):
                calls.append((y0, theta))
                return model.euler(y0, dw, jumps, h, substeps, theta)

            return replace(model, euler=counting_euler)

        monkeypatch.setattr(simulator, "make_builtin", counting_make_builtin)
        for rep in (0, 1):
            simulate(sc, replication=rep)
        assert len(calls) == 2
        assert all(type(y0) is float and type(theta) is tuple
                   and all(type(t) is float for t in theta) for y0, theta in calls)

    @pytest.mark.parametrize("substeps", [1, 10])
    @pytest.mark.parametrize("y0", [0.0, 0.7])
    @pytest.mark.parametrize("jumps", [False, True], ids=["no-jumps", "jumps"])
    @pytest.mark.parametrize("drift", [DriftKind.ZERO, DriftKind.RESPONSE],
                             ids=["zero", "response"])
    def test_self_response_loop_matches_full_grid_reference(self, drift, jumps, y0,
                                                            substeps):
        # the loop that stores only the observed values, with sigma in place
        # of sqrt(S), keeps every bit of the full-grid loop
        base = get_preset("sec6-5-jumpdiff", n=200)
        sc = replace(base, model=replace(base.model, drift=drift), y0=y0,
                     substeps=substeps,
                     jump=replace(base.jump, intensity=10.0) if jumps else None)
        for seed in (1, 2, 3):
            for rep in (0, 1):
                seeded = replace(sc, seed=seed)
                got = simulate(seeded, replication=rep).observed.responses[:, 0]
                assert got.tobytes() == euler_reference(seeded, rep).tobytes()

    @pytest.mark.parametrize("substeps, jump_steps", [
        (4, [0]), (4, [23]), (4, [5, 7]), (4, [3, 4]), (4, [9, 13]), (1, [0, 1, 23]),
    ], ids=["first-step-of-row-0", "last-step-of-last-row", "two-in-one-row",
            "adjacent-rows-at-the-seam", "adjacent-rows", "one-substep"])
    @pytest.mark.parametrize("drift", [DriftKind.ZERO, DriftKind.RESPONSE],
                             ids=["zero", "response"])
    def test_euler_kernel_jump_split_matches_full_grid_oracle(self, substeps, jump_steps,
                                                              drift):
        # the kernel drops the jump term on intervals without a jump; on
        # hand-placed jumps it keeps every bit of the full-grid sqrt(S) loop
        model = make_builtin("rational-diffusion")
        m = 24
        fine_h = 1.0 / m
        dw = np.random.default_rng(7).normal(0.0, np.sqrt(fine_h), size=m)
        jumps = np.zeros(m)
        jumps[jump_steps] = np.linspace(1.3, -0.8, len(jump_steps))
        h = fine_h if drift is DriftKind.RESPONSE else 0.0
        theta = (2.0, 3.0)
        got = model.euler(0.7, dw, jumps, h, substeps, theta)
        want = euler_full_grid(model, 0.7, dw, jumps, h, substeps, theta)
        assert got.shape == (m // substeps + 1,)
        assert got.tobytes() == want.tobytes()

    def test_jumpdiff_paths_keep_their_bits(self):
        # sha256 of the paths that the numpy-scalar Euler loop produced: the
        # float loop must reproduce every bit
        sc = get_preset("sec6-5-jumpdiff", n=500, seed=1)
        digest = hashlib.sha256()
        for rep in range(3):
            digest.update(simulate(sc, replication=rep).observed.responses.tobytes())
        assert digest.hexdigest() == (
            "2a51644969503c9056b3e54c801f66c18f2315894c6f20ae11d34f4e21e359ae")

    def test_drift_requires_self_response(self):
        # an external-covariate model is simulated without drift: asking for
        # one fails when the model is built, before any draw
        with pytest.raises(ValueError, match="needs zero drift"):
            DgpModel(name="exp-linear-3", theta0=(-2.0, 3.0, 0.0), drift=DriftKind.RESPONSE)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_model_sets_covariate_design(self, name):
        # the model's covariate convention alone picks the simulated design
        model = make_builtin(name)
        sc = Scenario(model=DgpModel(name=name, theta0=tuple(model.box.initial)),
                      n=50, seed=4)
        path = simulate(sc).observed
        if model.covariate_source is CovariateSource.SELF_RESPONSE:
            np.testing.assert_array_equal(path.covariates, path.responses)
        else:
            np.testing.assert_array_equal(path.covariates,
                                          trig_covariates(path.times)[:, :model.cov_dim])
            assert not np.array_equal(path.covariates[:, :1], path.responses)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_simulate(self, name):
        sc = get_preset(name, n=64, seed=1)
        b = simulate(sc)
        assert b.observed.n == 64

    @pytest.mark.parametrize("name, model, jump, spike", [
        ("sec6-1-clean", "trig", None, None),
        ("sec6-1-spike", "trig", None, {"prob": 0.01, "sigma2": 1.0}),
        ("sec6-2-jump-normal", "trig", "normal", None),
        ("sec6-2-jump-gamma", "trig", "gamma", None),
        ("sec6-5-jumpdiff", "rational", "normal", None),
    ])
    def test_preset_contents(self, name, model, jump, spike):
        models = {"trig": {"name": "exp-linear-3", "theta0": (-2.0, 3.0, 0.0), "drift": "zero"},
                  "rational": {"name": "rational-diffusion", "theta0": (2.0, 3.0),
                               "drift": "response"}}
        jump_blob = None if jump is None else {
            "intensity": 2.0, "size_law": jump, "mean": 0.0, "sigma2": 3.0, "shape": 1.0,
            "rate": 1.0, "scale": 1.0}
        assert scenario_to_dict(get_preset(name, n=200, seed=3)) == {
            "model": models[model], "n": 200, "T": 1.0, "jump": jump_blob, "spike": spike,
            "substeps": 10, "seed": 3, "y0": 0.0}

    def test_jump_intensity_scales_with_n(self):
        sc = get_preset("sec6-2-jump-normal", n=5000)
        assert sc.jump.intensity == pytest.approx(50.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_preset("nope")

    def test_scenario_json_roundtrip(self):
        for name in PRESET_NAMES:
            sc = get_preset(name, n=321, seed=9)
            again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(sc))))
            assert again == sc

    @pytest.mark.parametrize("name, blob", [
        ("sec6-2-jump-gamma", {
            "T": 1.0, "model": {"drift": "zero", "name": "exp-linear-3",
                                "theta0": [-2.0, 3.0, 0.0]},
            "jump": {"intensity": 3.21, "rate": 1.0, "scale": 1.0, "shape": 1.0,
                     "size_law": "gamma"},
            "n": 321, "seed": 9, "spike": None, "substeps": 10, "y0": 0.0}),
        ("sec6-5-jumpdiff", {
            "T": 1.0, "model": {"drift": "response", "name": "rational-diffusion",
                                "theta0": [2.0, 3.0]},
            "jump": {"intensity": 3.21, "mean": 0.0, "scale": 1.0, "sigma2": 3.0,
                     "size_law": "normal"},
            "n": 321, "seed": 9, "spike": None, "substeps": 10, "y0": 0.0}),
    ])
    def test_jump_file_that_lists_one_size_law_loads(self, name, blob):
        # scenario files that list only the used size law's parameters, as
        # earlier versions wrote them, load unchanged
        assert scenario_from_dict(blob) == get_preset(name, n=321, seed=9)

    def test_invalid_scenario_dict(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"n": 10})

    def test_scenario_dict_has_no_covariate_design(self):
        # the model decides the design, so a saved scenario does not repeat it
        for name in PRESET_NAMES:
            blob = scenario_to_dict(get_preset(name, n=50))
            assert set(blob) == {"model", "n", "T", "jump", "spike", "substeps", "seed", "y0"}
            assert set(blob["model"]) == {"name", "theta0", "drift"}

    @pytest.mark.parametrize("where, key", [
        ("scenario", "spikes"), ("model", "theta"), ("jump", "x"), ("spike", "x"),
    ])
    def test_unknown_scenario_key_rejected(self, where, key):
        sc = replace(get_preset("sec6-2-jump-normal", n=50), spike=SpikeSpec(prob=0.1))
        blob = scenario_to_dict(sc)
        (blob if where == "scenario" else blob[where])[key] = 1
        record = {"scenario": Scenario, "model": DgpModel, "jump": JumpSpec,
                  "spike": SpikeSpec}[where]
        accepted = ", ".join(f.name for f in dataclasses.fields(record))
        with pytest.raises(ValueError, match=re.escape(
                f"invalid scenario config: unknown {where} key '{key}' (accepted: {accepted})")):
            scenario_from_dict(blob)

    def test_jump_file_lists_every_field(self):
        blob = scenario_to_dict(get_preset("sec6-2-jump-gamma", n=50))
        assert set(blob["jump"]) == {f.name for f in dataclasses.fields(JumpSpec)}


class TestSpecs:
    def test_spike_validation(self):
        with pytest.raises(ValueError):
            SpikeSpec(prob=1.5)
        with pytest.raises(ValueError):
            SpikeSpec(prob=0.1, sigma2=-1.0)

    def test_jump_validation(self):
        with pytest.raises(ValueError):
            JumpSpec(intensity=-1.0)
        with pytest.raises(ValueError):
            JumpSpec(intensity=1.0, size_law="cauchy")

    def test_dgp_model_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            DgpModel(name="nope", theta0=(1.0,))

    def test_dgp_model_rejects_wrong_theta0_length(self):
        with pytest.raises(ValueError, match="needs 2 theta0 entries"):
            DgpModel(name="rational-diffusion", theta0=(2.0,))

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(model=DgpModel(name="exp-linear-3", theta0=(0.0, 0.0, 0.0)), n=0)

    @pytest.mark.parametrize("field", ["n", "substeps", "seed"])
    @pytest.mark.parametrize("value", [True, 12.5, -3, "12", np.nan], ids=[
        "bool", "fraction", "negative", "text", "nan"])
    def test_scenario_counts_must_be_integers(self, field, value):
        model = DgpModel(name="exp-linear-3", theta0=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
            Scenario(model=model, **{"n": 10, field: value})

    @pytest.mark.parametrize("value", [12.0, np.int64(12), np.float32(12.0)])
    def test_scenario_stores_whole_counts_as_ints(self, value):
        model = DgpModel(name="exp-linear-3", theta0=(0, 0, 0))
        sc = Scenario(model=model, n=value, substeps=value, seed=value, T=2, y0=1)
        assert [(v, type(v)) for v in (sc.n, sc.substeps, sc.seed)] == [(12, int)] * 3
        assert (type(sc.T), type(sc.y0), type(model.theta0[0])) == (float, float, float)

    def test_dgp_model_converts_json_values(self):
        model = DgpModel(name="rational-diffusion", theta0=[2, 3], drift="response")
        assert model == DgpModel(name="rational-diffusion", theta0=(2.0, 3.0),
                                 drift=DriftKind.RESPONSE)
        assert type(model.theta0) is tuple
        with pytest.raises(ValueError, match="needs 2 theta0 entries, got '23'"):
            DgpModel(name="rational-diffusion", theta0="23")

    @pytest.mark.parametrize("fields", [
        {"sigma2": -1.0}, {"sigma2": np.nan}, {"intensity": np.nan}, {"intensity": np.inf},
        {"size_law": "gamma", "rate": 0.0}, {"size_law": "gamma", "shape": 0.0},
        {"mean": np.nan}, {"scale": np.inf},
    ], ids=["sigma2-negative", "sigma2-nan", "intensity-nan", "intensity-inf",
            "rate-zero", "shape-zero", "mean-nan", "scale-inf"])
    def test_jump_rejects_bad_numbers(self, fields):
        with pytest.raises(ValueError):
            JumpSpec(**{"intensity": 10.0, **fields})

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf])
    def test_spike_rejects_nonfinite_variance(self, sigma2):
        with pytest.raises(ValueError):
            SpikeSpec(prob=0.1, sigma2=sigma2)

    @pytest.mark.parametrize("fields", [
        {"T": np.nan}, {"T": np.inf}, {"y0": np.nan},
    ], ids=["T-nan", "T-inf", "y0-nan"])
    def test_scenario_rejects_nonfinite_numbers(self, fields):
        with pytest.raises(ValueError):
            Scenario(model=DgpModel(name="exp-linear-3", theta0=(0.0, 0.0, 0.0)), n=10,
                     **fields)

    def test_dgp_model_rejects_nonfinite_theta0(self):
        with pytest.raises(ValueError, match="finite"):
            DgpModel(name="rational-diffusion", theta0=(2.0, np.nan))

    @pytest.mark.parametrize("name, theta0", [
        ("rational-diffusion", (-2.0, 3.0)), ("rational-diffusion", (2.0, 10.5)),
        ("exp-linear-3", (40.0, 0.0, 0.0)), ("const-levy", (-5.5,)),
    ])
    def test_dgp_model_rejects_theta0_outside_the_box(self, name, theta0):
        # a negative rational theta gave sigma = -sqrt(S) in the Euler step,
        # and an exp-linear-3 theta0 of (40, 0, 0) simulated |Y| up to 1e8
        box = make_builtin(name).box
        said = (f"model {name!r}: theta0 {list(theta0)} lies outside its box, "
                f"lower {box.lower.tolist()}, upper {box.upper.tolist()}")
        with pytest.raises(ValueError, match=f"^{re.escape(said)}$"):
            DgpModel(name=name, theta0=theta0)

    def test_dgp_model_accepts_theta0_on_the_box_boundary(self):
        model = DgpModel(name="rational-diffusion", theta0=(0.01, 10.0),
                         drift=DriftKind.RESPONSE)
        path = simulate(Scenario(model=model, n=100, seed=2)).observed
        assert np.isfinite(path.responses).all()

    @pytest.mark.parametrize("record, field", [
        (JumpSpec, "intensity"), (JumpSpec, "mean"), (JumpSpec, "sigma2"), (JumpSpec, "shape"),
        (JumpSpec, "rate"), (JumpSpec, "scale"), (SpikeSpec, "prob"), (SpikeSpec, "sigma2"),
        (Scenario, "T"), (Scenario, "y0"),
    ], ids=lambda v: v if isinstance(v, str) else v.__name__)
    @pytest.mark.parametrize("value", [True, np.bool_(False), "5", None, [1.0]],
                             ids=["bool", "numpy-bool", "text", "none", "list"])
    def test_number_fields_reject_bools_and_non_numbers(self, record, field, value):
        # a bool used to load as 0 or 1 (and be saved back as a bool); a string
        # failed inside numpy, naming no field
        base = {JumpSpec: {"intensity": 10.0}, SpikeSpec: {"prob": 0.1},
                Scenario: {"model": DgpModel(name="exp-linear-3", theta0=(0.0, 0.0, 0.0)),
                           "n": 10}}[record]
        said = f"{record.__name__}.{field} must be a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(said)}$"):
            record(**{**base, field: value})

    @pytest.mark.parametrize("value", [True, "2"], ids=["bool", "text"])
    def test_theta0_entries_must_be_numbers(self, value):
        with pytest.raises(ValueError, match=f"^theta0 entry must be a number, got {value!r}$"):
            DgpModel(name="rational-diffusion", theta0=(value, 3.0))

    def test_number_fields_are_stored_as_floats(self):
        jump = JumpSpec(intensity=5, mean=np.int64(0), sigma2=np.float32(3.0), shape=1, rate=2,
                        scale=1)
        spike = SpikeSpec(prob=0, sigma2=2)
        assert jump == JumpSpec(intensity=5.0, mean=0.0, sigma2=3.0, shape=1.0, rate=2.0,
                                scale=1.0)
        assert spike == SpikeSpec(prob=0.0, sigma2=2.0)
        values = [getattr(jump, f) for f in ("intensity", "mean", "sigma2", "shape", "rate",
                                             "scale")] + [spike.prob, spike.sigma2]
        assert {type(v) for v in values} == {float}
