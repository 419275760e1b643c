import csv
import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from oracles import objective

from rvolest import EstimationResult, ObservationPath, RobustConfig, make_builtin
import rvolest.cli as cli_mod
import rvolest.clustering as clustering_mod
from rvolest.cli import main, read_path_csv
from rvolest.clustering import kmeans


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulateCommand:
    def test_writes_path_and_truth(self, tmp_path):
        out = tmp_path / "o"
        assert run(["simulate", "--preset", "sec6-1-spike", "--n", "500",
                    "--seed", "7", "--out", out]) == 0
        rows = read_rows(out / "path.csv")
        assert rows[0] == ["j", "t", "X_1", "X_2", "X_3", "Y_1"]
        assert len(rows) == 1 + 501
        truth = read_rows(out / "truth.csv")
        kinds = {row[0] for row in truth[1:]}
        assert kinds <= {"jump_time", "spike_index"}

    def test_clean_preset_truth_has_no_jumps(self, tmp_path):
        out = tmp_path / "o"
        assert run(["simulate", "--preset", "sec6-1-clean", "--n", "100",
                    "--seed", "3", "--out", out]) == 0
        truth = read_rows(out / "truth.csv")
        assert all(row[0] != "jump_time" for row in truth[1:])

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--preset", "sec6-2-jump-normal", "--n", "300",
                        "--seed", "11", "--out", out]) == 0
        assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()
        assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()

    def test_unknown_preset_is_input_error(self, tmp_path):
        assert run(["simulate", "--preset", "bogus", "--out", tmp_path]) == 2

    def test_preset_contamination_overrides(self, tmp_path):
        out = tmp_path / "o"
        assert run(["simulate", "--preset", "sec6-1-spike", "--n", "400",
                    "--seed", "3", "--spike-prob", "0.05", "--spike-sigma2", "3.0",
                    "--out", out]) == 0
        blob = json.loads((out / "scenario.json").read_text())
        assert blob["spike"] == {"prob": 0.05, "sigma2": 3.0}
        truth = read_rows(out / "truth.csv")
        spikes = [r for r in truth[1:] if r[0] == "spike_index"]
        assert len(spikes) > 5  # ~20 expected at p=0.05

    def test_jump_factor_override(self, tmp_path):
        out = tmp_path / "o"
        assert run(["simulate", "--preset", "sec6-2-jump-normal", "--n", "400",
                    "--seed", "3", "--jump-factor", "0.05", "--out", out]) == 0
        blob = json.loads((out / "scenario.json").read_text())
        assert blob["jump"]["intensity"] == pytest.approx(20.0)

    def test_config_file(self, tmp_path):
        cfg = {
            "model": {"name": "exp-linear-3", "theta0": [-2.0, 3.0, 0.0]},
            "n": 64, "seed": 1,
        }
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run(["simulate", "--config", cfg_file, "--out", out]) == 0
        assert len(read_rows(out / "path.csv")) == 66

    @pytest.mark.parametrize("fields, said", [
        ({"model": {"name": "nope", "theta0": [1.0]}}, "unknown model 'nope'"),
        ({"model": {"name": "rational-diffusion", "theta0": [2.0]}}, "needs 2 theta0 entries"),
        ({"n": 50.9, "seed": 2.7}, "n must be an integer >= 1, got 50.9"),
        ({"model": {"name": "rational-diffusion", "theta0": [-2, 3]}, "n": 300, "seed": 2},
         "theta0 [-2.0, 3.0] lies outside its box, lower [0.01, 0.01], upper [10.0, 10.0]"),
    ], ids=["unknown-model", "theta0-length", "fractional-n", "theta0-outside-box"])
    def test_bad_config_model_is_input_error(self, fields, said, tmp_path, capsys):
        # a fractional count used to be truncated, and the run exited 0
        cfg = {"model": {"name": "exp-linear-3", "theta0": [-2, 3, 0]}, "n": 64, **fields}
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", cfg_file, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario config") and said in err
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("covariate", "self-response"),  # the design key of older scenario files
        ("spikes", {"prob": 0.5}),       # a typo of "spike"
    ])
    def test_unknown_config_key_exits_2_with_one_line(self, key, value, tmp_path, capsys):
        cfg = {"model": {"name": "exp-linear-3", "theta0": [-2, 3, 0]}, "n": 50, key: value}
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", cfg_file, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario config: unknown scenario key")
        assert f"'{key}'" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset, flag, value", [
        ("sec6-1-clean", "--spike-prob", "0.5"),
        ("sec6-1-clean", "--jump-factor", "0.3"),
        ("sec6-5-jumpdiff", "--spike-sigma2", "2"),
        ("sec6-1-spike", "--jump-factor", "0.3"),
    ])
    def test_contamination_flag_the_preset_lacks_exits_2(self, preset, flag, value,
                                                          tmp_path, capsys):
        assert run(["simulate", "--preset", preset, "--n", "100", flag, value,
                    "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} does not apply") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n", "999"), ("--spike-prob", "0.5"), ("--spike-sigma2", "2"),
        ("--jump-factor", "0.3"),
    ])
    def test_preset_flag_with_config_exits_2(self, flag, value, tmp_path, capsys):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps({"model": {"name": "exp-linear-3",
                                                  "theta0": [-2, 3, 0]}, "n": 50}))
        assert run(["simulate", "--config", cfg_file, flag, value,
                    "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} applies to presets only") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_malformed_config(self, tmp_path):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text("{not json")
        assert run(["simulate", "--config", cfg_file, "--out", tmp_path]) == 2

    def test_preset_beside_config_exits_2(self, tmp_path, capsys):
        # the config would win and the preset be ignored
        assert run(["simulate", "--preset", "sec6-1-clean", "--n", "50",
                    "--out", tmp_path / "a"]) == 0
        out = tmp_path / "o"
        assert run(["simulate", "--config", tmp_path / "a" / "scenario.json",
                    "--preset", "sec6-1-spike", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --preset cannot be combined with --config")
        assert err.count("\n") == 1 and not out.exists()

    def test_out_that_is_a_file_exits_2_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["simulate", "--preset", "sec6-1-clean", "--n", "50",
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    def test_spike_preset_files_keep_their_bits(self, tmp_path):
        # sha256 of path.csv, truth.csv and scenario.json as the hand-written
        # csv.writer loops wrote them: the shared row writer must keep every byte
        out = tmp_path / "o"
        assert run(["simulate", "--preset", "sec6-1-spike", "--n", "500",
                    "--seed", "7", "--out", out]) == 0
        digest = hashlib.sha256()
        for name in ("path.csv", "truth.csv", "scenario.json"):
            digest.update((out / name).read_bytes())
        assert digest.hexdigest() == (
            "1a9764aefd1cbb99d9dce9373bec15be839c9b302258716bda8a65c633478384")


class TestEstimateCommand:
    def test_roundtrip_objective(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert run(["simulate", "--preset", "sec6-1-clean", "--n", "400",
                    "--seed", "5", "--out", sim_out]) == 0
        est_out = tmp_path / "est"
        assert run(["estimate", "--path", sim_out / "path.csv",
                    "--model", "exp-linear-3", "--variant", "dp",
                    "--lambda", "0.5", "--out", est_out,
                    "--true-theta=-2,3,0"]) == 0
        blob = json.loads((est_out / "estimate.json").read_text())
        assert blob["converged"]
        theta = np.array(blob["theta_hat"])
        ci = np.array(blob["ci"])
        assert np.all(ci[:, 0] <= theta) and np.all(theta <= ci[:, 1])
        # reading the path back and re-evaluating reproduces the stored value
        path = read_path_csv(str(sim_out / "path.csv"))
        model = make_builtin("exp-linear-3")
        value = objective(path, model, theta, RobustConfig.density_power(0.5))
        assert value == pytest.approx(blob["objective_value"], abs=1e-10)
        assert "u_stat" in blob and blob["taper_diagnostic"] is not None

    @pytest.mark.parametrize("truth", [[], ["--true-theta=-2,3,0"]], ids=["no-truth", "truth"])
    def test_json_is_the_fit_record(self, truth, tmp_path):
        # the run's model, size and estimator, then every field of the fit
        # record but its config, in field order; u_stat is null without a truth
        out = tmp_path / "est"
        assert run(["estimate", *SPIKE, *truth, "--out", out]) == 0
        blob = json.loads((out / "estimate.json").read_text())
        record = [f.name for f in dataclasses.fields(EstimationResult) if f.name != "config"]
        assert list(blob) == ["model", "n", "T", "variant", "lambda", *record]
        assert list(blob)[5:] == [
            "theta_hat", "objective_value", "gamma_hat", "sigma_hat", "fisher_hat", "avar",
            "ci", "alpha", "converged", "iterations", "nfev", "projected_grad_norm",
            "boundary_active", "used_fallback", "negative_variance", "taper_diagnostic",
            "u_stat"]
        assert (blob["u_stat"] is None) == (not truth)

    def test_preset_shortcut(self, tmp_path):
        out = tmp_path / "est"
        assert run(["estimate", "--preset", "sec6-1-spike", "--n", "400",
                    "--seed", "2", "--variant", "holder", "--lambda", "0.5",
                    "--out", out]) == 0
        blob = json.loads((out / "estimate.json").read_text())
        assert blob["variant"] == "holder"
        assert isinstance(blob["nfev"], int) and blob["nfev"] >= blob["iterations"] >= 1
        assert abs(blob["theta_hat"][0] + 2.0) < 1.0

    def test_gqlf_inflated_by_jumps_on_jumpdiff(self, tmp_path):
        # jumps inflate the GQMLE far above the truth (2, 3); at full scale it
        # is driven to the box bound (covered by the acceptance suite)
        out = tmp_path / "est"
        assert run(["estimate", "--preset", "sec6-5-jumpdiff", "--n", "1500",
                    "--seed", "4", "--variant", "gqlf", "--out", out]) == 0
        blob = json.loads((out / "estimate.json").read_text())
        assert blob["converged"]
        assert blob["theta_hat"][0] > 5.0 and blob["theta_hat"][1] > 5.0

    def test_malformed_csv_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("j,t,X_1,Y_1\n0,0.0,1.0\n")  # short row
        out = tmp_path / "est"
        assert run(["estimate", "--path", bad, "--model", "exp-linear-3",
                    "--out", out]) == 2
        assert not (out / "estimate.json").exists()

    def test_non_numeric_field_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("j,t,X_1,Y_1\n0,0.0,oops,1.0\n1,1.0,1.0,1.0\n")
        assert run(["estimate", "--path", bad, "--model", "exp-linear-3",
                    "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "bad.csv:2" in err

    @pytest.mark.parametrize("column", ["t", "X_2", "Y_1"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_exits_2_naming_the_line(self, column, value, tmp_path, capsys):
        # float() parses these, and the fit would blame the model instead
        assert run(["simulate", "--preset", "sec6-1-spike", "--n", "50", "--seed", "1",
                    "--out", tmp_path]) == 0
        path = tmp_path / "path.csv"
        rows = read_rows(path)
        rows[10][rows[0].index(column)] = value  # observation j=9, file line 11
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(["estimate", "--path", path, "--model", "exp-linear-3",
                    "--out", tmp_path / "est"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:11: {column} is '{value}'")
        assert err.count("\n") == 1

    def test_unknown_model_is_input_error(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("j,t,Y_1\n0,0.0,0.0\n1,1.0,0.1\n")
        assert run(["estimate", "--path", p, "--model", "nope", "--out", tmp_path]) == 2

    def test_threads_flag_rejected(self, tmp_path):
        # only montecarlo and sweep-lambda run a worker pool
        with pytest.raises(SystemExit) as exc:
            run(["estimate", *SPIKE, "--threads", "2", "--out", tmp_path])
        assert exc.value.code == 2

    def test_path_requires_model(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("j,t,Y_1\n0,0.0,0.0\n1,1.0,0.1\n")
        assert run(["estimate", "--path", p, "--out", tmp_path]) == 2


class TestMonteCarloCommand:
    def test_smoke(self, tmp_path):
        out = tmp_path / "mc"
        assert run(["montecarlo", "--preset", "sec6-1-spike", "--n", "150",
                    "--reps", "10", "--variant", "gqlf,dp", "--lambda", "0.5",
                    "--seed", "1", "--out", out, "--threads", "1"]) == 0
        summary = read_rows(out / "summary.csv")
        assert len(summary) == 1 + 2 * 3
        raw = read_rows(out / "raw_theta.csv")
        assert len(raw) == 1 + 10 * 2
        assert (out / "raw_u.csv").exists()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        outs = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert run(["montecarlo", "--preset", "sec6-1-spike", "--n", "120",
                        "--reps", "6", "--variant", "dp", "--lambda", "0.3",
                        "--seed", "9", "--out", out, "--threads", threads]) == 0
            outs.append(out)
        for name in ("raw_theta.csv", "raw_u.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("flags, expected", [
        (["--preset", "sec6-5-jumpdiff", "--variant", "gqlf,dp", "--lambda", "0.1"],
         ("ee3185c4d92b443a9dc413c3b3b54a09f64a0e11dfb54ef25bc021ebc217ef61",
          "4bf5688e501f4b99b4dfa5ce3ac6496ca4816fc8ca84fb51edf63d13717d5915")),
        (["--preset", "sec6-1-spike", "--variant", "gqlf,dp,holder", "--lambda", "0.1,0.5"],
         ("1a0acf22823f57ac25fffa97775584209186d5789327eb04618b6e1e3bafb09e",
          "7bed623fa296b55782f4e7cc6f91cd29f5852a728fced9bb362215918302f038")),
    ], ids=["jumpdiff", "spike"])
    def test_raw_csvs_keep_their_bytes(self, flags, expected, tmp_path):
        # sha256 of raw_theta.csv and raw_u.csv of a serial run: a refactor of the
        # fit must reproduce every byte
        out = tmp_path / "mc"
        assert run(["montecarlo", *flags, "--n", "1000", "--seed", "1", "--reps", "4",
                    "--threads", "1", "--out", out]) == 0
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("raw_theta.csv", "raw_u.csv"))
        assert got == expected

    def test_env_var_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RVOLEST_THREADS", "2")
        out = tmp_path / "mc"
        assert run(["montecarlo", "--preset", "sec6-1-clean", "--n", "100",
                    "--reps", "4", "--variant", "gqlf", "--lambda", "0.5",
                    "--seed", "1", "--out", out]) == 0

    def test_bad_variant(self, tmp_path):
        assert run(["montecarlo", "--preset", "sec6-1-clean", "--n", "100",
                    "--reps", "2", "--variant", "nope", "--out", tmp_path]) == 2

    @pytest.mark.parametrize("flag, env", [(["--threads", "0"], None), ([], "-3")],
                             ids=["flag-zero", "env-negative"])
    def test_thread_count_below_one_exits_2(self, flag, env, tmp_path, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("RVOLEST_THREADS", env)
        out = tmp_path / "mc"
        assert run(["montecarlo", "--preset", "sec6-1-clean", "--n", "100", "--reps", "2",
                    "--variant", "gqlf", *flag, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "thread" in err and err.count("\n") == 1
        assert not out.exists()


class TestSweepLambdaCommand:
    def test_rows(self, tmp_path):
        out = tmp_path / "sw"
        assert run(["sweep-lambda", "--preset", "sec6-1-clean", "--n", "120",
                    "--reps", "4", "--variant", "dp", "--lambda", "0.2,0.4",
                    "--seed", "3", "--out", out]) == 0
        rows = read_rows(out / "lambda_sweep.csv")
        assert rows[0] == ["lambda", "coord", "mean", "sd"]
        assert len(rows) == 1 + 2 * 3

    def test_rejects_gqlf(self, tmp_path):
        assert run(["sweep-lambda", "--preset", "sec6-1-clean",
                    "--variant", "gqlf", "--out", tmp_path]) == 2


class TestClusterCommand:
    def test_fixed_k(self, tmp_path):
        out = tmp_path / "cl"
        assert run(["cluster", "--preset", "sec6-1-spike", "--n", "800",
                    "--seed", "6", "--variant", "dp", "--lambda", "0.5",
                    "--k", "4", "--merge", "spike-pair", "--out", out]) == 0
        rows = read_rows(out / "clusters.csv")
        assert rows[0] == ["j", "t_j", "eps_hat", "label", "in_D"]
        assert len(rows) == 1 + 800
        flagged = sum(int(r[4]) for r in rows[1:])
        assert flagged >= 1

    def test_k_scan_writes_sweep(self, tmp_path):
        out = tmp_path / "cl"
        assert run(["cluster", "--preset", "sec6-1-spike", "--n", "600",
                    "--seed", "8", "--k-range", "2:6", "--out", out]) == 0
        rows = read_rows(out / "k_sweep.csv")
        assert rows[0] == ["K", "size_D", "log_size_D"]
        assert [int(r[0]) for r in rows[1:]] == [2, 3, 4, 5, 6]

    @pytest.mark.parametrize("flags, expected", [
        (["--k-range", "2:10"],
         {"clusters.csv": "8a320c39d1444aef830bbdd89e29ee5170d2ff897e502f18bb7d6eab271e90a2",
          "k_sweep.csv": "71aafdf71cc91794de11e8e1f3c6aab6a079c3fd0062ca8793155edfe9d1a38b"}),
        (["--k", "3"],
         {"clusters.csv": "8a320c39d1444aef830bbdd89e29ee5170d2ff897e502f18bb7d6eab271e90a2"}),
    ], ids=["scan", "fixed-k"])
    def test_files_keep_their_bytes(self, flags, expected, tmp_path, capsys):
        # sha256 of the written files; the scan suggests K=3 on this path, so a
        # fixed --k 3 must write the scan's clusters.csv
        out = tmp_path / "cl"
        assert run(["cluster", "--preset", "sec6-1-spike", "--n", "1000", "--seed", "1",
                    *flags, "--out", out]) == 0
        assert capsys.readouterr().out.startswith("K=3: ")
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.iterdir())}
        assert got == expected

    @pytest.mark.parametrize("flags, calls", [(["--k-range", "2:10"], 9), (["--k", "3"], 1)],
                             ids=["scan", "fixed-k"])
    def test_one_kmeans_per_k(self, flags, calls, tmp_path, monkeypatch):
        # the scan hands back its partition at the suggested K instead of
        # fitting that K again
        ks = []

        def counted(values, k, seed=0):
            ks.append(k)
            return kmeans(values, k, seed)

        monkeypatch.setattr(clustering_mod, "kmeans", counted)
        monkeypatch.setattr(cli_mod, "kmeans", counted)
        assert run(["cluster", "--preset", "sec6-1-spike", "--n", "1000", "--seed", "1",
                    *flags, "--out", tmp_path / "cl"]) == 0
        assert len(ks) == calls and len(set(ks)) == calls

    def test_bad_k_range(self, tmp_path):
        assert run(["cluster", "--preset", "sec6-1-spike", "--n", "100",
                    "--k-range", "abc", "--out", tmp_path]) == 2

    def test_k_beside_k_range_exits_2(self, tmp_path, capsys):
        # a fixed K would leave the scan range unread
        out = tmp_path / "cl"
        assert run(["cluster", "--preset", "sec6-1-spike", "--n", "300", "--seed", "2",
                    "--k", "3", "--k-range", "abc", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --k-range cannot be combined with --k")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("k_range, said", [
        ("5:3", "error: k_range is empty"),
        ("1:4", "error: k_range must contain integers >= 2"),
    ])
    def test_unusable_k_range_exits_2_before_the_fit(self, k_range, said, tmp_path,
                                                     capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran before the K range was checked")

        monkeypatch.setattr(cli_mod, "estimate", no_fit)
        out = tmp_path / "cl"
        assert run(["cluster", "--preset", "sec6-1-spike", "--n", "200",
                    "--k-range", k_range, "--out", out]) == 2
        assert capsys.readouterr().err == said + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, said", [
        (["--k", "1"], "error: --k must be at least 2, got 1"),
        (["--kmeans-seed", "-1"], "error: --kmeans-seed must be non-negative, got -1"),
    ])
    def test_unusable_k_or_seed_exits_2_before_the_simulation(self, flags, said, tmp_path,
                                                              capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the path was simulated or fitted before the flags were checked")

        monkeypatch.setattr(cli_mod, "simulate", no_run)
        monkeypatch.setattr(cli_mod, "estimate", no_run)
        out = tmp_path / "cl"
        assert run(["cluster", "--preset", "sec6-1-spike", "--n", "200",
                    *flags, "--out", out]) == 2
        assert capsys.readouterr().err == said + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset, seed, abrupt", [
        ("sec6-1-clean", "3", False), ("sec6-1-spike", "8", True),
    ])
    def test_scan_says_when_it_found_no_abrupt_change(self, preset, seed, abrupt,
                                                       tmp_path, capsys):
        assert run(["cluster", "--preset", preset, "--n", "400", "--seed", seed,
                    "--out", tmp_path]) == 0
        said = "no abrupt change in |D| over K=2:10; fell back to the top of the range, K=10"
        assert (said in capsys.readouterr().out) is not abrupt


SPIKE = ["--preset", "sec6-1-spike", "--n", "200", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    ["estimate", *SPIKE, "--lambda", "5"],
    ["estimate", *SPIKE, "--lambda", "abc"],
    ["estimate", *SPIKE, "--init", "1,2"],
    ["estimate", *SPIKE, "--true-theta", "1,2"],
    ["montecarlo", *SPIKE, "--reps", "2", "--lambda", "3"],
    ["montecarlo", *SPIKE, "--reps", "0"],
    ["cluster", *SPIKE, "--k", "1"],
    ["estimate", *SPIKE, "--alpha", "0"],
    ["estimate", *SPIKE, "--alpha", "1.5"],
    ["montecarlo", *SPIKE, "--reps", "2", "--alpha", "2"],
    ["estimate", *SPIKE, "--lambda", "0.1,0.5"],
    ["estimate", *SPIKE, "--tol", "-1"],
    ["estimate", *SPIKE, "--max-iters", "0"],
], ids=["lambda-range", "lambda-text", "init-length", "true-theta-length",
        "mc-lambda-range", "mc-zero-reps", "cluster-k1", "alpha-zero", "alpha-above-one",
        "mc-alpha", "lambda-list", "tol-negative", "max-iters-zero"])
def test_bad_argument_exits_2_with_one_line(argv, tmp_path, capsys):
    assert run([*argv, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_merge_mode_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run(["cluster", *SPIKE, "--merge", "bogus", "--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--merge" in err and "spike-pair" in err and "off" in err
    assert not out.exists()


JUMPDIFF = ["--preset", "sec6-5-jumpdiff", "--n", "300"]
UNKNOWN_VARIANT = "--variant has an unknown or empty item 'bogus' (gqlf, dp, holder)\n"


@pytest.mark.parametrize("argv, said", [
    (["estimate", *JUMPDIFF, "--init", "nan,5"], "initial must be finite"),
    (["estimate", *JUMPDIFF, "--init", "5,-inf"], "initial must be finite"),
    (["estimate", *JUMPDIFF, "--true-theta", "nan,3"], "theta0 must be 2 finite numbers"),
    (["estimate", *JUMPDIFF, "--init", "5,,5"], "--init "),
    (["estimate", *JUMPDIFF, "--true-theta", "2,3,"], "--true-theta "),
    (["montecarlo", *JUMPDIFF, "--reps", "2", "--lambda", "0.1,,0.5"], "--lambda "),
    (["montecarlo", *JUMPDIFF, "--reps", "2", "--variant", "gqlf,,dp"], "--variant "),
    (["estimate", *JUMPDIFF, "--variant", "bogus"], UNKNOWN_VARIANT),
    (["montecarlo", *JUMPDIFF, "--reps", "2", "--variant", "dp,bogus"], UNKNOWN_VARIANT),
], ids=["init-nan", "init-inf", "true-theta-nan", "init-empty-item",
        "true-theta-trailing-comma", "mc-lambda-empty-item", "mc-variant-empty-item",
        "variant-unknown", "mc-variant-unknown"])
def test_non_finite_or_empty_item_exits_2_naming_it(argv, said, tmp_path, capsys):
    # a NaN start used to fail as "matrix not SPD" (exit 1), a NaN truth wrote
    # NaN statistics (exit 0), and an empty list item was dropped (exit 0)
    out = tmp_path / "o"
    assert run([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {said}") and err.count("\n") == 1
    assert not out.exists()


PATH_CSV = "j,t,Y_1\n0,0.0,0.0\n1,0.5,0.1\n2,1.0,0.3\n"


@pytest.mark.parametrize("command", ["estimate", "cluster"])
@pytest.mark.parametrize("flag, value", [
    ("--preset", "nope"), ("--config", "scenario.json"), ("--seed", "99"), ("--n", "7"),
    ("--spike-prob", "0.3"), ("--spike-sigma2", "2"), ("--jump-factor", "0.3"),
])
def test_scenario_flag_beside_path_exits_2(command, flag, value, tmp_path, capsys):
    # the file is the data: a scenario flag next to it would be ignored
    path = tmp_path / "x.csv"
    path.write_text(PATH_CSV)
    out = tmp_path / "o"
    assert run([command, "--path", path, "--model", "const-levy", flag, value,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} cannot be combined with --path")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "missing.json"],
    ["estimate", "--path", "missing.csv", "--model", "const-levy"],
], ids=["config", "path"])
def test_unreadable_input_exits_2_with_one_line(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--out", "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing." in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["estimate", "cluster"])
@pytest.mark.parametrize("flag, value", [("--model", "rational-diffusion"), ("--T", "7")])
def test_path_flag_without_path_exits_2(command, flag, value, tmp_path, capsys):
    # a scenario sets its own model and horizon
    out = tmp_path / "o"
    assert run([command, *SPIKE, flag, value, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} can only be combined with --path")
    assert err.count("\n") == 1 and not out.exists()


def test_import_does_not_load_scipy_stats():
    # importing scipy.stats slows every cold start; the library needs only
    # scipy.special.ndtri for its normal quantile
    code = "import sys, rvolest; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_import_does_not_load_the_optimizer():
    # scipy.optimize and scipy.special cost most of a cold start; the library
    # imports them where a fit or an interval needs them
    code = ("import sys, rvolest; "
            "print([m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("record, field, value", [
    ("jump", "intensity", True), ("jump", "intensity", "5"), ("jump", "sigma2", None),
    ("spike", "prob", True), ("spike", "sigma2", "1"), (None, "T", True), (None, "y0", "0"),
], ids=["jump-bool", "jump-text", "jump-null", "spike-bool", "spike-text", "T-bool", "y0-text"])
def test_config_number_that_is_not_a_number_exits_2(record, field, value, tmp_path, capsys):
    # "intensity": true used to load as 1 and be written back as true, and
    # "intensity": "5" failed inside numpy without naming the field
    cfg = {"model": {"name": "exp-linear-3", "theta0": [-2, 3, 0]}, "n": 50,
           "jump": {"intensity": 5.0}, "spike": {"prob": 0.1}}
    (cfg if record is None else cfg[record])[field] = value
    cfg_file = tmp_path / "scenario.json"
    cfg_file.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", cfg_file, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario config: ")
    assert f".{field} must be a number, got {value!r}" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cfg, said", [
    ({"model": {"name": "exp-linear-3", "theta0": [-2, 3, 0]}, "n": 50, "jump": 5},
     "jump must be a JSON object, got 5"),
    ({"model": {"name": "exp-linear-3", "theta0": [-2, 3, 0]}, "n": 50, "spike": [0.1]},
     "spike must be a JSON object, got [0.1]"),
    ({"model": "exp-linear-3", "n": 50}, "model must be a JSON object, got 'exp-linear-3'"),
    ([1, 2], "scenario must be a JSON object, got [1, 2]"),
], ids=["jump-number", "spike-list", "model-string", "scenario-list"])
def test_config_record_that_is_not_an_object_exits_2(cfg, said, tmp_path, capsys):
    # such a record used to fail with "'int' object is not iterable"
    cfg_file = tmp_path / "scenario.json"
    cfg_file.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", cfg_file, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: invalid scenario config: {said}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["estimate", "cluster"])
@pytest.mark.parametrize("model, x_cols, y_cols, said", [
    ("exp-linear-3", 3, 2, "path has 2 response columns, model 'exp-linear-3' has d = 1"),
    ("const-levy", 3, 2, "path has 2 response columns, model 'const-levy' has d = 1"),
    ("rational-diffusion", 3, 2,
     "path has 2 response columns, model 'rational-diffusion' has d = 1"),
    ("exp-linear-3", 1, 1, "model 'exp-linear-3' reads 3 covariate columns, path has 1"),
    ("exp-linear-3", 4, 1, "model 'exp-linear-3' reads 3 covariate columns, path has 4"),
    ("const-levy", 3, 1, "model 'const-levy' reads 1 covariate columns, path has 3"),
], ids=["two-responses", "two-responses-const", "two-responses-self", "one-covariate",
        "four-covariates", "three-covariates-const"])
def test_path_that_does_not_fit_the_model_exits_2(command, model, x_cols, y_cols, said,
                                                    tmp_path, capsys):
    # a second response column used to be ignored, and the fit reported converged
    n = 200
    times = np.arange(n + 1) / n
    rng = np.random.default_rng(3)
    file = tmp_path / "path.csv"
    cli_mod.write_path_csv(ObservationPath(
        n=n, T=1.0, times=times,
        covariates=np.cos(np.outer(times, np.arange(1, x_cols + 1))),
        responses=np.cumsum(rng.normal(0.0, np.sqrt(1.0 / n), (n + 1, y_cols)), axis=0),
    ), file)
    out = tmp_path / "o"
    k = ["--k", "3"] if command == "cluster" else []
    assert run([command, "--path", file, "--model", model, *k, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {said}\n"
    assert not out.exists()
