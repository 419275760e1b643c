"""Command-line front end: simulate / estimate / montecarlo / sweep-lambda / cluster.

Every command is deterministic for a fixed --seed: raw CSV outputs are
byte-identical across runs and worker counts.  Exit codes: 0 success,
1 estimator failure, 2 input error (a bad value, an unreadable file, an --out
that cannot be written, or a flag that cannot apply beside another), reported
on one `error:` line.  Cross-flag rules are checks on the parsed flags, not
argparse groups.  RVOLEST_THREADS is the fallback for --threads.

No list is written here twice: estimate.json holds every field of
`EstimationResult` but its config, --variant and --merge take the values of
`Variant` and `MergeMode`, and --preset the names of `simulator.PRESET_NAMES`."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .clustering import (
    MergeMode, _check_k_range, kmeans, merge_consecutive, residuals, suggest_k,
)
from .estimator import OptimizerOptions, estimate
from .exceptions import RvolestError
from .likelihood import ObservationPath, RobustConfig, Variant
from .model import make_builtin
from .montecarlo import (
    ExperimentPlan,
    format_cell,
    run_plan,
    write_lambda_sweep_csv,
    write_raw_theta_csv,
    write_raw_u_csv,
    write_rows,
    write_summary_csv,
)
from .simulator import (
    PRESET_NAMES,
    Scenario,
    get_preset,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
)


def _resolve_threads(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("RVOLEST_THREADS")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"RVOLEST_THREADS is not an integer: {env!r}") from exc
    return 1


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]  # an empty item is an error
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


# Preset-only flags: argparse dest -> (get_preset keyword, the Scenario field
# that the preset must set for the flag to apply, or None).
_PRESET_FLAGS = {"n": ("n", None), "spike_prob": ("spike_prob", "spike"),
                 "spike_sigma2": ("spike_sigma2", "spike"),
                 "jump_factor": ("jump_rate_factor", "jump")}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _load_scenario(args) -> Scenario:
    given = {dest: getattr(args, dest) for dest in _PRESET_FLAGS
             if getattr(args, dest) is not None}
    if args.config:
        if args.preset is not None:
            raise ValueError("--preset cannot be combined with --config")
        if given:
            raise ValueError(f"{_flag(next(iter(given)))} applies to presets only; "
                             f"set it in the config file {args.config}")
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"config {args.config} is not valid JSON "
                    f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
                ) from exc
        scenario = scenario_from_dict(data)
    elif args.preset:
        scenario = get_preset(args.preset,
                              **{_PRESET_FLAGS[dest][0]: v for dest, v in given.items()})
        for dest in given:
            field = _PRESET_FLAGS[dest][1]
            if field is not None and getattr(scenario, field) is None:
                raise ValueError(f"{_flag(dest)} does not apply: preset {args.preset!r} "
                                 f"has no {field} contamination")
    else:
        raise ValueError("provide --preset or --config")
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    return scenario


def _make_configs(variants: str, lambdas: str) -> list[RobustConfig]:
    configs: list[RobustConfig] = []
    lam_values = _parse_float_list(lambdas, "--lambda")
    for name in [v.strip() for v in variants.split(",")]:
        try:
            variant = Variant(name)
        except ValueError:
            raise ValueError(f"--variant has an unknown or empty item {name!r} "
                             f"({', '.join(v.value for v in Variant)})") from None
        configs.extend([RobustConfig(variant)] if variant is Variant.GQLF
                       else (RobustConfig(variant, lam) for lam in lam_values))
    return configs


def _single_config(args) -> RobustConfig:
    configs = _make_configs(args.variant, args.lam)
    if len(configs) != 1:
        raise ValueError(
            f"--variant {args.variant!r} with --lambda {args.lam!r} gives "
            f"{len(configs)} estimators; this command fits exactly one"
        )
    return configs[0]


def write_path_csv(path: ObservationPath, filename: str) -> None:
    cov_dim = 0 if path.covariates is None else path.covariates.shape[1]
    header = (
        ["j", "t"]
        + [f"X_{i+1}" for i in range(cov_dim)]
        + [f"Y_{i+1}" for i in range(path.d)]
    )
    write_rows(filename, header, (
        [j, path.times[j], *(path.covariates[j] if cov_dim else ()), *path.responses[j]]
        for j in range(path.n + 1)
    ))


def read_path_csv(filename: str, T: float | None = None) -> ObservationPath:
    """Parse a path.csv; raises ValueError with line/field diagnostics."""
    with open(filename, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{filename}: empty file") from None
        x_cols = [i for i, name in enumerate(header) if name.startswith("X_")]
        y_cols = [i for i, name in enumerate(header) if name.startswith("Y_")]
        if "t" not in header or not y_cols:
            raise ValueError(f"{filename}: header must contain 't' and 'Y_*' columns")
        t_col = header.index("t")
        times, xs, ys = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{filename}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values = {i: float(row[i]) for i in [t_col, *x_cols, *y_cols]}
            except ValueError as exc:
                raise ValueError(f"{filename}:{lineno}: {exc}") from None
            for i, v in values.items():
                if not math.isfinite(v):
                    raise ValueError(f"{filename}:{lineno}: {header[i]} is {row[i]!r}, "
                                     "not a finite number")
            times.append(values[t_col])
            xs.append([values[i] for i in x_cols])
            ys.append([values[i] for i in y_cols])
    if len(times) < 2:
        raise ValueError(f"{filename}: need at least two observations")
    n = len(times) - 1
    horizon = T if T is not None else times[-1]
    try:
        return ObservationPath(
            n=n,
            T=horizon,
            times=np.asarray(times),
            covariates=np.asarray(xs) if x_cols else None,
            responses=np.asarray(ys),
        )
    except ValueError as exc:
        raise ValueError(f"{filename}: {exc}") from exc


def write_truth_csv(bundle, filename: str) -> None:
    write_rows(filename, ["kind", "value"],
               [*(["jump_time", t] for t in bundle.jump_times),
                *(["spike_index", int(j)] for j in bundle.spike_indices)])


def _result_to_dict(res, model_name: str, n: int, T: float) -> dict:
    """The run's model, size and estimator, then the fit record's fields but config."""
    variant = res.config.variant
    out = {"model": model_name, "n": n, "T": T, "variant": variant.value,
           "lambda": None if variant is Variant.GQLF else res.config.lam}
    out.update((f.name, getattr(res, f.name)) for f in fields(res) if f.name != "config")
    return out


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    bundle = simulate(scenario)
    os.makedirs(args.out, exist_ok=True)
    write_path_csv(bundle.observed, os.path.join(args.out, "path.csv"))
    write_truth_csv(bundle, os.path.join(args.out, "truth.csv"))
    with open(os.path.join(args.out, "scenario.json"), "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}/path.csv ({scenario.n + 1} rows)")
    return 0


def _given_flags(args, dests) -> str:
    return ", ".join(_flag(dest) for dest in dests if getattr(args, dest) is not None)


def _estimation_inputs(args):
    """(path, model, model_name) from --path/--model or a scenario; the flags
    of the other source exit 2 instead of being ignored."""
    if args.path:
        given = _given_flags(args, ["preset", "config", "seed", *_PRESET_FLAGS])
        if given:
            raise ValueError(f"{given} cannot be combined with --path")
        if not args.model:
            raise ValueError("--path requires --model")
        model = make_builtin(args.model)
        path = read_path_csv(args.path, T=args.T)
        return path, model, args.model
    given = _given_flags(args, ["model", "T"])
    if given:
        raise ValueError(f"{given} can only be combined with --path; "
                         "a scenario sets its own model and horizon")
    scenario = _load_scenario(args)
    bundle = simulate(scenario)
    model = make_builtin(scenario.model.name)
    return bundle.observed, model, scenario.model.name


def cmd_estimate(args) -> int:
    path, model, model_name = _estimation_inputs(args)
    config = _single_config(args)
    opts = OptimizerOptions(
        initial=np.asarray(_parse_float_list(args.init, "--init")) if args.init else None,
        tol=args.tol,
        max_iters=args.max_iters,
    )
    theta0 = (
        np.asarray(_parse_float_list(args.true_theta, "--true-theta"))
        if args.true_theta
        else None
    )
    res = estimate(path, model, config, opts, alpha=args.alpha, theta0=theta0)
    os.makedirs(args.out, exist_ok=True)
    out_file = os.path.join(args.out, "estimate.json")
    with open(out_file, "w") as fh:
        json.dump(_result_to_dict(res, model_name, path.n, path.T), fh, indent=2,
                  default=lambda value: value.tolist())  # arrays and numpy scalars
        fh.write("\n")
    theta_txt = ", ".join(format_cell(v) for v in res.theta_hat)
    print(f"theta_hat = [{theta_txt}] (converged={res.converged}); wrote {out_file}")
    return 0


def cmd_montecarlo(args) -> int:
    """montecarlo and sweep-lambda: run one plan and write the command's tables."""
    if args.command == "sweep-lambda" and args.variant not in ("dp", "holder"):
        raise ValueError("sweep-lambda supports --variant dp or holder")
    configs = _make_configs(args.variant, args.lam)
    plan = ExperimentPlan(
        scenario=_load_scenario(args),
        estimators=tuple(configs),
        replications=args.reps,
        alpha=args.alpha,
        threads=_resolve_threads(args.threads),
    )
    table = run_plan(plan)
    os.makedirs(args.out, exist_ok=True)
    for name, write in args.tables.items():
        write(table, os.path.join(args.out, name))
    print(f"ran {plan.replications} replications x {len(configs)} estimators; "
          f"wrote {', '.join(args.tables)} in {args.out}")
    return 0


def cmd_cluster(args) -> int:
    if args.k is not None and args.k_range is not None:
        raise ValueError("--k-range cannot be combined with --k")
    k_range = "2:10" if args.k_range is None else args.k_range
    lo, _, hi = k_range.partition(":")
    try:
        ks = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise ValueError(f"--k-range expects LO:HI, got {k_range!r}") from exc
    _check_k_range(ks)
    if args.k is not None and args.k < 2:
        raise ValueError(f"--k must be at least 2, got {args.k}")
    if args.kmeans_seed < 0:
        raise ValueError(f"--kmeans-seed must be non-negative, got {args.kmeans_seed}")
    path, model, _ = _estimation_inputs(args)
    config = _single_config(args)
    res = estimate(path, model, config)
    eps_hat = residuals(path, model, res.theta_hat)

    if args.k is None:
        sweep = suggest_k(eps_hat, ks, seed=args.kmeans_seed)
        part = sweep.partition
        if not sweep.abrupt_found:
            print(f"no abrupt change in |D| over K={k_range}; "
                  f"fell back to the top of the range, K={part.k}")
    else:
        sweep, part = None, kmeans(eps_hat, args.k, seed=args.kmeans_seed)
    part = merge_consecutive(part, MergeMode(args.merge))

    os.makedirs(args.out, exist_ok=True)
    write_rows(os.path.join(args.out, "clusters.csv"), ["j", "t_j", "eps_hat", "label", "in_D"],
               ([j + 1, path.times[j + 1], eps_hat[j], int(part.labels[j]), int(part.in_d[j])]
                for j in range(path.n)))
    if sweep is not None:
        write_rows(os.path.join(args.out, "k_sweep.csv"), ["K", "size_D", "log_size_D"],
                   ([k, size, np.log(max(size, 1))] for k, size in zip(sweep.ks, sweep.d_sizes)))
    flagged = int(part.in_d.sum())
    print(f"K={part.k}: flagged {flagged} of {path.n} increments; "
          f"wrote clusters.csv in {args.out}")
    return 0


# help, --variant and --lambda defaults, and tables written (name -> writer)
_PLAN_COMMANDS = {
    "montecarlo": ("replicate simulate+estimate, emit summary tables",
                   "gqlf,dp,holder", "0.1,0.5,0.9",
                   {"summary.csv": write_summary_csv, "raw_theta.csv": write_raw_theta_csv,
                    "raw_u.csv": write_raw_u_csv}),
    "sweep-lambda": ("mean/sd of a robust estimator across a lambda grid",
                     "dp", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                     {"lambda_sweep.csv": write_lambda_sweep_csv,
                      "summary.csv": write_summary_csv}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvolest",
        description="Robust quasi-likelihood estimation of diffusion "
                    "coefficients from contaminated high-frequency data.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="scenario seed override")
    common.add_argument("--out", default="rvolest-out", help="output directory")
    common.add_argument("--preset", help=f"one of: {', '.join(PRESET_NAMES)}")
    common.add_argument("--config", help="scenario JSON file")
    common.add_argument("--n", type=int, default=None,
                        help="observations (presets; default 5000)")
    common.add_argument("--spike-prob", type=float, default=None,
                        help="spike probability for spike presets (default 0.01)")
    common.add_argument("--spike-sigma2", type=float, default=None,
                        help="spike variance for spike presets (default 1.0)")
    common.add_argument("--jump-factor", type=float, default=None,
                        help="jump intensity as a fraction of n for jump presets (default 0.01)")
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--path", help="path.csv produced by `rvolest simulate`")
    fit.add_argument("--model", help="model name when using --path")
    fit.add_argument("--T", type=float, default=None, help="horizon override for --path")
    fit.add_argument("--variant", default="dp", help=" | ".join(v.value for v in Variant))
    fit.add_argument("--lambda", dest="lam", default="0.5", help="tapering parameter")
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--threads", type=int, default=None,
                      help="worker processes (fallback: RVOLEST_THREADS, then 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="generate a contaminated path")
    p_sim.set_defaults(handler=cmd_simulate)

    p_est = sub.add_parser("estimate", parents=[common, fit],
                           help="fit one estimator on a path")
    p_est.add_argument("--alpha", type=float, default=0.05)
    p_est.add_argument("--init", help="comma list: optimizer start")
    p_est.add_argument("--true-theta", help="comma list: adds standardized statistics")
    p_est.add_argument("--max-iters", type=int, default=500)
    p_est.add_argument("--tol", type=float, default=1e-8)
    p_est.set_defaults(handler=cmd_estimate)

    for name, (help_text, variant, lam, tables) in _PLAN_COMMANDS.items():
        p_plan = sub.add_parser(name, parents=[common, pool], help=help_text)
        p_plan.add_argument("--reps", type=int, default=200)
        p_plan.add_argument("--variant", default=variant)
        p_plan.add_argument("--lambda", dest="lam", default=lam)
        p_plan.add_argument("--alpha", type=float, default=0.05)
        p_plan.set_defaults(handler=cmd_montecarlo, tables=tables)

    p_cl = sub.add_parser("cluster", parents=[common, fit],
                          help="K-means residual classification of increments")
    p_cl.add_argument("--k", type=int, default=None, help="fixed cluster count")
    p_cl.add_argument("--k-range", default=None,
                      help="scan range LO:HI for suggest-K (default 2:10)")
    p_cl.add_argument("--kmeans-seed", type=int, default=0)
    p_cl.add_argument("--merge", default="off", choices=[mode.value for mode in MergeMode])
    p_cl.set_defaults(handler=cmd_cluster)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # bad input, or an unreadable or unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RvolestError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
