"""rvolest benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-jumpdiff --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The workloads, metrics, units, directions and bounds are listed in
BENCHMARK.json at the checkout root; workloads.py defines the inputs.

--trace 0 measures the end-to-end metrics with tracing off.  It repeats the
workload's fixed inputs ("passes") while another pass is expected to end
within --seconds, reports medians over passes, and afterwards times
SETUP_RUNS fresh interpreters that import rvolest and build the inputs.

--trace 1 runs the same inputs serially, alternating an untraced and a
traced pass, and derives the per-layer metrics from the traced passes' spans
(see spans.py).  A Monte Carlo workload also runs one pooled pass, for the
pool metrics.  The spans are written to .bench_out/ when the run ends.

Every pass goes through the correctness gate (workloads.check), and all
passes of a run must produce identical output digests.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 when the outputs are correct, 1 when they
are not, and 2 when the checkout holds no rvolest sources.  The benchmark
sets no BLAS or OpenMP thread variable: it measures the pool as users get it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 3
POOL_THREADS = 2
SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]\n"
    "import workloads\n"
    "workloads.build({name!r}, workloads.batch_seed({seed!r}, 0), tiny={tiny!r})\n"
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one pass, for the smoke test")
    return parser.parse_args(argv)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        _fail(f"no BENCHMARK.json in {ROOT}; run from the root of a checkout")
    with open(path) as fh:
        return json.load(fh)


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def repeat(run_pass, seconds: float, tiny: bool) -> list:
    """Call run_pass(k) for k = 0, 1, ... while another call is expected to
    end within `seconds`; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass(len(results)))
        elapsed = time.perf_counter() - start
        if tiny or elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def batch(args, k: int):
    """The inputs of pass k."""
    import workloads

    return workloads.build(args.workload, workloads.batch_seed(args.seed, k), tiny=args.tiny)


def percentile_ms(samples) -> tuple[float, float, float]:
    """(p50, upper percentile, its rank q): q is 90, or the highest
    percentile with at least ten samples beyond it, never below the median."""
    n = len(samples)
    q = max(50.0, min(90.0, 100.0 * (1.0 - 10.0 / n)))
    return float(np.percentile(samples, 50)), float(np.percentile(samples, q)), q


def setup_seconds(name: str, seed: int, tiny: bool) -> list[float]:
    code = SETUP_CODE.format(src=SRC, bench=BENCH_DIR, name=name, seed=seed, tiny=tiny)
    times = []
    for _ in range(1 if tiny else SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def gate(runs) -> list[str]:
    """The correctness problems of a run's (inputs, result) pairs."""
    import workloads

    return workloads.check([result for _, result in runs], runs[0][0].theta0)


def quality(runs) -> dict:
    """Outcome rates and estimate quality over (inputs, result) pairs."""
    attempted = sum(r.attempted for _, r in runs)
    failed = sum(r.failed for _, r in runs)
    converged = sum(r.converged for _, r in runs)
    errors = [np.asarray(est, dtype=float) - inputs.theta0
              for inputs, r in runs for est in r.robust.values()]
    captures = [r.spike_capture for _, r in runs if r.spike_capture is not None]
    return {
        "fail_rate": failed / attempted,
        "nonconverged_rate": (attempted - failed - converged) / attempted,
        "theta_rmse": float(np.sqrt(np.nanmean(np.concatenate(errors) ** 2))),
        "spike_capture": float(np.mean(captures)) if captures else 0.0,
    }


def run_untraced(args, outdir) -> tuple[dict, dict]:
    import workloads

    def one(k):
        inputs = batch(args, k)
        return inputs, workloads.run_pass(inputs, outdir)

    runs = repeat(one, args.seconds, args.tiny)
    passes = [r for _, r in runs]
    rss = peak_rss_mb(runs[0][0].threads)
    setups = setup_seconds(args.workload, args.seed, args.tiny)
    fit_ms = [ms for p in passes for ms in p.fit_ms]
    p50, upper, q = percentile_ms(fit_ms)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "fit_ms_p50": p50,
        "fit_ms_p90": upper,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    facts = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "fit_samples": len(fit_ms),
        "fit_ms_p90_percentile": q,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        **quality(runs),
        "setup_runs_s": setups,
        "digests": [p.digests for p in passes],
        "problems": gate(runs),
    }
    return metrics, facts


def run_traced(args, outdir) -> tuple[dict, dict]:
    import spans
    import workloads

    tracer = spans.Tracer()
    plain, traced = [], []

    def pair(k):
        inputs = batch(args, k)
        plain.append((inputs, workloads.run_pass(inputs, outdir, threads=1)))
        with tracer.installed():
            traced.append((inputs, workloads.run_pass(inputs, outdir, threads=1)))
        return inputs

    first = repeat(pair, args.seconds, args.tiny)[0]
    metrics, table = spans.layer_metrics(tracer, len(traced))
    metrics.update(quality(plain))
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for _, r in traced)
                                   - statistics.median(r.wall_s for _, r in plain))
    problems = gate(plain)
    problems += [f"pass {k}: traced and untraced outputs differ"
                 for k, ((_, a), (_, b)) in enumerate(zip(plain, traced))
                 if a.digests != b.digests]
    metrics["montecarlo.pool_inflation"] = metrics["montecarlo.pool_efficiency"] = 0.0
    runs = plain + traced
    if first.plan is not None:
        serial = plain[0][1]
        pooled = workloads.run_pass(first, outdir, threads=POOL_THREADS)
        runs.append((first, pooled))
        if pooled.digests != serial.digests:
            problems.append(f"{POOL_THREADS} workers and 1 give different outputs")
        metrics["montecarlo.pool_inflation"] = float(
            np.median(pooled.fit_ms) / np.median(serial.fit_ms))
        metrics["montecarlo.pool_efficiency"] = serial.wall_s / (POOL_THREADS * pooled.wall_s)

    spans_csv = os.path.join(outdir, "spans.csv")
    tracer.write_csv(spans_csv)
    facts = {
        "traced_passes": len(traced),
        "untraced_wall_s": [r.wall_s for _, r in plain],
        "traced_wall_s": [r.wall_s for _, r in traced],
        "layers": {k: {"calls": c, "self_ms": s} for k, (c, s) in table.items()},
        "spans": os.path.relpath(spans_csv, ROOT),
        "span_count": len(tracer.name),
        "attempted": sum(r.attempted for _, r in runs),
        "failed": sum(r.failed for _, r in runs),
        "digests": [r.digests for _, r in plain],
        "problems": problems,
    }
    return metrics, facts


def run_one(args, spec) -> int:
    if not os.path.isfile(os.path.join(SRC, "rvolest", "__init__.py")):
        _fail(f"no rvolest sources under {SRC}; run from the root of a checkout")
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    if args.workload not in workloads.NAMES:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    outdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    # first calls load lazy scipy internals; users pay that once per process
    warm_up = workloads.build(args.workload, args.seed, tiny=True, count=1)
    workloads.run_pass(warm_up, outdir, threads=1)

    run = run_traced if args.trace else run_untraced
    metrics, facts = run(args, outdir)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    correct = not facts["problems"]
    result = {
        "correct": correct,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": environment(),
              **facts, "result": result}
    with open(os.path.join(outdir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    for key, value in facts.items():
        if key not in ("problems", "attempted", "failed"):
            print(f"  {key}: {json.dumps(value, default=float)}")
    for problem in facts["problems"]:
        print(f"  GATE FAILED: {problem}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Each workload in its own interpreter; the last line merges the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            sys.exit(proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
