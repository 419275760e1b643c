"""Spans around rvolest's layer boundaries, recorded from outside the package.

`Tracer.installed()` replaces the module-level names that callers look up
(for example ``rvolest.estimator.value_and_grad``, which `estimate` calls,
or ``ModelSpec.s_values``) by wrappers that record one span per call: span
name, start, end, the span open when the call began, and whether the call
raised.  Nothing under ``src/rvolest`` changes; leaving the context restores
every name.  Spans stay in memory until `write_csv`.

A span name is ``<layer>.<function>``; the layers are the package modules.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from rvolest.exceptions import CholeskyFailure

LAYERS = ("simulator", "likelihood", "estimator", "model", "mathcore",
          "clustering", "montecarlo")

# Every name through which one layer (or the benchmark) calls into another.
# Each is wrapped where it is looked up, so a name imported into two modules
# is listed twice.
WRAPPED = (
    ("rvolest.run_plan", "montecarlo.run_plan"),
    ("rvolest.montecarlo.write_raw_theta_csv", "montecarlo.write_raw_csv"),
    ("rvolest.montecarlo.write_raw_u_csv", "montecarlo.write_raw_csv"),
    ("rvolest.simulate", "simulator.simulate"),
    ("rvolest.montecarlo.simulate", "simulator.simulate"),
    ("rvolest.estimate", "estimator.estimate"),
    ("rvolest.montecarlo.estimate", "estimator.estimate"),
    ("scipy.optimize.minimize", "estimator.optimizer"),
    ("rvolest.estimator.plugin_matrices", "estimator.plugin_matrices"),
    ("rvolest.estimator.confidence_intervals", "estimator.confidence_intervals"),
    ("rvolest.estimator.value_and_grad", "likelihood.value_and_grad"),
    ("rvolest.estimator.covariate_block", "likelihood.covariate_block"),
    ("rvolest.clustering.covariate_block", "likelihood.covariate_block"),
    ("rvolest.clustering.scaled_increments", "likelihood.scaled_increments"),
    ("rvolest.model.ModelSpec.s_values", "model.s_values"),
    ("rvolest.model.ModelSpec.ds_values", "model.ds_values"),
    ("rvolest.montecarlo.make_builtin", "model.make_builtin"),
    ("rvolest.simulator.make_builtin", "model.make_builtin"),
    ("rvolest.estimator.chol_spd", "mathcore.chol_spd"),
    ("rvolest.likelihood.chol_spd", "mathcore.chol_spd"),
    ("rvolest.clustering.chol_spd", "mathcore.chol_spd"),
    ("rvolest.estimator.k_const", "mathcore.k_const"),
    ("rvolest.likelihood.k_const", "mathcore.k_const"),
    ("rvolest.estimator.eps_prime", "mathcore.eps_prime"),
    ("rvolest.estimator.eps_dprime", "mathcore.eps_dprime"),
    ("rvolest.residuals", "clustering.residuals"),
    ("rvolest.suggest_k", "clustering.suggest_k"),
    ("rvolest.kmeans", "clustering.kmeans"),
    ("rvolest.clustering.kmeans", "clustering.kmeans"),
    ("rvolest.merge_consecutive", "clustering.merge_consecutive"),
)

# Spans whose return value is kept: estimate's iteration count and fallback flag.
KEEP = {"estimator.estimate": lambda res: (res.iterations, res.used_fallback)}

NO_ERROR, CHOLESKY, OTHER_ERROR = 0, 1, 2


def _resolve(target: str):
    """(owner, attribute) for a dotted name such as 'rvolest.model.ModelSpec.s_values'."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {target}")


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.kept: dict[int, tuple] = {}
        self._stack: list[int] = []

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, span: str, fn):
        nid, keep, stack = self._name_id(span), KEEP.get(span), self._stack

        def traced(*args, **kwargs):
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.error.append(NO_ERROR)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.error[sid] = CHOLESKY if isinstance(exc, CholeskyFailure) else OTHER_ERROR
                raise
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if keep is not None:
                self.kept[sid] = keep(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        saved = []
        try:
            for target, span in WRAPPED:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        """(name ids, durations, self times, parents, errors) as numpy arrays."""
        name = np.array(self.name, dtype=int)
        parent = np.array(self.parent, dtype=int)
        dur = np.array(self.end) - np.array(self.start)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return name, dur, dur - covered, parent, np.array(self.error, dtype=int)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "error"])
            for sid in range(len(self.name)):
                writer.writerow([sid, self.names[self.name[sid]], repr(self.start[sid]),
                                 repr(self.end[sid]), self.parent[sid], self.error[sid]])


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of `passes` traced passes.

    Returns (metrics, layer table); the table maps each layer to its
    (calls, self ms) per pass.  A layer the workload never reaches reads 0.
    """
    name, dur, self_t, parent, error = tracer.arrays()
    ids = {span: i for i, span in enumerate(tracer.names)}

    def mask(span):
        return name == ids.get(span, -1)

    def median_ms(span):
        sel = mask(span)
        return 1e3 * float(np.median(dur[sel])) if sel.any() else 0.0

    # the fit (estimate span) each span belongs to; parents precede children
    fit_id = ids.get("estimator.estimate", -1)
    fit_of = np.full(len(name), -1)
    for sid in range(len(name)):
        if name[sid] == fit_id:
            fit_of[sid] = sid
        elif parent[sid] >= 0:
            fit_of[sid] = fit_of[parent[sid]]
    in_fit = fit_of >= 0
    fits = int(mask("estimator.estimate").sum())
    kept = list(tracer.kept.values())

    def per_fit(count):
        return float(count) / fits if fits else 0.0

    vg = mask("likelihood.value_and_grad") & in_fit
    writes = mask("montecarlo.write_raw_csv")
    runs = mask("montecarlo.run_plan")
    metrics = {
        "simulator.simulate_ms": median_ms("simulator.simulate"),
        "likelihood.value_and_grad_ms": median_ms("likelihood.value_and_grad"),
        "likelihood.evals_per_fit": per_fit(vg.sum()),
        "likelihood.cholesky_failures_per_fit": per_fit((vg & (error == CHOLESKY)).sum()),
        "estimator.estimate_ms": median_ms("estimator.estimate"),
        "estimator.optimizer_self_ms": per_fit(1e3 * self_t[mask("estimator.optimizer")].sum()),
        "estimator.iterations_per_fit": float(np.mean([k[0] for k in kept])) if kept else 0.0,
        "estimator.fallback_rate": float(np.mean([k[1] for k in kept])) if kept else 0.0,
        "estimator.plugin_matrices_ms": median_ms("estimator.plugin_matrices"),
        "estimator.confidence_intervals_ms": median_ms("estimator.confidence_intervals"),
        "model.s_values_ms": median_ms("model.s_values"),
        "model.ds_values_ms": median_ms("model.ds_values"),
        "mathcore.chol_spd_calls_per_fit": per_fit((mask("mathcore.chol_spd") & in_fit).sum()),
        "clustering.residuals_ms": median_ms("clustering.residuals"),
        "clustering.kmeans_ms": median_ms("clustering.kmeans"),
        "clustering.kmeans_calls": float(mask("clustering.kmeans").sum()) / passes,
        "clustering.suggest_k_ms": median_ms("clustering.suggest_k"),
        "montecarlo.run_plan_s": float(np.median(dur[runs])) if runs.any() else 0.0,
        "montecarlo.write_raw_csv_ms": 1e3 * float(dur[writes].sum()) / passes,
    }

    layer_of = np.array([span.split(".")[0] for span in tracer.names] or [""])
    table = {}
    for layer in LAYERS:
        sel = layer_of[name] == layer if len(name) else np.zeros(0, dtype=bool)
        table[layer] = (int(sel.sum()) / passes, 1e3 * float(self_t[sel].sum()) / passes)
        metrics[f"{layer}.self_ms"] = table[layer][1]
    return metrics, table
