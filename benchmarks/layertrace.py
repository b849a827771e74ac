"""Spans and counts around the program's layers, recorded from outside it.

``Tracer.install`` replaces each traced function at the name its caller
looks it up by (``optim`` imports ``gram`` by name, so ``stochgp.optim.gram``
is wrapped, not ``stochgp._linalg.gram``) and ``uninstall`` puts every
original back. A name the program no longer has is skipped and reported
in ``missing``, so a refactor shows as an absent layer instead of a crash.
Each call becomes one span [name, start, end, parent index, returned None]
kept in memory; self time is a span's duration minus that of its direct
children.
"""

from __future__ import annotations

import statistics
import time

# (module, attribute owner or None, attribute, span name); the owner names a
# class whose method is wrapped, None a module-level function
TARGETS = [
    ("stochgp.harness", None, "load_csv", "data.load_csv"),
    ("stochgp.harness", None, "sample_batch", "data.sample_batch"),
    ("stochgp.harness", None, "minimax_init", "optim.init"),
    ("stochgp.harness", None, "scgd_init", "optim.init"),
    ("stochgp.harness", None, "minimax_step", "optim.minimax_step"),
    ("stochgp.harness", None, "scgd_step", "optim.scgd_step"),
    ("stochgp.harness", None, "bsgd_step", "optim.bsgd_step"),
    ("stochgp.harness", None, "info_matrix", "objective.info_matrix"),
    ("stochgp.harness", None, "exact_nll_oracle", "objective.exact_nll_oracle"),
    ("stochgp.harness", None, "spd_inverse", "linalg.spd_inverse"),
    ("stochgp.harness", None, "posterior", "predict.posterior"),
    ("stochgp.harness", "_Evaluator", "nll", "harness.eval_nll"),
    ("stochgp.harness", "_Evaluator", "grad_norm", "harness.eval_grad_norm"),
    ("stochgp.optim", None, "project_primal", "optim.project_primal"),
    ("stochgp.optim", None, "info_matrix", "objective.info_matrix"),
    ("stochgp.optim", None, "gram", "linalg.gram"),
    ("stochgp.optim", None, "try_chol_lower", "linalg.try_chol_lower"),
    ("stochgp.optim", None, "spd_inverse", "linalg.spd_inverse"),
    ("stochgp.optim", None, "chol_solve", "linalg.chol_solve"),
    ("stochgp.optim", None, "tri_inverse_lower", "linalg.tri_inverse_lower"),
    ("stochgp.objective", None, "gram", "linalg.gram"),
    ("stochgp.objective", None, "chol_lower", "linalg.chol_lower"),
    ("stochgp.objective", None, "spd_solve", "linalg.spd_solve"),
    ("stochgp.predict", None, "gram", "linalg.gram"),
    ("stochgp.predict", None, "chol_lower", "linalg.chol_lower"),
    ("stochgp.predict", None, "chol_solve", "linalg.chol_solve"),
    ("stochgp.features", "FeatureMap", "backward", "features.backward"),
    ("stochgp.features", "LinearMap", "forward", "features.forward"),
    ("stochgp.features", "MLPMap", "forward", "features.forward"),
    ("stochgp.features", "ComposedMap", "forward", "features.forward"),
    ("stochgp.features", "RFFMap", "forward", "features.rff_forward"),
    ("stochgp.features", "RFFMap", "backward_with_inputs", "features.rff_backward"),
]

STEPS = ("optim.minimax_step", "optim.scgd_step", "optim.bsgd_step")

# (metric, unit); README.md says which end-to-end metric each should move
PER_LAYER = [
    ("stochgp.import_s", "s"),
    ("data.load_csv_s", "s"),
    ("data.sample_batch_calls", "count"),
    ("data.sample_batch_us", "us"),
    ("features.forward_calls", "count"),
    ("features.forward_us", "us"),
    ("features.backward_calls", "count"),
    ("features.backward_us", "us"),
    ("features.rff_forward_us", "us"),
    ("features.rff_backward_us", "us"),
    ("linalg.gram_calls", "count"),
    ("linalg.gram_us", "us"),
    ("linalg.try_chol_lower_us", "us"),
    ("linalg.spd_inverse_us", "us"),
    ("linalg.chol_solve_us", "us"),
    ("linalg.tri_inverse_lower_us", "us"),
    ("linalg.chol_lower_s", "s"),
    ("linalg.spd_solve_s", "s"),
    ("objective.info_matrix_s", "s"),
    ("objective.exact_nll_oracle_s", "s"),
    ("optim.minimax_step_us", "us"),
    ("optim.scgd_step_us", "us"),
    ("optim.bsgd_step_us", "us"),
    ("optim.minimax_step.self_us", "us"),
    ("optim.scgd_step.self_us", "us"),
    ("optim.bsgd_step.self_us", "us"),
    ("optim.project_primal_us", "us"),
    ("optim.project_primal.eigh_share", "ratio"),
    ("optim.init_s", "s"),
    ("harness.steps", "count"),
    ("harness.eval_s_per_epoch", "s"),
    ("predict.posterior_s", "s"),
    ("trace.overhead_pct", "%"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(i)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = result is None
            return result

        return traced

    def install(self):
        import importlib

        for mod_name, owner_name, attr, name in TARGETS:
            owner = importlib.import_module(mod_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            # only what the owner defines itself, so a class never shadows its base
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append("%s.%s%s" % (mod_name, owner_name + "." if owner_name else "", attr))
                continue
            setattr(owner, attr, self._wrap(fn, name))
            self._undo.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(spans, rounds: int):
    """{metric: (value, samples)} over ``rounds`` identical traced rounds.

    Times are medians per call (per epoch for the evaluator); counts are
    per round, so they repeat exactly across runs.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def top(name):
        # calls not made from inside a span of the same layer (a composed
        # map's forward calls its inner map's forward)
        return [i for i in by_name.get(name, []) if spans[i][3] < 0 or spans[spans[i][3]][0] != name]

    out = {}

    def timing(metric, idx, scale):
        out[metric] = (_median([dur(i) * scale for i in idx]), len(idx))

    def count(metric, idx):
        out[metric] = (len(idx) / rounds, len(idx))

    for layer in ("data.sample_batch", "features.forward", "features.backward", "linalg.gram"):
        count(layer + "_calls", top(layer))
    for layer in (
        "data.sample_batch",
        "features.forward",
        "features.backward",
        "features.rff_forward",
        "features.rff_backward",
        "linalg.gram",
        "linalg.try_chol_lower",
        "linalg.spd_inverse",
        "linalg.chol_solve",
        "linalg.tri_inverse_lower",
        "optim.project_primal",
    ) + STEPS:
        timing(layer + "_us", top(layer), 1e6)
    for layer in (
        "data.load_csv",
        "linalg.chol_lower",
        "linalg.spd_solve",
        "objective.info_matrix",
        "objective.exact_nll_oracle",
        "optim.init",
        "predict.posterior",
    ):
        timing(layer + "_s", top(layer), 1.0)
    for step in STEPS:
        idx = by_name.get(step, [])
        out[step + ".self_us"] = (_median([(dur(i) - child_time[i]) * 1e6 for i in idx]), len(idx))

    primal = by_name.get("optim.project_primal", [])
    failed = sum(
        1
        for i in by_name.get("linalg.try_chol_lower", [])
        if spans[i][4] and spans[i][3] >= 0 and spans[spans[i][3]][0] == "optim.project_primal"
    )
    out["optim.project_primal.eigh_share"] = (failed / len(primal) if primal else 0.0, len(primal))

    steps = [i for s in STEPS for i in by_name.get(s, [])]
    count("harness.steps", steps)
    # one evaluation pass per epoch: an nll call opens it, grad_norm joins it
    passes: list[float] = []
    for i in sorted(by_name.get("harness.eval_nll", []) + by_name.get("harness.eval_grad_norm", [])):
        if spans[i][0] == "harness.eval_nll" or not passes:
            passes.append(0.0)
        passes[-1] += dur(i)
    out["harness.eval_s_per_epoch"] = (_median(passes), len(passes))
    return out
