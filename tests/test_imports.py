"""What importing the package loads: none of scipy's subpackages, whatever the run.

The LAPACK/BLAS handles come from scipy's compiled extensions without the
``scipy.linalg`` package, and a random-feature map's Sobol engine from
``scipy.stats._sobol`` and its ``ndtri`` from ``scipy.special._ufuncs``
without the ``scipy.stats`` or ``scipy.special`` packages. ``_ufuncs``
imports sibling extensions, so it loads under a placeholder for
``scipy.special``, which leaves ``sys.modules`` afterwards. Whichever of
scipy's packages loads first, there is one copy of each extension and its
siblings, and a package imported later binds the ones stochgp loaded. A
load that fails leaves nothing behind. A run never loads ``scipy.stats``,
``scipy.special`` or ``scipy.linalg``, nor the reference computations of
``stochgp.oracles``, and no training module holds one of them.

The benchmark under ``benchmarks/`` reaches into the program at named
seams: its tracer imports each module it wraps and replaces functions at
the names their callers look up, and its worker stamps a run's first step
by wrapping the step rules at ``stochgp.harness`` and ``stochgp.optim``.
Its checker recomputes features from a record's flat parameters in its own
numpy, and its layer sweep builds and steps each rule itself. The tests at
the end pin that those names are still the ones a run calls, that the flat
layout is the one the checker reads, and that the sweep still steps.

No module but ``__init__`` imports a name that it neither uses nor exports.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochgp
import stochgp.harness
import stochgp.optim
from stochgp.features import LinearMap, MLPMap, MLPSpec
from stochgp.harness import (
    OPTIMIZERS,
    ExperimentConfig,
    SynthSpec,
    build_feature_map,
    run_experiment,
)
from stochgp.objective import HyperParams

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the handles stochgp._linalg holds are the ones scipy.linalg hands out, and
# its extension modules the ones scipy.linalg's wrappers use
SAME_HANDLES = """
def same_handles():
    from scipy.linalg import blas, get_blas_funcs, get_lapack_funcs, lapack
    from stochgp import _linalg
    theirs = get_lapack_funcs(("potrf", "trtri", "potrs")) + get_blas_funcs(("gemm", "syrk"))
    ours = (_linalg._potrf, _linalg._trtri, _linalg._potrs, _linalg._gemm, _linalg._syrk)
    return (
        all(a is b for a, b in zip(theirs, ours))
        and lapack._flapack is _linalg._flapack
        and blas._fblas is _linalg._fblas
    )
"""

PROBE = SAME_HANDLES + """
import json, sys
import stochgp, stochgp.harness, stochgp.cli
from stochgp.features import RFFMap
from stochgp.harness import ExperimentConfig, SynthSpec, run_experiment

HEAVY = ("scipy.stats", "scipy.special", "scipy.linalg")
loaded = lambda: {name: name in sys.modules for name in HEAVY}
report = {"imported": loaded()}
for kind, d in (("linear", 3), ("mlp", 4)):
    run_experiment(ExperimentConfig(
        synth=SynthSpec(n=40, p=3, d=d, sigma2=0.5, map_kind=kind, mlp_hidden=4),
        feature_map=kind, mlp_hidden=4, mlp_out=4, optimizer="scgd",
        batch_size=8, epochs=1, learning_rate=1e-3,
    ))
report["trained"] = loaded()
RFFMap(16, 8, seed=0)
report["rff"] = loaded()
report["same_handles"] = same_handles()
print(json.dumps(report))
"""

# scipy.linalg first: stochgp must reuse its extensions, not load them again
PROBE_SCIPY_FIRST = SAME_HANDLES + """
import json
import scipy.linalg
import stochgp.harness
print(json.dumps({"same_handles": same_handles()}))
"""

# scipy.linalg after stochgp: the extensions stochgp loaded become its attributes
PROBE_SCIPY_AFTER = SAME_HANDLES + """
import json
import stochgp, scipy.linalg
from stochgp import _linalg
print(json.dumps({
    "bound": scipy.linalg._flapack is _linalg._flapack and scipy.linalg._fblas is _linalg._fblas,
    "same_handles": same_handles(),
}))
"""

# the Sobol points scipy.stats.qmc draws, as floats that survive json exactly
SOBOL_DRAW = """
def sobol_draw():
    import numpy as np
    from scipy.stats import qmc
    return [qmc.Sobol(q, rng=np.random.default_rng(q)).random_base2(5).tolist() for q in (1, 7, 20)]
"""

# scipy.stats after a whole random-feature run: the Sobol engine stochgp
# loaded becomes its attribute, and qmc draws as it does without stochgp
PROBE_STATS_AFTER = SOBOL_DRAW + """
import json, sys
from stochgp.harness import ExperimentConfig, SynthSpec, run_experiment

record = run_experiment(ExperimentConfig(
    synth=SynthSpec(n=40, p=3, d=4, sigma2=0.5, map_kind="mlp", mlp_hidden=4),
    feature_map="mlp+rff", mlp_hidden=4, mlp_out=4, rff_dim=16, optimizer="minimax",
    batch_size=8, epochs=1, learning_rate=1e-3,
))
trained = "scipy.stats" in sys.modules
ours = sys.modules["scipy.stats._sobol"]
import scipy.stats
print(json.dumps({
    "diverged": record.diverged,
    "stats_after_run": trained,
    "bound": scipy.stats._sobol is ours and scipy.stats._qmc._draw is ours._draw,
    "draw": sobol_draw(),
}))
"""

# scipy.special after a whole random-feature run: the extensions stochgp
# loaded become its attributes, and its ndtri is the one the map drew with
PROBE_SPECIAL_AFTER = """
import json, sys
import numpy as np
from stochgp.features import RFFMap
from stochgp.harness import ExperimentConfig, SynthSpec, run_experiment

record = run_experiment(ExperimentConfig(
    synth=SynthSpec(n=40, p=3, d=4, sigma2=0.5, map_kind="mlp", mlp_hidden=4),
    feature_map="mlp+rff", mlp_hidden=4, mlp_out=4, rff_dim=16, optimizer="minimax",
    batch_size=8, epochs=1, learning_rate=1e-3,
))
trained = "scipy.special" in sys.modules
ours = {name: module for name, module in sys.modules.items() if name.startswith("scipy.special.")}
ndtri = ours["scipy.special._ufuncs"].ndtri
drawn = RFFMap(5, 2 * 12, seed=7).frequencies
import scipy.special
from scipy.stats import qmc
points = qmc.Sobol(5, rng=np.random.default_rng(7)).random_base2(4)[:12]
qmc_draw = scipy.special.ndtri(0.5 + (1.0 - 1e-10) * (points - 0.5))
print(json.dumps({
    "diverged": record.diverged,
    "special_after_run": trained,
    "loaded": sorted(ours),
    "bound": [getattr(scipy.special, name.split(".")[-1]) is ours[name] for name in ours],
    "same_ndtri": scipy.special.ndtri is ndtri,
    "same_draw": bool(np.array_equal(drawn, qmc_draw)),
}))
"""

# scipy.special first: RFFMap must reuse its _ufuncs, not load it again
PROBE_SPECIAL_FIRST = """
import json
import scipy.special
from stochgp import _linalg
from stochgp.features import RFFMap

RFFMap(3, 8, seed=0)
print(json.dumps({
    "same": _linalg._extension("special", "_ufuncs") is scipy.special._ufuncs,
    "handed_over": sorted(name for name in _linalg._HANDOFF if name.startswith("scipy.special")),
}))
"""

# a load whose extension raises, after pulling in a sibling under the
# placeholder: nothing of scipy.special stays behind, and the package and a
# map still load afterwards
PROBE_FAILED_LOAD = """
import importlib, json, sys
from stochgp import _linalg

class Broken(_linalg.ExtensionFileLoader):
    def exec_module(self, module):
        importlib.import_module("scipy.special._sf_error")
        raise ImportError("broken on purpose")

loader, _linalg.ExtensionFileLoader = _linalg.ExtensionFileLoader, Broken
try:
    _linalg._extension("special", "_ufuncs")
    raised = None
except ImportError as exc:
    raised = str(exc)
_linalg.ExtensionFileLoader = loader
left = sorted(name for name in sys.modules if name.startswith("scipy.special"))
handed = sorted(name for name in _linalg._HANDOFF if name.startswith("scipy.special"))
import scipy.special
from stochgp.features import RFFMap
print(json.dumps({
    "raised": raised,
    "left": left,
    "handed_over": handed,
    "ndtri": float(scipy.special.ndtri(0.5)),
    "map": RFFMap(3, 8, seed=0).frequencies.shape,
}))
"""

# what building the first map adds to the peak RSS; numpy.random is imported
# first, since every run loads it for its split and batches. The peak is this
# process's own (VmHWM): on Linux a child's ru_maxrss starts at the peak of
# the process it was started from, here the test runner's
PROBE_RSS = """
import json, re
import numpy.random
import stochgp.harness
from stochgp.features import RFFMap

def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1))

before = peak_kb()
RFFMap(16, 8, seed=0)
print(json.dumps({"kb": peak_kb() - before}))
"""

PROBE_ORACLES = """
import json, sys
import stochgp, stochgp.harness, stochgp.cli
from stochgp.harness import ExperimentConfig, SynthSpec, run_experiment

loaded = lambda: "stochgp.oracles" in sys.modules
report = {"imported": loaded()}
run_experiment(ExperimentConfig(
    synth=SynthSpec(n=40, p=3, d=3, sigma2=0.5), optimizer="minimax",
    batch_size=8, epochs=1, learning_rate=1e-3,
))
report["trained"] = loaded()
report["check_code"] = stochgp.cli.main(["check"])
report["checked"] = loaded()
print(json.dumps(report))
"""

# the modules a run imports and executes
TRAINING_MODULES = ("_linalg", "objective", "optim", "harness", "cli", "__init__")


def _probe(code: str) -> dict:
    # a fresh interpreter: this one may have loaded anything already
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_no_run_loads_scipy_special_stats_or_linalg():
    report = _probe(PROBE)
    none = {"scipy.stats": False, "scipy.special": False, "scipy.linalg": False}
    assert report["imported"] == none
    assert report["trained"] == none
    assert report["rff"] == none
    assert report["same_handles"]


def test_scipy_special_imported_after_a_random_feature_run_binds_the_same_extensions():
    report = _probe(PROBE_SPECIAL_AFTER)
    assert report.pop("loaded") == [
        "scipy.special._ellip_harm_2",
        "scipy.special._gufuncs",
        "scipy.special._special_ufuncs",
        "scipy.special._ufuncs",
        "scipy.special._ufuncs_cxx",
    ]
    assert report.pop("bound") == [True] * 5
    assert report == {
        "diverged": False,
        "special_after_run": False,
        "same_ndtri": True,
        "same_draw": True,
    }


def test_scipy_special_imported_first_lends_its_ufuncs():
    assert _probe(PROBE_SPECIAL_FIRST) == {"same": True, "handed_over": []}


def test_a_failed_load_leaves_no_module_behind():
    assert _probe(PROBE_FAILED_LOAD) == {
        "raised": "broken on purpose",
        "left": [],
        "handed_over": [],
        "ndtri": 0.0,
        "map": [4, 3],
    }


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_the_first_random_feature_map_adds_little_to_the_peak_rss():
    # about 7 MB here (scipy.special._ufuncs and the Sobol engine's direction
    # numbers); about 21 MB when the map imported the scipy.special package
    assert _probe(PROBE_RSS)["kb"] < 8 * 1024


def test_scipy_stats_imported_after_a_random_feature_run_binds_the_same_sobol_engine():
    report = _probe(PROBE_STATS_AFTER)
    assert report.pop("draw") == _probe(SOBOL_DRAW + "import json\nprint(json.dumps(sobol_draw()))")
    assert report == {"diverged": False, "stats_after_run": False, "bound": True}


def test_scipy_linalg_imported_first_shares_its_extensions():
    assert _probe(PROBE_SCIPY_FIRST) == {"same_handles": True}


def test_scipy_linalg_imported_after_binds_the_same_extensions():
    assert _probe(PROBE_SCIPY_AFTER) == {"bound": True, "same_handles": True}


def test_a_run_does_not_load_the_oracles_and_check_does():
    assert _probe(PROBE_ORACLES) == {
        "imported": False,
        "trained": False,
        "check_code": 0,
        "checked": True,
    }


def _modules() -> dict:
    names = [info.name for info in pkgutil.iter_modules(stochgp.__path__)]
    modules = {name: importlib.import_module("stochgp." + name) for name in names}
    modules["__init__"] = stochgp
    return modules


def test_every_exported_name_resolves():
    for name, module in _modules().items():
        missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
        assert not missing, "stochgp.%s.__all__ names undefined %s" % (name, missing)


def _bound_by_imports(tree: ast.Module) -> dict:
    """{name: line} of every name a module-level or nested import binds, bar __future__'s."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _names_read(tree: ast.Module) -> set:
    """Every name the module reads (annotations too, being unquoted), and its __all__."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return read


def test_no_module_imports_a_name_it_neither_uses_nor_exports():
    # __init__ imports to re-export; every other import must be read somewhere
    for path in sorted((SRC / "stochgp").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = _names_read(tree)
        unused = {name: line for name, line in _bound_by_imports(tree).items() if name not in read}
        assert not unused, "%s imports names it does not use: %s" % (path.name, unused)


def test_no_training_module_holds_an_oracle():
    modules = _modules()
    oracles = modules["oracles"]
    defined = {
        name
        for name, value in vars(oracles).items()
        if getattr(value, "__module__", None) == oracles.__name__
    }
    assert set(oracles.__all__) <= defined
    for name in TRAINING_MODULES:
        held = sorted(defined & set(vars(modules[name])))
        assert not held, "stochgp.%s holds %s from stochgp.oracles" % (name, held)


def _benchmark(name: str):
    """benchmarks/<name>.py, loaded by file path; registered only while it runs."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_module_the_tracer_wraps_imports():
    # Tracer.install imports each one; a deleted or renamed module would crash --trace 1
    names = sorted({target[0] for target in _benchmark("layertrace").TARGETS})
    assert names
    for name in names:
        importlib.import_module(name)


def test_every_feature_map_method_the_tracer_wraps_is_its_owners():
    # the tracer wraps a method through vars(owner); one its class only
    # inherits is skipped, and its features.* metrics would read 0
    targets = [t for t in _benchmark("layertrace").TARGETS if t[0] == "stochgp.features"]
    assert targets
    module = importlib.import_module("stochgp.features")
    for _, owner, attr, _ in targets:
        assert attr in vars(getattr(module, owner)), "%s.%s" % (owner, attr)


def test_the_benchmarks_own_forward_reads_the_layout_the_maps_slice():
    # check.py recomputes every record's features from best.feature_flat with
    # its own numpy, reading the MLP's (w1, b1, w2, b2) row-major and then
    # (log u1, log u2); a map that sliced its vector otherwise would fail it
    check, workloads = _benchmark("check"), _benchmark("workloads")
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(0)
    X = rng.normal(size=(32, workloads.INPUTS))
    for name, workload in workloads.WORKLOADS.items():
        cfg = workload.config("unread.csv", "minimax")
        fmap = build_feature_map(cfg, workloads.INPUTS)
        flat = 0.5 * rng.normal(size=fmap.n_params)
        # read in as a step reads a parameter vector, through theta's with_flat
        theta = HyperParams(np.zeros(fmap.output_dim), fmap.init_params(0), 1.0)
        params = theta.with_flat(np.concatenate([theta.weights, flat, [1.0]])).feature_params
        ours = fmap.forward(params, X).Z
        phi = check.FeatureMap(cfg)
        theirs = phi(flat, X)
        if cfg.feature_map == "mlp":
            assert np.array_equal(ours, theirs), name
            continue
        # cos and sin come from one tan here and from libm there: 4 eps amp
        # apart at the same argument, plus the projections' rounding
        Y = check._mlp(flat, X, cfg.mlp_hidden, cfg.mlp_out)
        size = np.abs(Y) @ np.abs(phi.W.T) / np.exp(flat[-2])
        amp = np.sqrt(2.0 * np.exp(flat[-1]) / cfg.rff_dim)
        bound = amp * eps * (4.0 + 2.0 * (Y.shape[1] + 1) * size)
        assert np.all(np.abs(ours - theirs) <= np.hstack([bound, bound])), name


def test_the_benchmarks_start_is_the_maps_initial_vector(tmp_path):
    # check.start_nll reads init_params(seed).flat: on a plain vector that is
    # numpy's flat iterator, whose slices and indices give the vector's floats
    check, workloads = _benchmark("check"), _benchmark("workloads")
    rng = np.random.default_rng(1)
    header = ",".join(["c%d" % j for j in range(workloads.INPUTS)] + ["y"])
    csv_path = tmp_path / "small.csv"
    rows = rng.normal(size=(48, workloads.INPUTS + 1))
    np.savetxt(csv_path, rows, delimiter=",", header=header, comments="")
    for name, workload in workloads.WORKLOADS.items():
        cfg = workload.config(str(csv_path), "minimax")
        problem = check.Problem(str(csv_path), cfg.train_fraction, cfg.split_seed)
        phi = check.FeatureMap(cfg)
        start = np.asarray(build_feature_map(cfg, workloads.INPUTS).init_params(cfg.init_seed))
        want = check.kernel_form(phi(start, problem.X), problem.y, cfg.init_sigma2)[0]
        assert check.start_nll(cfg, problem, phi) == want, name


@pytest.mark.parametrize("rule", ["minimax", "scgd", "bsgd"])
def test_the_sweeps_stepper_takes_two_steps(rule):
    # benchmarks/sweep.py builds each step rule's start and step itself
    sweep = _benchmark("sweep")
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(12, 3)), rng.normal(size=12)
    for fmap in (LinearMap(3), MLPMap(MLPSpec(3, (4, 5)))):
        step, state = sweep._stepper(rule, fmap, X, y, 4, rng)
        state = step(step(state))
        theta = state[0].theta if rule == "minimax" else getattr(state, "theta", state)
        assert theta.flat.shape == (fmap.output_dim + fmap.n_params + 1,)


STEP_RULES = ("minimax_step", "scgd_step", "bsgd_step")


def _count_calls(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_a_run_calls_its_step_rule_and_projection_by_module_attribute(monkeypatch, optimizer):
    # the benchmark's worker wraps the step rules at these names and fails
    # every workload when a run bypasses them; its tracer measures
    # project_primal at stochgp.optim's name, which each minimax step calls
    counts = {}
    for module in (stochgp.harness, stochgp.optim):
        for name in STEP_RULES:
            if hasattr(module, name):
                _count_calls(monkeypatch, module, name, counts)
    _count_calls(monkeypatch, stochgp.optim, "project_primal", counts)
    record = run_experiment(
        ExperimentConfig(
            synth=SynthSpec(n=40, p=3, d=3, sigma2=0.5),
            optimizer=optimizer,
            batch_size=8,
            epochs=2,
            learning_rate=1e-3,
        )
    )
    assert not record.diverged
    steps = counts.pop(optimizer + "_step", 0)
    assert steps == 2 * 5  # two epochs of ceil(36 / 8) batches
    assert counts.pop("project_primal", 0) == (steps if optimizer == "minimax" else 0)
    assert counts == {}


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_a_run_evaluates_and_starts_through_the_names_the_tracer_wraps(monkeypatch, optimizer):
    # harness.eval_s_per_epoch times stochgp.harness._Evaluator.nll,
    # objective.info_matrix_s the start of minimax and scgd at stochgp.optim's
    # info_matrix, and optim.init_s the starts at stochgp.harness's
    # minimax_init and scgd_init; a pass that bypassed one would leave it empty
    counts = {}
    _count_calls(monkeypatch, stochgp.harness._Evaluator, "nll", counts)
    _count_calls(monkeypatch, stochgp.optim, "info_matrix", counts)
    for name in ("minimax_init", "scgd_init"):
        _count_calls(monkeypatch, stochgp.harness, name, counts)
    record = run_experiment(
        ExperimentConfig(
            synth=SynthSpec(n=40, p=3, d=3, sigma2=0.5),
            optimizer=optimizer,
            batch_size=8,
            epochs=2,
            learning_rate=1e-3,
        )
    )
    assert not record.diverged
    starts = {} if optimizer == "bsgd" else {"info_matrix": 1, optimizer + "_init": 1}
    assert counts == {"nll": 2, **starts}


def test_the_epoch_loop_names_no_step_rule():
    # harness._start builds each rule's step once; _train only calls it, so
    # a rule, its state or its choice named in the loop would be a second seam
    tree = ast.parse((SRC / "stochgp" / "harness.py").read_text())
    train = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_train"
    )
    rules = {"minimax", "scgd", "bsgd"}
    named = set()
    for node in ast.walk(train):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    assert "step" in named  # the walk sees the loop's one call
    forbidden = sorted(
        name
        for name in named
        if name in ("optimizer", "tracked_info", "zeta", "dual", "mm_cfg", "mm_state", "mm_dual")
        or any(rule in name for rule in rules)
    )
    assert not forbidden, "_train names %s" % forbidden
