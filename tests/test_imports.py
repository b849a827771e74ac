"""What importing the package loads: scipy.stats only with a random-feature map.

The LAPACK/BLAS handles come from scipy's compiled extensions without the
``scipy.linalg`` package, which a random-feature map loads through
``scipy.stats``; either way there is one copy of each extension. A run never
loads the reference computations of ``stochgp.oracles``, and no training
module holds one of them.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import stochgp

SRC = Path(__file__).resolve().parent.parent / "src"

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


def test_scipy_stats_loads_only_with_a_random_feature_map():
    report = _probe(PROBE)
    none = {"scipy.stats": False, "scipy.special": False, "scipy.linalg": False}
    assert report["imported"] == none
    assert report["trained"] == none
    assert report["rff"] == {"scipy.stats": True, "scipy.special": True, "scipy.linalg": True}
    assert report["same_handles"]


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
