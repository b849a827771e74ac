"""What importing the package loads: scipy.stats only with a random-feature map."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import stochgp, stochgp.harness, stochgp.cli
from stochgp.features import RFFMap
from stochgp.harness import ExperimentConfig, SynthSpec, run_experiment

HEAVY = ("scipy.stats", "scipy.special")
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
print(json.dumps(report))
"""


def test_scipy_stats_loads_only_with_a_random_feature_map():
    # a fresh interpreter: this one may have loaded anything already
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    report = json.loads(out.strip().splitlines()[-1])
    none = {"scipy.stats": False, "scipy.special": False}
    assert report["imported"] == none
    assert report["trained"] == none
    assert report["rff"] == {"scipy.stats": True, "scipy.special": True}
