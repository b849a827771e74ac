"""Layer sweep: reference figures for README.md, not benchmark metrics.

    python3 benchmarks/sweep.py            # prints the Markdown tables

Times each step rule at batch size s in {8, 32, 256} and feature dimension
d in {16, 64, 256} (MLP map 16 -> 64 -> d on 2048 standard-normal rows),
once in a child process pinned to 1 BLAS thread and once in one pinned to
2, and repeats test_07's step-cost exponents (identity map, s = 32,
d in {64, 128, 256, 512}, log-log slope of the fastest of five 3-step
repeats) at each thread count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIZES = (8, 32, 256)
DIMS = (16, 64, 256)
RULES = ("minimax", "scgd", "bsgd")
THREADS = (1, 2)


def _stepper(rule, fmap, X, y, s, rng):
    import numpy as np

    from stochgp.objective import HyperParams
    from stochgp.optim import (
        MinimaxConfig,
        bsgd_step,
        minimax_init,
        minimax_step,
        scgd_init,
        scgd_step,
    )

    n = X.shape[0]
    theta = HyperParams(np.zeros(fmap.output_dim), fmap.init_params(0), 1.0)
    cfg = MinimaxConfig(primal_rate=1e-6, dual_rate=1e-6)
    if rule == "minimax":
        state = minimax_init(fmap, theta, X)

        def step(st):
            i, j = rng.integers(0, n, s), rng.integers(0, n, s)
            return minimax_step(fmap, st[0], st[1], X, y, i, j, cfg)

    elif rule == "scgd":
        state = scgd_init(fmap, theta, X)

        def step(st):
            return scgd_step(fmap, st, X, y, rng.integers(0, n, s), 1e-6, 0.5)

    else:
        state = theta

        def step(st):
            return bsgd_step(fmap, st, X, y, rng.integers(0, n, s), 1e-6)

    return step, state


def _median_step_us(step, state, count=40):
    import statistics
    import time

    for _ in range(3):
        state = step(state)
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        state = step(state)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _test07_slopes():
    # the measurement of tests/test_acceptance.py::test_07_step_cost_scaling
    import math
    import time

    import numpy as np

    from stochgp.features import LinearMap

    dims = (64, 128, 256, 512)
    slopes = {}
    for rule in ("minimax", "scgd"):
        times = []
        for d in dims:
            rng = np.random.default_rng(0)
            X, y = rng.normal(size=(1024, d)), rng.normal(size=1024)
            fixed = rng.integers(0, 1024, size=32)
            step, state = _stepper(rule, LinearMap(d), X, y, 32, _Fixed(fixed))
            for _ in range(3):
                state = step(state)
            fastest = math.inf
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(3):
                    state = step(state)
                fastest = min(fastest, (time.perf_counter() - t0) / 3.0)
            times.append(fastest)
        slopes[rule] = float(np.polyfit(np.log(dims), np.log(times), 1)[0])
    return slopes


class _Fixed:
    """Stands in for a generator: every draw returns the same batch, as test_07 does."""

    def __init__(self, idx):
        self.idx = idx

    def integers(self, low, high, size):
        return self.idx


def child() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np

    from stochgp.features import MLPMap, MLPSpec

    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((2048, 16)), rng.standard_normal(2048)
    grid = {}
    for rule in RULES:
        for s in SIZES:
            for d in DIMS:
                fmap = MLPMap(MLPSpec(16, (64, d)))
                step, state = _stepper(rule, fmap, X, y, s, np.random.default_rng(1))
                grid["%s/%d/%d" % (rule, s, d)] = _median_step_us(step, state)
    print(json.dumps({"grid": grid, "test07": _test07_slopes()}))


def main() -> None:
    results = {}
    for threads in THREADS:
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        out = subprocess.run(
            [sys.executable, __file__, "--child"], env=env, capture_output=True, text=True, check=True
        ).stdout
        results[threads] = json.loads(out.strip().splitlines()[-1])

    print("Median µs per step (MLP 16 -> 64 -> d, 2048 rows):\n")
    print("| rule | s | " + " | ".join("d=%d, %d thr" % (d, t) for d in DIMS for t in THREADS) + " |")
    print("|---|---|" + "---:|" * (len(DIMS) * len(THREADS)))
    for rule in RULES:
        for s in SIZES:
            cells = [
                "%.0f" % results[t]["grid"]["%s/%d/%d" % (rule, s, d)] for d in DIMS for t in THREADS
            ]
            print("| %s | %d | %s |" % (rule, s, " | ".join(cells)))
    print("\ntest_07 time exponents (need 2.5 to 3.5):\n")
    print("| threads | minimax | scgd |")
    print("|---|---:|---:|")
    for t in THREADS:
        sl = results[t]["test07"]
        print("| %d | %.2f | %.2f |" % (t, sl["minimax"], sl["scgd"]))


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        main()
