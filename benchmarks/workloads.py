"""The benchmark's workloads and the CSV inputs it generates for them.

Each workload is one training set-up: the make-up of its input rows, the
feature map, the batch size, and one fixed rate and epoch budget per step
rule. The inputs are written as CSV from the workload seed alone, so the
program under test only ever sees a file, read through ``stochgp.data``;
its own synthetic generator never runs in a timed region.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

OPTIMIZERS = ("minimax", "scgd", "bsgd")
INPUTS = 16
TARGET = "target"


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    generator: str  # "linear" or "mlp": how the targets are drawn
    noise_var: float
    feature_map: str  # the program's feature_map setting
    mlp_hidden: int
    mlp_out: int
    rff_dim: int  # used only with feature_map="mlp+rff"
    batch_size: int
    train_fraction: float
    rates: dict
    epochs: dict
    # step rules that are not expected to improve on the starting NLL: the
    # biased baseline at batch 8 moves uphill from the start at every rate
    # (test_05 requires it to end worse than the debiased rules)
    uphill: tuple = ()

    def config(self, data_path: str, optimizer: str):
        """The ExperimentConfig for one operation of this workload."""
        from stochgp.harness import ExperimentConfig

        return ExperimentConfig(
            data_path=data_path,
            target=TARGET,
            feature_map=self.feature_map,
            mlp_hidden=self.mlp_hidden,
            mlp_out=self.mlp_out,
            rff_dim=self.rff_dim,
            optimizer=optimizer,
            batch_size=self.batch_size,
            epochs=self.epochs[optimizer],
            learning_rate=self.rates[optimizer],
            schedule="constant",
            batch_mode="replacement",
            train_fraction=self.train_fraction,
            split_seed=0,
            init_seed=0,
            batch_seed=0,
            name="bench-%s" % self.name,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # the test_05 shape: a memory-limited batch of 8 on a linear generator
        Workload(
            name="small-batch",
            rows=2048,
            generator="linear",
            noise_var=16.0,
            feature_map="mlp",
            mlp_hidden=4,
            mlp_out=16,
            rff_dim=2,
            batch_size=8,
            train_fraction=0.99,
            rates={"minimax": 3e-5, "scgd": 1e-3, "bsgd": 3e-4},
            epochs={"minimax": 2, "scgd": 4, "bsgd": 4},
            uphill=("bsgd",),
        ),
        # at most 2000 training rows, so every epoch ends in the exact n x n evaluation
        Workload(
            name="exact-eval",
            rows=2000,
            generator="mlp",
            noise_var=0.25,
            feature_map="mlp",
            mlp_hidden=32,
            mlp_out=16,
            rff_dim=2,
            batch_size=256,
            train_fraction=0.9,
            rates={"minimax": 3e-5, "scgd": 1e-4, "bsgd": 1e-4},
            epochs={"minimax": 3, "scgd": 3, "bsgd": 3},
        ),
        # d = 256 > hidden width 64: the cubic kernels and project_primal dominate
        Workload(
            name="wide",
            rows=4096,
            generator="mlp",
            noise_var=0.25,
            feature_map="mlp",
            mlp_hidden=64,
            mlp_out=256,
            rff_dim=2,
            batch_size=256,
            train_fraction=0.9,
            rates={"minimax": 1e-6, "scgd": 1e-5, "bsgd": 1e-5},
            epochs={"minimax": 2, "scgd": 2, "bsgd": 2},
        ),
        # the random-feature route: MLP 16 -> 16 -> 16 under 256 paired random features
        Workload(
            name="rff",
            rows=4096,
            generator="mlp",
            noise_var=0.25,
            feature_map="mlp+rff",
            mlp_hidden=16,
            mlp_out=16,
            rff_dim=256,
            batch_size=256,
            train_fraction=0.9,
            rates={"minimax": 3e-4, "scgd": 1e-3, "bsgd": 1e-4},
            epochs={"minimax": 3, "scgd": 2, "bsgd": 2},
        ),
    )
}


def make_inputs(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the workload's (rows x 16) inputs and targets from the seed alone.

    ``linear``: y = X g + sqrt(noise_var) e, the law y ~ N(0, X X^T +
    noise_var I) of the test_05 generator. ``mlp``: y = Z g / sqrt(32) +
    sqrt(noise_var) e with Z the 32 outputs of a random two-layer ReLU network
    on X, a smooth nonlinear target that every map here can partly fit.
    """
    rng = np.random.default_rng([seed, w.rows, len(w.name)])
    X = rng.standard_normal((w.rows, INPUTS))
    if w.generator == "linear":
        Z = X
    else:
        W1 = rng.standard_normal((32, INPUTS)) / np.sqrt(INPUTS)
        W2 = rng.standard_normal((32, 32)) / np.sqrt(32)
        Z = np.maximum(X @ W1.T, 0.0) @ W2.T / np.sqrt(32)
    g = rng.standard_normal(Z.shape[1])
    y = Z @ g + np.sqrt(w.noise_var) * rng.standard_normal(w.rows)
    return X, y


def write_inputs(w: Workload, seed: int, path: str) -> str:
    """Write the workload's CSV (header c0..c15,target; round-trip exact floats)."""
    X, y = make_inputs(w, seed)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    header = ",".join(["c%d" % j for j in range(INPUTS)] + [TARGET])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row, target in zip(X.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row + [target])) + "\n")
    return path
