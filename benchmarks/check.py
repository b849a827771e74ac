"""Checks of a run record against computations made apart from the program.

Everything here is the benchmark's own numpy: it reads the CSV itself,
repeats the documented train/test split and standardization, evaluates the
feature map from the record's flat parameters, and forms the n x n kernel
covariance K = Z Z^T + s2 I. From one Cholesky factor of K it gets the
normalized negative log marginal likelihood

    (y^T K^{-1} y + logdet K + n log 2 pi) / (2 n)

and the kernel-form posterior mean at the test rows, K*^T K^{-1} y with
K* = Z Z_test^T. Only the starting parameters come from the program
(``init_params``), since a record does not store them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtri
from scipy.stats import qmc

NLL_RTOL = 1e-9
RMSE_RTOL = 1e-8


class Problem:
    """The standardized train/test view of one workload's CSV."""

    def __init__(self, csv_path: str, train_fraction: float, split_seed: int):
        raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, dtype=np.float64)
        X, y = raw[:, :-1], raw[:, -1]
        n = X.shape[0]
        n_train = min(max(int(round(train_fraction * n)), 1), n - 1)
        perm = np.random.default_rng(split_seed).permutation(n)
        tr, te = np.sort(perm[:n_train]), np.sort(perm[n_train:])
        mean, sd = X[tr].mean(axis=0), X[tr].std(axis=0)
        scale = np.where(sd == 0.0, 1.0, sd)
        self.y_mean, self.y_scale = float(y[tr].mean()), float(y[tr].std()) or 1.0
        self.X = (X[tr] - mean) / scale
        self.y = (y[tr] - self.y_mean) / self.y_scale
        self.X_test = (X[te] - mean) / scale
        self.y_test_raw = y[te]


def _mlp(flat: np.ndarray, X: np.ndarray, hidden: int, out: int) -> np.ndarray:
    p = X.shape[1]
    w1 = flat[: hidden * p].reshape(hidden, p)
    b1 = flat[hidden * p : hidden * p + hidden]
    o = hidden * p + hidden
    w2 = flat[o : o + out * hidden].reshape(out, hidden)
    b2 = flat[o + out * hidden : o + out * hidden + out]
    return np.maximum(X @ w1.T + b1, 0.0) @ w2.T + b2


def _rff_frequencies(q: int, D: int, seed: int) -> np.ndarray:
    # the documented draw: the first D/2 points of a scrambled-Sobol
    # power-of-two block, squeezed off 0 and 1, through the normal inverse CDF
    m = D // 2
    sobol = qmc.Sobol(q, scramble=True, rng=np.random.default_rng(seed))
    points = sobol.random_base2((m - 1).bit_length())[:m]
    return ndtri(0.5 + (1.0 - 1e-10) * (points - 0.5))


class FeatureMap:
    """Independent forward pass of the workload's map, from a flat vector."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.W = None
        if cfg.feature_map == "mlp+rff":
            self.W = _rff_frequencies(cfg.mlp_out, cfg.rff_dim, cfg.init_seed + 1000)

    def __call__(self, flat: np.ndarray, X: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        Z = _mlp(flat, X, cfg.mlp_hidden, cfg.mlp_out)
        if self.W is None:
            return Z
        log_u1, log_u2 = flat[-2], flat[-1]
        args = (Z @ self.W.T) / math.exp(log_u1)
        amp = math.sqrt(2.0 * math.exp(log_u2) / cfg.rff_dim)
        return amp * np.hstack([np.cos(args), np.sin(args)])


def kernel_form(Z: np.ndarray, y: np.ndarray, s2: float, Z_test=None):
    """(normalized NLL, posterior mean at Z_test or None) from one n x n Cholesky."""
    n = Z.shape[0]
    K = Z @ Z.T
    K[np.diag_indices_from(K)] += s2
    L = np.linalg.cholesky(K)
    v = solve_triangular(L, y, lower=True)
    nll = (float(v @ v) + 2.0 * float(np.sum(np.log(np.diag(L)))) + n * math.log(2 * math.pi)) / (
        2 * n
    )
    if Z_test is None:
        return nll, None
    alpha = solve_triangular(L, v, lower=True, trans="T")
    return nll, Z_test @ (Z.T @ alpha)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_record(doc: dict, problem: Problem, phi: FeatureMap, init_nll: float, uphill: bool):
    """List of failed checks for one run record, as JSON (empty when it passes).

    ``uphill`` waives the progress check for a step rule known to move away
    from the start; the kernel-form recomputations still apply to it.
    """
    best = doc["best"]
    if doc["diverged"] or not math.isfinite(best["nll"]):
        return ["run diverged (best NLL %r)" % best["nll"]]
    flat = np.asarray(best["feature_flat"], dtype=np.float64)
    Z = phi(flat, problem.X)
    nll, mean = kernel_form(Z, problem.y, float(best["noise_variance"]), phi(flat, problem.X_test))
    errors = []
    if not uphill and not nll < init_nll:
        errors.append("no progress: kernel-form NLL %.12g at best vs %.12g at start" % (nll, init_nll))
    if doc["nll_kind"] == "exact" and _rel(best["nll"], nll) > NLL_RTOL:
        errors.append("best NLL %.17g differs from kernel form %.17g" % (best["nll"], nll))
    pred = mean * problem.y_scale + problem.y_mean
    rmse = math.sqrt(float(np.mean((pred - problem.y_test_raw) ** 2)))
    if _rel(best["test_rmse_marginal"], rmse) > RMSE_RTOL:
        errors.append(
            "test_rmse_marginal %.17g differs from kernel form %.17g"
            % (best["test_rmse_marginal"], rmse)
        )
    return errors


def start_nll(cfg, problem: Problem, phi: FeatureMap) -> float:
    """Kernel-form NLL at the run's starting parameters, taken from the program."""
    from stochgp.harness import build_feature_map

    flat = build_feature_map(cfg, problem.X.shape[1]).init_params(cfg.init_seed).flat
    return kernel_form(phi(flat, problem.X), problem.y, cfg.init_sigma2)[0]
