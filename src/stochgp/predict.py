"""Posterior prediction in feature space, and test metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stochgp._linalg import chol_lower, chol_solve
from stochgp.features import FeatureMap
from stochgp.objective import _check_noise, _feature_blocks, _ridge_system

__all__ = ["Posterior", "posterior", "rmse"]


@dataclass(frozen=True)
class Posterior:
    """Predictive mean and variance per test point; variance includes the noise."""

    mean: np.ndarray
    variance: np.ndarray


def posterior(
    fmap: FeatureMap,
    feature_params: np.ndarray,
    sigma2: float,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
) -> Posterior:
    """Gaussian predictive distribution at the test rows.

    With train features Z and a test feature row z: mean = z^T (Z^T Z +
    sigma2 I)^{-1} Z^T y and variance = sigma2 * (1 + z^T (Z^T Z + sigma2
    I)^{-1} z), all through a single Cholesky factorization. The training
    rows and then the test rows are passed over in row blocks (see
    ``stochgp.objective.BLOCK_FLOATS``), so beyond the inputs and the two
    length-t outputs the memory held is O(block (hidden + d) + d^2). The
    mean equals a run's marginal test prediction, whose ridge weights come
    from the evaluator's factor of the same system.
    """
    s2 = _check_noise(sigma2)
    X_train = np.asarray(X_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    F, Zty, _ = _ridge_system(fmap, feature_params, s2, X_train, y_train)
    L = chol_lower(F, "posterior information matrix")
    w = chol_solve(L, Zty)
    mean, variance = [], []
    for _, batch in _feature_blocks(fmap, feature_params, np.asarray(X_test, dtype=np.float64)):
        Zs = batch.Z
        mean.append(Zs @ w)
        variance.append(s2 * (1.0 + np.einsum("td,dt->t", Zs, chol_solve(L, Zs.T))))
    return Posterior(np.concatenate(mean), np.concatenate(variance))


def rmse(pred: np.ndarray, y: np.ndarray) -> float:
    """Root mean squared error."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ValueError("length mismatch: %s vs %s" % (pred.shape, y.shape))
    return float(np.sqrt(np.mean((pred - y) ** 2)))
