"""Marginal-likelihood loss in ridge form: its parameters and its gradient body.

With features Z = phi(X) in R^{n x d} and noise variance s2, the loss being
minimized over (weights, feature params, noise) is

    (1/s2) ||Z w - y||^2 + ||w||^2 + logdet(Z^T Z + s2 I) + (n - d) log s2.

At the ridge minimizer over w this equals the kernel-space quantity
y^T (Z Z^T + s2 I)^{-1} y + logdet(Z Z^T + s2 I). The loss splits into a
sum of per-sample scalar terms plus a log-determinant of a sum of per-sample
matrix terms; the stochastic optimizers in :mod:`stochgp.optim` are built on
that split. This module holds what a run executes: the parameter point, the
information matrix and the linearized-gradient body the steps share, and the
row-blocked pass over the data that the start, the per-epoch evaluation and
the prediction share. The reference computations that check it (the
per-sample terms, the whole loss, the kernel-space oracle) are in
:mod:`stochgp.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from stochgp._linalg import gram_upper, mirror_upper
from stochgp.features import FeatureBatch, FeatureMap

__all__ = ["BLOCK_FLOATS", "HyperParams", "info_matrix"]

# A pass over the data computes the features of at most max(1, BLOCK_FLOATS // d)
# rows at a time: one block's n x d features then take 512 KiB, the size of one
# 256 x 256 work matrix, so the pass holds O(block (hidden + d) + d^2) floats
# whatever the number of rows.
BLOCK_FLOATS = 2**16


@dataclass(frozen=True, eq=False)
class HyperParams:
    """The full parameter point: ridge weights, feature-map params, noise variance.

    Stored once, as ``flat``: one read-only float64 vector (weights, the
    map's parameters, noise variance), the layout of every gradient over
    theta. ``weights`` and ``feature_params`` are views of it, made once, so
    a feature batch ties to ``feature_params`` by identity. Positivity of
    ``noise_variance`` is a precondition of the loss terms, not of
    construction, so that raw gradient steps can be represented before a
    projection restores feasibility. All entries must be finite. Points
    compare and hash by identity: two arrays have no one truth value.
    """

    weights: np.ndarray
    feature_params: np.ndarray
    noise_variance: float
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-d vector, got shape %s" % (w.shape,))
        alpha = np.asarray(self.feature_params, dtype=np.float64)
        if alpha.ndim != 1:
            raise ValueError("flat parameter vector must be 1-d")
        self._wrap(np.concatenate((w, alpha, (float(self.noise_variance),))), w.shape[0])

    def _wrap(self, flat: np.ndarray, d: int) -> "HyperParams":
        """Check ``flat`` once, freeze it and set the views of its d weights and the rest."""
        if not np.isfinite(flat).all():
            if not np.isfinite(flat[:d]).all():
                raise ValueError("weights contain non-finite entries")
            if not np.isfinite(flat[d:-1]).all():
                raise ValueError("feature parameters contain non-finite entries")
            raise ValueError("noise_variance is not finite")
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "weights", flat[:d])
        object.__setattr__(self, "feature_params", flat[d:-1])
        object.__setattr__(self, "noise_variance", float(flat[-1]))
        return self

    @property
    def d(self) -> int:
        return self.weights.shape[0]

    def with_flat(self, v: np.ndarray) -> "HyperParams":
        """The checked point whose ``flat`` is a copy of v, so a later write to v moves nothing.

        v must have this point's shape: a vector of another length would hand
        its shortfall or surplus to the noise variance, so it is rejected.
        """
        flat = np.array(v, dtype=np.float64)
        if flat.shape != self.flat.shape:
            raise ValueError(
                "theta vector has shape %s, this point's flat has shape %s"
                % (flat.shape, self.flat.shape)
            )
        return object.__new__(HyperParams)._wrap(flat, self.d)


def _check_noise(noise_variance: float) -> float:
    s2 = float(noise_variance)
    if s2 <= 0.0:
        raise ValueError("noise variance must be positive, got %g" % s2)
    return s2


def _row_blocks(n: int, d: int, rows: int | None = None) -> list[slice]:
    """Consecutive slices of ``rows`` rows each (the last may be short) covering n rows.

    ``rows`` defaults to max(1, BLOCK_FLOATS // d). No rows still make one
    empty block, so a pass over them gives what one over an empty Z would.
    """
    step = max(1, BLOCK_FLOATS // d) if rows is None else rows
    return [slice(start, min(start + step, n)) for start in range(0, max(n, 1), step)]


def _feature_blocks(fmap: FeatureMap, feature_params: np.ndarray, X: np.ndarray):
    """(row slice, FeatureBatch) of each row block of X in turn, one block computed at a time."""
    for rows in _row_blocks(len(X), fmap.output_dim):
        yield rows, fmap.forward(feature_params, X[rows])


def _ridge_system(
    fmap: FeatureMap,
    feature_params: np.ndarray,
    s2: float,
    X: np.ndarray,
    y: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, FeatureBatch | None]:
    """(Z^T Z + s2 I, Z^T y, batch) from one pass over the row blocks of X.

    The blocks' upper triangles and products are summed in row order, and
    the sum is mirrored and shifted by s2 once. That equals the sum of the
    blocks' grams plus s2 I bit for bit, and gram(Z, s2) for a single block.
    Z^T y is None when y is. ``batch`` is X's FeatureBatch when X is a
    single block, for a second pass to reuse, and None otherwise.
    """
    for k, (rows, batch) in enumerate(_feature_blocks(fmap, feature_params, X)):
        Z = batch.Z
        if k == 0:
            F = gram_upper(Z)
            Zty = None if y is None else Z.T @ y[rows]
        else:
            F += gram_upper(Z)
            if y is not None:
                Zty += Z.T @ y[rows]
    return mirror_upper(F, s2), Zty, batch if k == 0 else None


def info_matrix(fmap: FeatureMap, theta: HyperParams, X: np.ndarray) -> np.ndarray:
    """Z^T Z + s2 I over every row of X, the d x d information matrix.

    The features are computed and their grams summed one row block at a time
    (see ``BLOCK_FLOATS``), so the n x d matrix Z is never held whole.
    """
    s2 = _check_noise(theta.noise_variance)
    return _ridge_system(fmap, theta.feature_params, s2, X)[0]


def _linearized_core(
    fmap: FeatureMap,
    theta: HyperParams,
    batch: FeatureBatch,
    y_batch: np.ndarray,
    S: np.ndarray,
    n_total: int,
) -> np.ndarray:
    """Gradient over theta of the batch loss linearized at M, given the batch's features.

    That loss is sum_{i in batch} [loss_term_i + <M, info_term_i>]; the step
    rules, the evaluator and ``oracles.grad_theta_of_linearized`` share this
    body. M enters through S = M + M^T: Z S is the s x d coupling term of the
    feature upstream, and tr M = tr S / 2 the noise-variance term (exact,
    since doubling is). Callers pass M + M^T, not 2 M: an inverse from
    ``chol_inverse``'s gemm, or a dual from outside, need not be exactly
    symmetric, and the sum always is. The gradient is laid out as
    ``HyperParams.flat``.
    """
    s2 = _check_noise(theta.noise_variance)
    y_batch = np.asarray(y_batch, dtype=np.float64)
    n = int(n_total)
    d = fmap.output_dim
    Z = batch.Z
    s = Z.shape[0]
    w = theta.weights
    r = Z @ w - y_batch

    g_w = (2.0 / s2) * (Z.T @ r) + (2.0 * s / n) * w
    upstream = (2.0 / s2) * r[:, None] * w[None, :] + Z @ S
    g_alpha = fmap.backward(theta.feature_params, batch, upstream)
    g_s2 = (
        -float(r @ r) / (s2 * s2)
        + s * (n - d) / (n * s2)
        + s * (0.5 * float(np.trace(S))) / n
    )
    return np.concatenate((g_w, g_alpha, (g_s2,)))
