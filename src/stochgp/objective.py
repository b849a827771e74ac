"""Marginal-likelihood loss in ridge form: its parameters and its gradient body.

With features Z = phi(X) in R^{n x d} and noise variance s2, the loss being
minimized over (weights, feature params, noise) is

    (1/s2) ||Z w - y||^2 + ||w||^2 + logdet(Z^T Z + s2 I) + (n - d) log s2.

At the ridge minimizer over w this equals the kernel-space quantity
y^T (Z Z^T + s2 I)^{-1} y + logdet(Z Z^T + s2 I). The loss splits into a
sum of per-sample scalar terms plus a log-determinant of a sum of per-sample
matrix terms; the stochastic optimizers in :mod:`stochgp.optim` are built on
that split. This module holds what a run executes: the parameter point, the
information matrix and the linearized-gradient body the steps share. The
reference computations that check it (the per-sample terms, the whole loss,
the kernel-space oracle) are in :mod:`stochgp.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from stochgp._linalg import gram
from stochgp.features import FeatureBatch, FeatureMap, FeatureMapParams

__all__ = ["HyperParams", "ThetaGrad", "info_matrix"]


@dataclass(frozen=True)
class HyperParams:
    """The full parameter point: ridge weights, feature-map params, noise variance.

    Positivity of ``noise_variance`` is a precondition of the loss terms, not
    of construction, so that raw gradient steps can be represented before a
    projection restores feasibility. All entries must be finite.
    """

    weights: np.ndarray
    feature_params: FeatureMapParams
    noise_variance: float

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if w.ndim != 1:
            raise ValueError("weights must be a 1-d vector, got shape %s" % (w.shape,))
        if not np.isfinite(w).all():
            raise ValueError("weights contain non-finite entries")
        s2 = float(self.noise_variance)
        if not math.isfinite(s2):
            raise ValueError("noise_variance is not finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "noise_variance", s2)

    @property
    def d(self) -> int:
        return self.weights.shape[0]


class ThetaGrad(NamedTuple):
    """Gradient blocks matching HyperParams: (weights, flat feature params, noise)."""

    weights: np.ndarray
    feature_params: np.ndarray
    noise_variance: float

    def scaled(self, c: float) -> "ThetaGrad":
        return ThetaGrad(c * self.weights, c * self.feature_params, c * self.noise_variance)

    def added(self, other: "ThetaGrad") -> "ThetaGrad":
        return ThetaGrad(
            self.weights + other.weights,
            self.feature_params + other.feature_params,
            self.noise_variance + other.noise_variance,
        )

    def norm(self) -> float:
        return float(
            np.sqrt(
                np.sum(self.weights**2)
                + np.sum(self.feature_params**2)
                + self.noise_variance**2
            )
        )


def _check_noise(noise_variance: float) -> float:
    s2 = float(noise_variance)
    if s2 <= 0.0:
        raise ValueError("noise variance must be positive, got %g" % s2)
    return s2


def info_matrix(fmap: FeatureMap, theta: HyperParams, X: np.ndarray) -> np.ndarray:
    """Z^T Z + s2 I over the whole design matrix, the d x d information matrix."""
    s2 = _check_noise(theta.noise_variance)
    return gram(fmap.forward(theta.feature_params, X).Z, s2)


def _linearized_core(
    fmap: FeatureMap,
    theta: HyperParams,
    batch: FeatureBatch,
    y_batch: np.ndarray,
    ZM: np.ndarray,
    trace_M: float,
    n_total: int,
) -> ThetaGrad:
    """Gradient over theta of the batch loss linearized at M, given the batch's features.

    That loss is sum_{i in batch} [loss_term_i + <M, info_term_i>]; the step
    rules, the evaluator and ``oracles.grad_theta_of_linearized`` share this
    body. M enters only through ZM = Z (M + M^T), the s x d coupling term of the
    feature upstream, and its trace, the noise-variance term. Callers form
    them however suits their M: the step rules and the evaluator multiply by
    an explicit M, ``scgd_step`` applies the tracker's inverse through its
    Cholesky factor without ever forming it.
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
    upstream = (2.0 / s2) * r[:, None] * w[None, :] + ZM
    g_alpha = fmap.backward(theta.feature_params, batch, upstream)
    g_s2 = (
        -float(r @ r) / (s2 * s2)
        + s * (n - d) / (n * s2)
        + s * trace_M / n
    )
    return ThetaGrad(g_w, g_alpha, g_s2)
