"""Marginal-likelihood loss in ridge form, its per-sample split, and exact oracles.

With features Z = phi(X) in R^{n x d} and noise variance s2, the loss being
minimized over (weights, feature params, noise) is

    (1/s2) ||Z w - y||^2 + ||w||^2 + logdet(Z^T Z + s2 I) + (n - d) log s2.

At the ridge minimizer over w this equals the kernel-space quantity
y^T (Z Z^T + s2 I)^{-1} y + logdet(Z Z^T + s2 I), which is what
``exact_nll_oracle`` computes directly at test scale. The loss splits into a
sum of per-sample scalar terms plus a log-determinant of a sum of per-sample
matrix terms; the stochastic optimizers in :mod:`stochgp.optim` are built on
that split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from stochgp._linalg import chol_lower, chol_solve, diagonal, gram, logdet_from_chol, spd_solve
from stochgp.features import FeatureBatch, FeatureMap, FeatureMapParams

__all__ = [
    "HyperParams",
    "ThetaGrad",
    "exact_nll_oracle",
    "full_loss",
    "grad_theta_of_linearized",
    "info_matrix",
    "logdet_psd",
    "ridge_closed_form",
    "ridge_identity_check",
    "sample_info_term",
    "sample_loss_term",
]


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


def sample_loss_term(
    fmap: FeatureMap,
    theta: HyperParams,
    x: np.ndarray,
    y: float,
    n_total: int,
) -> float:
    """Scalar loss share of one sample.

    (1/s2) (phi(x)^T w - y)^2 + (1/n) ||w||^2 + ((n - d)/n) log s2.
    """
    s2 = _check_noise(theta.noise_variance)
    n = int(n_total)
    d = fmap.output_dim
    phi = fmap.forward(theta.feature_params, np.asarray(x, dtype=np.float64)[None, :]).Z[0]
    r = float(phi @ theta.weights) - float(y)
    return r * r / s2 + float(theta.weights @ theta.weights) / n + (n - d) / n * np.log(s2)


def sample_info_term(
    fmap: FeatureMap,
    theta: HyperParams,
    x: np.ndarray,
    n_total: int,
) -> np.ndarray:
    """Matrix share of one sample: phi(x) phi(x)^T + (s2/n) I, a d x d array."""
    s2 = _check_noise(theta.noise_variance)
    n = int(n_total)
    phi = fmap.forward(theta.feature_params, np.asarray(x, dtype=np.float64)[None, :]).Z[0]
    F = np.outer(phi, phi)
    diagonal(F)[...] += s2 / n
    return F


def info_matrix(fmap: FeatureMap, theta: HyperParams, X: np.ndarray) -> np.ndarray:
    """Z^T Z + s2 I over the whole design matrix, the d x d information matrix."""
    s2 = _check_noise(theta.noise_variance)
    return gram(fmap.forward(theta.feature_params, X).Z, s2)


def logdet_psd(A: np.ndarray) -> float:
    """Log-determinant via Cholesky; raises NotPositiveDefiniteError with the pivot."""
    return logdet_from_chol(chol_lower(np.asarray(A, dtype=np.float64), "logdet"))


def full_loss(fmap: FeatureMap, theta: HyperParams, X: np.ndarray, y: np.ndarray) -> float:
    """The whole-dataset loss l(theta); see the module docstring for the formula."""
    s2 = _check_noise(theta.noise_variance)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    d = fmap.output_dim
    Z = fmap.forward(theta.feature_params, X).Z
    resid = Z @ theta.weights - y
    return (
        float(resid @ resid) / s2
        + float(theta.weights @ theta.weights)
        + logdet_psd(gram(Z, s2))
        + (n - d) * np.log(s2)
    )


def ridge_closed_form(Z: np.ndarray, y: np.ndarray, sigma2: float) -> np.ndarray:
    """Minimizer of (1/s2) ||Z w - y||^2 + ||w||^2, i.e. (Z^T Z + s2 I)^{-1} Z^T y."""
    s2 = _check_noise(sigma2)
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return spd_solve(gram(Z, s2), Z.T @ y, "ridge solve")


def exact_nll_oracle(
    fmap: FeatureMap,
    feature_params: FeatureMapParams,
    sigma2: float,
    X: np.ndarray,
    y: np.ndarray,
) -> float:
    """Kernel-space reference value y^T (Z Z^T + s2 I)^{-1} y + logdet(Z Z^T + s2 I).

    Forms the n x n covariance explicitly, so intended for test-scale n only.
    """
    s2 = _check_noise(sigma2)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Z = fmap.forward(feature_params, X).Z
    L = chol_lower(gram(Z.T, s2), "kernel covariance")
    quad = float(y @ chol_solve(L, y))
    return quad + logdet_from_chol(L)


def ridge_identity_check(V: np.ndarray, b: np.ndarray, lam: float) -> tuple[float, float]:
    """Both sides of the dual-ridge identity, for direct numerical comparison.

    lhs = b^T (V V^T + lam I)^{-1} b, rhs = the primal ridge objective
    (1/lam) ||V w - b||^2 + ||w||^2 at its closed-form minimizer.
    """
    lam = _check_noise(lam)
    V = np.asarray(V, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lhs = float(b @ spd_solve(gram(V.T, lam), b, "dual ridge"))
    w = ridge_closed_form(V, b, lam)
    r = V @ w - b
    rhs = float(r @ r) / lam + float(w @ w)
    return lhs, rhs


def grad_theta_of_linearized(
    fmap: FeatureMap,
    theta: HyperParams,
    X_batch: np.ndarray,
    y_batch: np.ndarray,
    M: np.ndarray,
    n_total: int,
) -> ThetaGrad:
    """Gradient over theta of sum_{i in batch} [loss_term_i + <M, info_term_i>].

    M is held fixed (it plays the role of an inverse information-matrix
    estimate). The feature-direction upstream for sample i is
    (2/s2) r_i w + (M + M^T) phi_i, routed through the map's backward pass;
    (M + M^T) phi reduces to 2 M phi for the symmetric M used in practice but
    keeps finite-difference checks honest for arbitrary M.
    """
    M = np.asarray(M, dtype=np.float64)
    d = fmap.output_dim
    if M.shape != (d, d):
        raise ValueError("M must be %d x %d, got %s" % (d, d, M.shape))
    X_batch = np.asarray(X_batch, dtype=np.float64)
    batch = fmap.forward(theta.feature_params, X_batch)
    return _linearized_core(
        fmap, theta, batch, y_batch, batch.Z @ (M + M.T), float(np.trace(M)), n_total
    )


def _linearized_core(
    fmap: FeatureMap,
    theta: HyperParams,
    batch: FeatureBatch,
    y_batch: np.ndarray,
    ZM: np.ndarray,
    trace_M: float,
    n_total: int,
) -> ThetaGrad:
    """Gradient body shared with the optimizer steps, given precomputed features.

    M enters only through ZM = Z (M + M^T), the s x d coupling term of the
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
