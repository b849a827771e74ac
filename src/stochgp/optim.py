"""Stochastic optimizers over the decomposed loss, with their projections.

Three step rules share the per-sample split from :mod:`stochgp.objective`:

* ``minimax_step``: the log-determinant coupling is relaxed through an
  auxiliary surrogate matrix A constrained to dominate the noise floor, with
  the constraint A = sum of per-sample information terms enforced by a
  penalty paired against a dual matrix B on the unit Frobenius ball;
  alternating projected gradient steps descend in (theta, A) and ascend in B.
  The dual gradient is evaluated at the freshly updated primal point.
* ``scgd_step``: a two-rate compositional method that tracks the full
  information matrix with an exponentially weighted average and linearizes
  the log-determinant at the tracked value. The parameter step uses the
  incoming tracker; the tracker then averages toward the rescaled batch
  estimate at the pre-step parameters.
* ``bsgd_step``: the biased baseline that differentiates the batch-restricted
  loss directly, deliberately without the dataset-over-batch rescaling of the
  information sum, so its descent direction does not average to the full
  gradient for small batches.

Per-batch stochastic gradients of the penalty objective are unbiased: the
batch estimate is (n/s) times the sum over a uniformly drawn batch of s
sample terms. The per-sample penalized objective and its batch gradients
as one call are in :mod:`stochgp.oracles`, which checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from stochgp._linalg import (
    NotPositiveDefiniteError,
    chol_lower,
    chol_solve,
    diagonal,
    frobenius,
    gram,
    spd_inverse,
    symmetrize,
    tri_inverse_lower,
    try_chol_lower,
)
from stochgp.features import FeatureMap, FeatureMapParams
from stochgp.objective import HyperParams, ThetaGrad, _linearized_core, info_matrix

__all__ = [
    "AugmentedState",
    "MinimaxConfig",
    "SCGDState",
    "Schedule",
    "bsgd_step",
    "minimax_init",
    "minimax_step",
    "project_dual_ball",
    "project_primal",
    "scgd_init",
    "scgd_step",
    "schedule_at",
]

TRACKER_FLOOR = 1e-10


def _square_f64(A: np.ndarray, d: int, name: str) -> np.ndarray:
    A = np.ascontiguousarray(np.asarray(A, dtype=np.float64))
    if A.shape != (d, d):
        raise ValueError("%s must be %d x %d, got %s" % (name, d, d, A.shape))
    if not np.isfinite(A).all():
        raise ValueError("%s contains non-finite entries" % name)
    return A


@dataclass(frozen=True)
class AugmentedState:
    """Primal state of the penalty method: parameters plus the surrogate matrix."""

    theta: HyperParams
    info_surrogate: np.ndarray

    def __post_init__(self):
        A = _square_f64(self.info_surrogate, self.theta.d, "info_surrogate")
        object.__setattr__(self, "info_surrogate", A)


@dataclass(frozen=True)
class SCGDState:
    """Compositional-method state: parameters, tracked information matrix, step count."""

    theta: HyperParams
    tracked_info: np.ndarray
    step: int = 0

    def __post_init__(self):
        F = _square_f64(self.tracked_info, self.theta.d, "tracked_info")
        object.__setattr__(self, "tracked_info", F)
        if self.step < 0:
            raise ValueError("step must be non-negative")


@dataclass(frozen=True)
class MinimaxConfig:
    """Step sizes, penalty weight, and feasible-set bounds for the penalty method.

    Zero rates and zero penalty are admitted so degenerate cases stay
    expressible in tests; production runs use strictly positive values.
    """

    primal_rate: float
    dual_rate: float
    penalty: float = 1.0
    sigma_min: float = 1e-3
    coord_bound: float = 1e6
    eig_bound: float = 1e6

    def __post_init__(self):
        if self.primal_rate < 0 or self.dual_rate < 0:
            raise ValueError("step sizes must be non-negative")
        if self.penalty < 0:
            raise ValueError("penalty must be non-negative")
        if self.sigma_min <= 0:
            raise ValueError("sigma_min must be positive")
        if self.coord_bound <= 0 or self.eig_bound <= 0:
            raise ValueError("bounds must be positive")
        # both caps must leave room for the noise floor, or no state is feasible
        floor = self.sigma_min * self.sigma_min
        for name in ("coord_bound", "eig_bound"):
            if getattr(self, name) < floor:
                raise ValueError(
                    "%s = %g is below sigma_min**2 = %g, so no state is feasible"
                    % (name, getattr(self, name), floor)
                )


@dataclass(frozen=True)
class Schedule:
    """Step-size schedule: constant, or the polynomial decay (t^-3/4, t^-1/2)."""

    kind: str
    a0: float
    b0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial"):
            raise ValueError("kind must be 'constant' or 'polynomial'")
        if not (0.0 < self.a0 < math.inf and 0.0 < self.b0 < math.inf):
            raise ValueError("base rates must be finite and positive")
        if self.kind == "constant" and self.b0 > 1.0:
            raise ValueError("constant averaging weight must lie in (0, 1]")


def schedule_at(s: Schedule, t: int) -> tuple[float, float]:
    """Rates (a_t, b_t) at iteration t >= 1; the averaging weight is capped at 1."""
    if t < 1:
        raise ValueError("iteration index starts at 1")
    if s.kind == "constant":
        return s.a0, s.b0
    return s.a0 * float(t) ** -0.75, min(1.0, s.b0 * float(t) ** -0.5)


def _rows(A, batch) -> np.ndarray:
    """Rows of A as float64 at a batch's index array."""
    return np.asarray(A, dtype=np.float64)[np.asarray(batch, dtype=np.int64)]


def _surrogate_norm(A: np.ndarray) -> float:
    norm = frobenius(A)
    if norm == 0.0:
        raise ValueError("surrogate matrix is zero; its norm divides the penalty term")
    return norm


def _primal_grads(
    fmap: FeatureMap,
    zeta: AugmentedState,
    B: np.ndarray,
    X_batch: np.ndarray,
    y_batch: np.ndarray,
    n: int,
    penalty: float,
) -> tuple[ThetaGrad, np.ndarray, np.ndarray]:
    """(theta blocks, symmetrized surrogate block, batch info sum) at zeta.

    The blocks are the gradients of (n/s) times the batch sum of
    ``oracles.minimax_sample_objective``.
    """
    theta = zeta.theta
    A = zeta.info_surrogate
    norm = _surrogate_norm(A)
    s = X_batch.shape[0]

    batch = fmap.forward(theta.feature_params, X_batch)
    M = (-penalty / norm) * B
    g_theta = _linearized_core(
        fmap, theta, batch, y_batch, batch.Z @ (M + M.T), float(np.trace(M)), n
    ).scaled(n / s)

    info_sum = gram(batch.Z, s * theta.noise_variance / n)

    inner = float(np.sum(B * ((s / n) * A - info_sum)))
    g_A = (
        spd_inverse(A)
        + (penalty / norm) * B
        - (penalty * (n / s) * inner / norm**3) * A
    )
    return g_theta, symmetrize(g_A), info_sum


def _dual_grad(
    A: np.ndarray, info_sum: np.ndarray, n: int, s: int, penalty: float
) -> np.ndarray:
    """Ascent direction for B: penalty * (A - (n/s) * batch info sum) / ||A||_F."""
    return (penalty / _surrogate_norm(A)) * (A - (n / s) * info_sum)


def _descend(theta: HyperParams, g: ThetaGrad, a: float, sigma_min: float) -> HyperParams:
    """theta - a g, with the noise variance held at or above sigma_min^2."""
    return HyperParams(
        theta.weights - a * g.weights,
        theta.feature_params.with_flat(theta.feature_params.flat - a * g.feature_params),
        max(theta.noise_variance - a * g.noise_variance, sigma_min * sigma_min),
    )


def project_dual_ball(B: np.ndarray) -> np.ndarray:
    """Radial projection onto the unit Frobenius ball; interior points pass through."""
    norm = frobenius(B)
    if norm <= 1.0:
        return B
    return B / norm


def project_primal(
    zeta: AugmentedState,
    sigma_min: float,
    coord_bound: float = 1e6,
    eig_bound: float = 1e6,
) -> AugmentedState:
    """Sequential projection onto the primal feasible set.

    Order matters: (1) clamp the noise variance to [sigma_min^2, coord_bound];
    (2) clamp every weight and feature-map coordinate to [-coord_bound,
    coord_bound]; (3) symmetrize the surrogate and clamp its eigenvalues to
    [clamped noise variance, eig_bound]. This is a composition of per-block
    projections, not the Euclidean projection onto the joint set (the
    surrogate's feasible cone depends on the clamped noise), so it is
    non-expansive within each block for a fixed feasible set but not jointly;
    its fixed points are exactly the feasible states.

    The eigendecomposition is skipped when a Cholesky certificate shows the
    shifted surrogate is already positive definite and the Frobenius norm
    (an upper bound on the top eigenvalue) clears the eigenvalue cap.
    """
    theta = zeta.theta
    return _project(
        theta.weights,
        theta.feature_params.flat,
        theta.noise_variance,
        zeta.info_surrogate,
        theta.feature_params,
        sigma_min,
        coord_bound,
        eig_bound,
    )


def _project(
    weights: np.ndarray,
    flat: np.ndarray,
    noise_variance: float,
    A: np.ndarray,
    like: FeatureMapParams,
    sigma_min: float,
    coord_bound: float,
    eig_bound: float,
) -> AugmentedState:
    """project_primal on raw blocks; ``like`` supplies the feature-map layout.

    The blocks are checked once, on entry: np.clip would pull an infinite
    coordinate back into the box, so a check after the projection would let
    an overflowed step go on. From finite blocks every value below is
    finite, so the projected state is assembled without checking it again.
    """
    s2 = max(noise_variance, sigma_min * sigma_min)
    if not np.isfinite(weights).all():
        raise ValueError("weights contain non-finite entries")
    if not math.isfinite(s2):
        raise ValueError("noise_variance is not finite")
    A = _square_f64(A, weights.shape[0], "info_surrogate")
    s2 = float(min(s2, coord_bound))
    w = np.clip(weights, -coord_bound, coord_bound)
    alpha = like.with_flat(np.clip(flat, -coord_bound, coord_bound))

    A = symmetrize(A)
    shifted = A.copy()
    diagonal(shifted)[...] -= s2
    if try_chol_lower(shifted) is None or frobenius(A) > eig_bound:
        vals, vecs = np.linalg.eigh(A)
        np.clip(vals, s2, eig_bound, out=vals)
        A = symmetrize((vecs * vals) @ vecs.T)
    theta = _unchecked(HyperParams, weights=w, feature_params=alpha, noise_variance=s2)
    return _unchecked(AugmentedState, theta=theta, info_surrogate=A)


def _unchecked(cls, **fields):
    """A frozen dataclass from fields already known valid, skipping __post_init__."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def minimax_init(
    fmap: FeatureMap,
    theta: HyperParams,
    X: np.ndarray,
    batch_indices: Sequence[int] | np.ndarray | None = None,
) -> tuple[AugmentedState, np.ndarray]:
    """Initial (primal state, dual matrix).

    The surrogate starts at the assembled information matrix from one full
    pass, or at the rescaled batch estimate when ``batch_indices`` is given
    (streaming mode, no full pass over the data). The dual starts at zero.
    """
    d = fmap.output_dim
    if batch_indices is None:
        A = info_matrix(fmap, theta, X)
    else:
        Z = fmap.forward(theta.feature_params, _rows(X, batch_indices)).Z
        A = _batch_info(Z, len(X), theta.noise_variance)
    return AugmentedState(theta, A), np.zeros((d, d))


def minimax_step(
    fmap: FeatureMap,
    zeta: AugmentedState,
    dual: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    batch_primal,
    batch_dual,
    cfg: MinimaxConfig,
) -> tuple[AugmentedState, np.ndarray]:
    """One alternating update: primal descent, project; dual ascent, project.

    The primal gradient is taken at the incoming state on ``batch_primal``;
    the dual gradient is taken at the *updated* primal state on
    ``batch_dual``. Callers wanting a single shared batch pass the same
    indices twice.
    """
    n = len(X)
    B = _square_f64(dual, zeta.theta.d, "dual")
    g_theta, g_A, _ = _primal_grads(
        fmap, zeta, B, _rows(X, batch_primal), _rows(y, batch_primal), n, cfg.penalty
    )
    a = cfg.primal_rate
    theta = zeta.theta
    # the step of _descend; _project checks it and clamps the noise
    zeta_next = _project(
        theta.weights - a * g_theta.weights,
        theta.feature_params.flat - a * g_theta.feature_params,
        theta.noise_variance - a * g_theta.noise_variance,
        zeta.info_surrogate - a * g_A,
        theta.feature_params,
        cfg.sigma_min,
        cfg.coord_bound,
        cfg.eig_bound,
    )

    s2 = zeta_next.theta.noise_variance
    Z = fmap.forward(zeta_next.theta.feature_params, _rows(X, batch_dual)).Z
    s = Z.shape[0]
    info_sum = gram(Z, s * s2 / n)
    g_dual = _dual_grad(zeta_next.info_surrogate, info_sum, n, s, cfg.penalty)
    dual_next = project_dual_ball(B + cfg.dual_rate * g_dual)
    return zeta_next, dual_next


def scgd_init(fmap: FeatureMap, theta: HyperParams, X: np.ndarray) -> SCGDState:
    """Start the tracker at the exactly assembled information matrix."""
    return SCGDState(theta, info_matrix(fmap, theta, X), 0)


def _batch_info(Z: np.ndarray, n: int, noise_variance: float) -> np.ndarray:
    """(n/s) Z^T Z + s2 I: the information matrix estimated from s batch rows."""
    F = (n / Z.shape[0]) * gram(Z)
    diagonal(F)[...] += noise_variance
    return F


def _floor_spd(F: np.ndarray, floor: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(F)
    np.clip(vals, floor, None, out=vals)
    return symmetrize((vecs * vals) @ vecs.T)


def scgd_step(
    fmap: FeatureMap,
    state: SCGDState,
    X: np.ndarray,
    y: np.ndarray,
    batch,
    a_t: float,
    b_t: float,
    sigma_min: float = 1e-3,
) -> SCGDState:
    """One compositional update.

    Parameters move against the gradient of the batch loss linearized at the
    tracked information matrix (applied through its Cholesky factor, never an
    explicit inverse); the tracker then takes a convex step toward the
    rescaled batch information sum evaluated at the pre-step parameters.
    """
    if not 0.0 < b_t <= 1.0:
        raise ValueError("averaging weight must lie in (0, 1]")
    if a_t < 0.0:
        raise ValueError("step size must be non-negative")
    n = len(X)
    theta = state.theta

    F = state.tracked_info
    try:
        L = chol_lower(F)
    except NotPositiveDefiniteError:
        # the convex tracker update keeps this positive definite in exact
        # arithmetic; restore the floor and retry before giving up
        F = _floor_spd(F, TRACKER_FLOOR)
        L = chol_lower(F, "tracked information matrix at iteration %d" % state.step)

    fb = fmap.forward(theta.feature_params, _rows(X, batch))
    Z = fb.Z
    # row i of Z (M + M^T) is 2 (tracker^{-1} phi_i)^T for M = tracker^{-1}
    ZM = 2.0 * chol_solve(L, Z.T).T
    # row-major: np.sum below adds in memory order, and records depend on it
    Li = np.ascontiguousarray(tri_inverse_lower(L))
    g = _linearized_core(fmap, theta, fb, _rows(y, batch), ZM, float(np.sum(Li * Li)), n)
    theta_next = _descend(theta, g, a_t, sigma_min)

    tracked = symmetrize((1.0 - b_t) * F + b_t * _batch_info(Z, n, theta.noise_variance))
    return SCGDState(theta_next, tracked, state.step + 1)


def bsgd_step(
    fmap: FeatureMap,
    theta: HyperParams,
    X: np.ndarray,
    y: np.ndarray,
    batch,
    a_t: float,
    sigma_min: float = 1e-3,
) -> HyperParams:
    """One step against the gradient of the batch-restricted loss.

    The weight matrix is the inverse of the *unscaled* batch information sum,
    which is the source of this method's small-batch bias.
    """
    if a_t < 0.0:
        raise ValueError("step size must be non-negative")
    n = len(X)
    X_batch = _rows(X, batch)
    s = X_batch.shape[0]
    if s == 0:
        raise ValueError("batch must be non-empty")

    fb = fmap.forward(theta.feature_params, X_batch)
    M = spd_inverse(gram(fb.Z, s * theta.noise_variance / n))
    g = _linearized_core(
        fmap, theta, fb, _rows(y, batch), fb.Z @ (M + M.T), float(np.trace(M)), n
    )
    return _descend(theta, g, a_t, sigma_min)
