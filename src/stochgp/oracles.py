"""Reference computations that check the training path; no run calls them.

They restate the loss of :mod:`stochgp.objective` sample by sample
(``sample_loss_term``, ``sample_info_term``) and whole (``full_loss``), give
the ridge minimizer and the n x n kernel-space NLL it must match
(``ridge_closed_form``, ``exact_nll_oracle``), and the penalized objective of
``minimax_step`` per sample with its batch gradients (which run the step's
own gradient body). They form n x n or per-sample arrays: test-scale data
only. A gradient over theta is a vector in ``HyperParams.flat``'s layout,
the vector that finite differences perturb.

Each of the paper's exactness identities has one body here that takes an
instance and returns its measured gap: ``ridge_gaps`` and
``ridge_minimum_gap`` (ridge and kernel forms), ``decomposition_gap``
(per-sample decomposition), the ``*_grad_errors``/``*_grad_error`` and
``backward_error`` bodies (gradients against central differences,
``fd_grad``, ``fd_grad_matrix_sym``), ``enumeration_gaps`` and ``baseline_bias`` (unbiasedness by
batch enumeration), ``coincidence_gap`` (full-batch ``scgd`` is ``bsgd``),
and ``feasibility_gaps``, ``projection_gaps`` and ``dual_ball_gaps``
(projections). ``stochgp check`` (``self_checks``), the acceptance scorecard
and the unit tests all call these bodies. ``self_checks`` also checks that
``RFFMap`` draws what ``scipy.stats.qmc`` draws, through the private Sobol
engine it binds, and that its tangent-formed features agree with libm's cos
and sin (``rff_trig_error``).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from stochgp._linalg import chol_lower, chol_solve, diagonal, gram, logdet_from_chol, symmetrize
from stochgp.features import FeatureMap, LinearMap, MLPMap, MLPSpec, RFFMap
from stochgp.objective import HyperParams, _check_noise, _linearized_core
from stochgp.optim import (
    AugmentedState,
    SCGDState,
    _dual_grad,
    _primal_grads,
    _square_f64,
    _surrogate_norm,
    bsgd_step,
    project_dual_ball,
    project_primal,
    scgd_init,
    scgd_step,
)

__all__ = [
    "ProjectionGaps",
    "backward_error",
    "baseline_bias",
    "bsgd_grad_error",
    "coincidence_gap",
    "decomposition_gap",
    "dual_ball_gaps",
    "enumeration_gaps",
    "exact_nll_oracle",
    "fd_grad",
    "fd_grad_matrix_sym",
    "feasibility_gaps",
    "full_loss",
    "grad_theta_of_linearized",
    "linearized_grad_error",
    "logdet_psd",
    "max_rel_error",
    "minimax_batch_grads",
    "minimax_sample_objective",
    "penalized_grad_errors",
    "projection_gaps",
    "rff_trig_error",
    "ridge_closed_form",
    "ridge_gaps",
    "ridge_identity_check",
    "ridge_minimum_gap",
    "sample_info_term",
    "sample_loss_term",
    "scgd_grad_error",
    "self_checks",
]


def sample_loss_term(
    fmap: FeatureMap, theta: HyperParams, x: np.ndarray, y: float, n_total: int
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
    fmap: FeatureMap, theta: HyperParams, x: np.ndarray, n_total: int
) -> np.ndarray:
    """Matrix share of one sample: phi(x) phi(x)^T + (s2/n) I, a d x d array."""
    s2 = _check_noise(theta.noise_variance)
    n = int(n_total)
    phi = fmap.forward(theta.feature_params, np.asarray(x, dtype=np.float64)[None, :]).Z[0]
    F = np.outer(phi, phi)
    diagonal(F)[...] += s2 / n
    return F


def logdet_psd(A: np.ndarray) -> float:
    """Log-determinant via Cholesky; raises NotPositiveDefiniteError with the pivot."""
    return logdet_from_chol(chol_lower(np.asarray(A, dtype=np.float64), "logdet"))


def full_loss(fmap: FeatureMap, theta: HyperParams, X: np.ndarray, y: np.ndarray) -> float:
    """The whole-dataset loss l(theta); see :mod:`stochgp.objective` for the formula."""
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
    return chol_solve(chol_lower(gram(Z, s2), "ridge solve"), Z.T @ y)


def exact_nll_oracle(
    fmap: FeatureMap, feature_params: np.ndarray, sigma2: float, X: np.ndarray, y: np.ndarray
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
    lhs = float(b @ chol_solve(chol_lower(gram(V.T, lam), "dual ridge"), b))
    w = ridge_closed_form(V, b, lam)
    r = V @ w - b
    rhs = float(r @ r) / lam + float(w @ w)
    return lhs, rhs


def grad_theta_of_linearized(
    fmap: FeatureMap, theta: HyperParams, X_batch: np.ndarray, y_batch: np.ndarray,
    M: np.ndarray, n_total: int,
) -> np.ndarray:
    """Gradient over theta of sum_{i in batch} [loss_term_i + <M, info_term_i>].

    M is held fixed (it plays the role of an inverse information-matrix
    estimate) and may be any d x d matrix: the feature-direction upstream for
    sample i is (2/s2) r_i w + (M + M^T) phi_i, routed through the map's
    backward pass, so finite-difference checks stay honest for an asymmetric M.
    """
    M = np.asarray(M, dtype=np.float64)
    d = fmap.output_dim
    if M.shape != (d, d):
        raise ValueError("M must be %d x %d, got %s" % (d, d, M.shape))
    X_batch = np.asarray(X_batch, dtype=np.float64)
    batch = fmap.forward(theta.feature_params, X_batch)
    return _linearized_core(fmap, theta, batch, y_batch, M + M.T, n_total)


def minimax_sample_objective(
    fmap: FeatureMap, zeta: AugmentedState, dual: np.ndarray, x: np.ndarray, y: float,
    n_total: int, penalty: float,
) -> float:
    """One sample's share of the penalized objective.

    loss_term + (1/n) logdet(A) + penalty * <B, A/n - info_term> / ||A||_F.
    Summed over the whole dataset this telescopes to the full loss when
    A equals the assembled information matrix, for any B.
    """
    A = zeta.info_surrogate
    norm = _surrogate_norm(A)
    n = int(n_total)
    g = sample_loss_term(fmap, zeta.theta, x, y, n)
    C = A / n - sample_info_term(fmap, zeta.theta, x, n)
    return g + logdet_psd(A) / n + penalty * float(np.sum(dual * C)) / norm


def minimax_batch_grads(
    fmap: FeatureMap, zeta: AugmentedState, dual: np.ndarray, X_batch: np.ndarray,
    y_batch: np.ndarray, n_total: int, penalty: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of (n/s) * sum over the batch of the penalized sample objective.

    Returns (theta gradient, surrogate-matrix block, dual block). The surrogate
    block is symmetrized since A ranges over symmetric matrices; the dual
    block is penalty * (A - (n/s) * batch info sum) / ||A||_F. Both come from
    the gradient body that ``minimax_step`` runs.
    """
    B = _square_f64(dual, zeta.theta.d, "dual")
    X_batch = np.asarray(X_batch, dtype=np.float64)
    n, s = int(n_total), X_batch.shape[0]
    g_theta, g_A, info_sum = _primal_grads(fmap, zeta, B, X_batch, y_batch, n, penalty)
    return g_theta, symmetrize(g_A), _dual_grad(zeta.info_surrogate, info_sum, n, s, penalty)


def rff_trig_error(arguments: np.ndarray) -> float:
    """Worst |Z - amp [cos a, sin a]| of ``RFFMap.forward`` near the given arguments, in eps amp.

    A one-input, one-pair map is fed x = a / w for each argument a, with w
    its frequency, so it evaluates its features at a or within an ulp or two
    of it. The reference is libm's cos and sin (numpy's) of the arguments
    the forward formed itself, proj / u1, here with u1 = u2 = amp = 1.
    """
    fmap = RFFMap(1, 2, seed=0)
    params = np.zeros(2)
    X = np.asarray(arguments, dtype=np.float64)[:, None] / fmap.frequencies[0, 0]
    batch = fmap.forward(params, X)
    a = batch.cache["proj"] / batch.cache["u1"]
    err = np.abs(batch.Z - np.hstack([np.cos(a), np.sin(a)]))
    return float(np.max(err, initial=0.0)) / np.finfo(np.float64).eps


# -- finite differences and the error measure ---------------------------------


def fd_grad(f, x0, h=1e-5):
    """Central finite differences of a scalar function over each entry of an array."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for k in np.ndindex(x0.shape):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += h
        xm[k] -= h
        g[k] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_grad_matrix_sym(f, A0, h=1e-6):
    """Finite differences of f over a symmetric matrix variable.

    Perturbs along the symmetric basis directions (E_jk + E_kj)/2 for j != k
    and E_jj on the diagonal, which is the correct probe for the symmetrized
    gradient of a function restricted to the symmetric subspace.
    """
    A0 = np.asarray(A0, dtype=np.float64)
    d = A0.shape[0]
    G = np.zeros_like(A0)
    for j in range(d):
        for k in range(j, d):
            D = np.zeros_like(A0)
            if j == k:
                D[j, j] = 1.0
            else:
                D[j, k] = 0.5
                D[k, j] = 0.5
            G[j, k] = (f(A0 + h * D) - f(A0 - h * D)) / (2.0 * h)
            G[k, j] = G[j, k]
    return G


def max_rel_error(value, reference, floor) -> float:
    """max_i |value_i - reference_i| / max(|reference_i|, floor); 0 for empty arrays."""
    a = np.ravel(np.asarray(value, dtype=np.float64))
    b = np.ravel(np.asarray(reference, dtype=np.float64))
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


# -- one body per identity -----------------------------------------------------


def ridge_minimum_gap(
    fmap: FeatureMap, feature_params: np.ndarray, sigma2: float, X: np.ndarray, y: np.ndarray
) -> float:
    """|full_loss at the ridge minimizer - exact_nll_oracle| / max(1, |exact_nll_oracle|)."""
    Z = fmap.forward(feature_params, X).Z
    at_min = HyperParams(ridge_closed_form(Z, y, sigma2), feature_params, sigma2)
    kernel = exact_nll_oracle(fmap, feature_params, sigma2, X, y)
    return abs(full_loss(fmap, at_min, X, y) - kernel) / max(1.0, abs(kernel))


def ridge_gaps(rng, instances: int, max_rows: int, max_dim: int, lam_range) -> tuple[float, float]:
    """Worst (dual-vs-primal, ridge-minimum-vs-kernel) gaps over drawn identity-feature instances.

    Each instance has n in [1, max_rows] rows of d in [1, max_dim] standard
    normal features, standard normal targets and a regularizer log-uniform
    on ``lam_range``. The dual-vs-primal gap is |lhs - rhs| / max(1, |rhs|)
    of ``ridge_identity_check``; the other is ``ridge_minimum_gap`` with the
    rows as the features.
    """
    lo, hi = (math.log10(v) for v in lam_range)
    dual = minimum = 0.0
    for _ in range(instances):
        n = int(rng.integers(1, max_rows + 1))
        d = int(rng.integers(1, max_dim + 1))
        lam = float(10.0 ** rng.uniform(lo, hi))
        V = rng.normal(size=(n, d))
        b = rng.normal(size=n)
        lhs, rhs = ridge_identity_check(V, b, lam)
        dual = max(dual, abs(lhs - rhs) / max(1.0, abs(rhs)))
        fmap = LinearMap(d)
        minimum = max(minimum, ridge_minimum_gap(fmap, fmap.init_params(0), lam, V, b))
    return dual, minimum


def decomposition_gap(fmap: FeatureMap, theta: HyperParams, X: np.ndarray, y: np.ndarray) -> float:
    """|sum of the sample loss terms + logdet(sum of the sample info terms) - full_loss|."""
    n = len(X)
    total = sum(sample_loss_term(fmap, theta, X[i], y[i], n) for i in range(n))
    F = sum(sample_info_term(fmap, theta, X[i], n) for i in range(n))
    return abs(total + logdet_psd(F) - full_loss(fmap, theta, X, y))


def penalized_grad_errors(
    fmap: FeatureMap, zeta: AugmentedState, dual: np.ndarray, X: np.ndarray, y: np.ndarray,
    idx, penalty: float,
) -> dict[str, float]:
    """``minimax_batch_grads`` on the rows idx against central differences, per block.

    The reference is (n/s) times the batch sum of ``minimax_sample_objective``;
    each value is a ``max_rel_error`` with floor 1e-8.
    """
    n, idx = len(X), list(idx)
    theta, A = zeta.theta, zeta.info_surrogate
    g_theta, g_A, g_B = minimax_batch_grads(fmap, zeta, dual, X[idx], y[idx], n, penalty)

    def objective(z, B):
        return n / len(idx) * sum(
            minimax_sample_objective(fmap, z, B, X[i], y[i], n, penalty) for i in idx
        )

    return {
        "penalized theta": max_rel_error(
            g_theta,
            fd_grad(lambda v: objective(AugmentedState(theta.with_flat(v), A), dual), theta.flat),
            1e-8,
        ),
        "penalized surrogate": max_rel_error(
            g_A, fd_grad_matrix_sym(lambda A_: objective(AugmentedState(theta, A_), dual), A), 1e-8
        ),
        "penalized dual": max_rel_error(g_B, fd_grad(lambda B: objective(zeta, B), dual, 1e-6), 1e-8),
    }


def _batch_loss(fmap, theta, X, y, idx, M=None):
    """v -> sum over idx of the sample loss terms at theta.with_flat(v), plus <M, F> or,
    with no M, logdet(F), for F the sum of the sample info terms."""
    n = len(X)

    def f(v):
        th = theta.with_flat(v)
        loss = sum(sample_loss_term(fmap, th, X[i], y[i], n) for i in idx)
        F = sum(sample_info_term(fmap, th, X[i], n) for i in idx)
        return loss + (logdet_psd(F) if M is None else float(np.sum(M * F)))

    return f


def linearized_grad_error(
    fmap: FeatureMap, theta: HyperParams, X: np.ndarray, y: np.ndarray, idx, M: np.ndarray
) -> float:
    """``grad_theta_of_linearized`` against central differences of the batch loss linearized at M."""
    g = grad_theta_of_linearized(fmap, theta, X[idx], y[idx], M, len(X))
    return max_rel_error(g, fd_grad(_batch_loss(fmap, theta, X, y, idx, M), theta.flat), 1e-8)


def scgd_grad_error(
    fmap: FeatureMap, state: SCGDState, X: np.ndarray, y: np.ndarray, idx, a_t: float = 1e-4
) -> float:
    """``scgd_step``'s parameter direction against central differences of the batch loss
    linearized at the inverse of the tracker it starts from."""
    M = np.linalg.inv(state.tracked_info)
    out = scgd_step(fmap, state, X, y, np.asarray(idx), a_t, 0.5)
    direction = (state.theta.flat - out.theta.flat) / a_t
    numeric = fd_grad(_batch_loss(fmap, state.theta, X, y, idx, M), state.theta.flat)
    return max_rel_error(direction, numeric, 1e-8)


def bsgd_grad_error(
    fmap: FeatureMap, theta: HyperParams, X: np.ndarray, y: np.ndarray, idx, a_t: float = 1e-4
) -> float:
    """``bsgd_step``'s parameter direction against central differences of the batch loss."""
    direction = (theta.flat - bsgd_step(fmap, theta, X, y, np.asarray(idx), a_t).flat) / a_t
    return max_rel_error(direction, fd_grad(_batch_loss(fmap, theta, X, y, idx), theta.flat), 1e-8)


def backward_error(
    fmap: FeatureMap, params: np.ndarray, X: np.ndarray, upstream: np.ndarray
) -> float:
    """``fmap.backward`` against central differences of sum(upstream * features)."""
    analytic = fmap.backward(params, fmap.forward(params, X), upstream)

    def contraction(v):
        return float(np.sum(upstream * fmap.forward(v, X).Z))

    return max_rel_error(analytic, fd_grad(contraction, params), 1e-8)


def enumeration_gaps(
    fmap: FeatureMap, zeta: AugmentedState, dual: np.ndarray, X: np.ndarray, y: np.ndarray,
    s: int, penalty: float,
) -> tuple[float, float]:
    """How far the mean of ``minimax_batch_grads`` over every size-s batch is from the full gradient.

    One gap for the ordered batches drawn with replacement, one for the
    s-subsets; each is a ``max_rel_error`` with floor 1e-2 over all blocks.
    """
    n = len(X)

    def blocks(idx):
        g_theta, g_A, g_B = minimax_batch_grads(fmap, zeta, dual, X[idx], y[idx], n, penalty)
        return np.concatenate([g_theta, g_A.ravel(), g_B.ravel()])

    full = blocks(np.arange(n))
    gaps = []
    for batches in (itertools.product(range(n), repeat=s), itertools.combinations(range(n), s)):
        batches = list(batches)
        mean = sum(blocks(list(b)) for b in batches) / len(batches)
        gaps.append(max_rel_error(mean, full, 1e-2))
    return gaps[0], gaps[1]


def baseline_bias(
    fmap: FeatureMap, theta: HyperParams, X: np.ndarray, y: np.ndarray, s: int, a_t: float = 1e-6
) -> float:
    """Norm of the mean ``bsgd_step`` direction over every ordered size-s batch minus the
    full-batch direction: the baseline's small-batch bias, which enumeration does not remove."""

    def direction(idx):
        return (theta.flat - bsgd_step(fmap, theta, X, y, np.asarray(idx), a_t).flat) / a_t

    mean = np.mean([direction(b) for b in itertools.product(range(len(X)), repeat=s)], axis=0)
    return float(np.linalg.norm(mean - direction(np.arange(len(X)))))


def coincidence_gap(
    fmap: FeatureMap, theta: HyperParams, X: np.ndarray, y: np.ndarray, a_t: float
) -> float:
    """``scgd_step`` at the exact tracker, unit averaging weight and the whole dataset as
    batch against ``bsgd_step`` on the full batch: the largest direction gap, relative to
    max(1, largest |bsgd direction|)."""
    full = np.arange(len(X))
    stepped = scgd_step(fmap, scgd_init(fmap, theta, X), X, y, full, a_t, 1.0).theta
    dir_s = (theta.flat - stepped.flat) / a_t
    dir_b = (theta.flat - bsgd_step(fmap, theta, X, y, full, a_t).flat) / a_t
    return float(np.max(np.abs(dir_s - dir_b))) / max(1.0, float(np.max(np.abs(dir_b))))


def feasibility_gaps(
    zeta: AugmentedState, sigma_min: float, coord_bound: float, eig_bound: float
) -> tuple[float, float]:
    """(bound, spectrum): how far a primal state lies outside the feasible set.

    bound is the worst excess of the noise variance over [sigma_min^2,
    coord_bound], of a weight or feature-map coordinate over coord_bound, and
    of |A - A^T|; spectrum is the worst excess of A's eigenvalues over
    [noise variance, eig_bound]. 0 means feasible.
    """
    s2, A = zeta.theta.noise_variance, zeta.info_surrogate
    coords = zeta.theta.flat[:-1]
    vals = np.linalg.eigvalsh(A)
    bound = max(
        sigma_min * sigma_min - s2,
        s2 - coord_bound,
        float(np.max(np.abs(coords), initial=0.0)) - coord_bound,
        float(np.max(np.abs(A - A.T))),
        0.0,
    )
    return bound, max(s2 - float(vals[0]), float(vals[-1]) - eig_bound, 0.0)


class ProjectionGaps(NamedTuple):
    """``feasibility_gaps`` of a projected state and the Euclidean norms of what
    projecting it again moves: the parameter vector ``theta.flat`` and the surrogate."""

    bound: float
    spectrum: float
    params_move: float
    surrogate_move: float


def projection_gaps(
    zeta: AugmentedState, sigma_min: float, coord_bound: float, eig_bound: float
) -> ProjectionGaps:
    """Feasibility and idempotence of ``project_primal`` at zeta."""
    once = project_primal(zeta, sigma_min, coord_bound, eig_bound)
    twice = project_primal(once, sigma_min, coord_bound, eig_bound)
    return ProjectionGaps(
        *feasibility_gaps(once, sigma_min, coord_bound, eig_bound),
        float(np.linalg.norm(twice.theta.flat - once.theta.flat)),
        float(np.linalg.norm(twice.info_surrogate - once.info_surrogate)),
    )


def dual_ball_gaps(B: np.ndarray) -> tuple[float, float]:
    """(Frobenius norm of ``project_dual_ball(B)`` above 1, what projecting it again moves)."""
    P = project_dual_ball(B)
    return max(float(np.linalg.norm(P)) - 1.0, 0.0), float(np.linalg.norm(project_dual_ball(P) - P))


def self_checks():
    """Yield (name, passed, detail) for the built-in consistency identities."""
    rng = np.random.default_rng(7)
    dual, minimum = ridge_gaps(rng, 20, 29, 11, (0.1, 2.0))
    yield "matrix-determinant ridge identity (20 instances)", dual < 1e-8, (
        "worst relative error %.2e" % dual
    )

    fmap = MLPMap(MLPSpec(3, (4, 2)))
    params = fmap.init_params(0)
    n = 6
    X = rng.normal(size=(n, 3))
    y = rng.normal(size=n)
    theta = HyperParams(rng.normal(size=2) * 0.5, params, 0.7)
    err = decomposition_gap(fmap, theta, X, y)
    yield "per-sample loss decomposition", err < 1e-10, "absolute error %.2e" % err

    rel = max(minimum, ridge_minimum_gap(fmap, params, theta.noise_variance, X, y))
    yield "ridge minimum equals covariance-form NLL", rel < 1e-8, "relative error %.2e" % rel

    G = rng.normal(size=(2, 2))
    zeta = AugmentedState(theta, G @ G.T + 1.5 * np.eye(2))
    B = rng.normal(size=(2, 2)) * 0.3
    rel = max(penalized_grad_errors(fmap, zeta, B, X, y, range(n), 0.8).values())
    yield "penalized objective gradient spot check", rel < 1e-4, (
        "worst relative error %.2e" % rel
    )

    def raw_state():
        raw = HyperParams(rng.normal(size=2) * 10, params, float(rng.uniform(1e-9, 2.0)))
        return AugmentedState(raw, symmetrize(rng.normal(size=(2, 2)) * 2.0))

    bound, spectrum, params_move, surrogate_move, excess, dual_move = np.max(
        [
            projection_gaps(raw_state(), 1e-2, 1e3, 1e3) + dual_ball_gaps(rng.normal(size=(2, 2)) * 3)
            for _ in range(200)
        ],
        axis=0,
    )
    ok = bound == 0.0 and spectrum <= 1e-9 and excess <= 1e-12
    ok = ok and max(params_move, surrogate_move, dual_move) < 1e-12
    yield "projection feasibility and idempotence (200 states)", ok, (
        "worst eigenvalue excess %.1e, worst re-projection move %.1e"
        % (spectrum, max(params_move, surrogate_move, dual_move))
    )

    gap = coincidence_gap(fmap, theta, X, y, 1e-3)
    yield "full-batch optimizer coincidence", gap < 1e-12, "direction gap %.2e" % gap

    # maps first: in a fresh process they draw before scipy.stats or scipy.special loads
    draws = ((1, 1, 0), (3, 5, 1), (16, 500, 2), (20, 256, 3))
    try:
        drawn = [RFFMap(q, 2 * m, seed).frequencies for q, m, seed in draws]
    except RuntimeError as exc:
        yield "random Fourier frequencies equal the scipy.stats.qmc draw", False, str(exc)
        return
    from scipy.special import ndtri
    from scipy.stats import qmc

    same = 0
    for (q, m, seed), frequencies in zip(draws, drawn):
        sobol = qmc.Sobol(q, scramble=True, rng=np.random.default_rng(seed))
        points = sobol.random_base2(math.ceil(math.log2(m)))[:m]
        same += np.array_equal(frequencies, ndtri(0.5 + (1.0 - 1e-10) * (points - 0.5)))
    yield "random Fourier frequencies equal the scipy.stats.qmc draw", same == len(draws), (
        "%d of %d draws bit for bit" % (same, len(draws))
    )

    # numpy's tan is SIMD on some builds and CPUs and libm's elsewhere. The
    # arguments: the floats within 3 ulps of k pi/2 at every scale up to
    # k = 640000 (about 1e6), tiny ones down to 1e-300, and a log-spaced
    # sweep from 1e-6 to 1e6, all of both signs
    k = np.unique(np.round(np.logspace(0.0, math.log10(640000.0), 600)))
    centre = np.concatenate([-k[::-1], [0.0], k]) * (np.pi / 2)
    near = centre[:, None] + np.arange(-3, 4) * np.spacing(centre)[:, None]
    tiny, wide = np.logspace(-300, -6, 200), np.logspace(-6, 6, 2000)
    args = np.concatenate([near.ravel(), tiny, -tiny, wide, -wide])
    worst = rff_trig_error(args)
    yield "random Fourier features agree with libm cos/sin within 4 eps", worst <= 4.0, (
        "worst %.2f eps over %d arguments near k pi/2, tiny and up to 1e6" % (worst, len(args))
    )
