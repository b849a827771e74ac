"""Reference computations that check the training path; no run calls them.

They restate the loss of :mod:`stochgp.objective` sample by sample
(``sample_loss_term``, ``sample_info_term``) and whole (``full_loss``), give
the ridge minimizer and the n x n kernel-space NLL it must match
(``ridge_closed_form``, ``exact_nll_oracle``), and the penalized objective of
``minimax_step`` per sample with its batch gradients (which run the step's
own gradient body). ``self_checks`` holds the identities ``stochgp check``
prints, among them that ``RFFMap`` draws what ``scipy.stats.qmc`` draws,
through the private Sobol engine it binds, and that its tangent-formed
features agree with libm's cos and sin (``rff_trig_error``). They form
n x n or per-sample arrays: test-scale data only.
"""

from __future__ import annotations

import math

import numpy as np

from stochgp._linalg import chol_lower, chol_solve, diagonal, gram, logdet_from_chol, symmetrize
from stochgp.features import FeatureMap, FeatureMapParams, MLPMap, MLPSpec, RFFMap
from stochgp.objective import HyperParams, ThetaGrad, _check_noise, _linearized_core
from stochgp.optim import (
    AugmentedState,
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
    "exact_nll_oracle",
    "full_loss",
    "grad_theta_of_linearized",
    "logdet_psd",
    "minimax_batch_grads",
    "minimax_sample_objective",
    "rff_trig_error",
    "ridge_closed_form",
    "ridge_identity_check",
    "sample_info_term",
    "sample_loss_term",
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
    fmap: FeatureMap, feature_params: FeatureMapParams, sigma2: float, X: np.ndarray, y: np.ndarray
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
) -> tuple[ThetaGrad, np.ndarray, np.ndarray]:
    """Gradients of (n/s) * sum over the batch of the penalized sample objective.

    Returns (theta blocks, surrogate-matrix block, dual block). The surrogate
    block is symmetrized since A ranges over symmetric matrices; the dual
    block is penalty * (A - (n/s) * batch info sum) / ||A||_F. Both come from
    the gradient body that ``minimax_step`` runs.
    """
    B = _square_f64(dual, zeta.theta.d, "dual")
    X_batch = np.asarray(X_batch, dtype=np.float64)
    n, s = int(n_total), X_batch.shape[0]
    g_theta, g_A, info_sum = _primal_grads(fmap, zeta, B, X_batch, y_batch, n, penalty)
    return g_theta, g_A, _dual_grad(zeta.info_surrogate, info_sum, n, s, penalty)


def rff_trig_error(arguments: np.ndarray) -> float:
    """Worst |Z - amp [cos a, sin a]| of ``RFFMap.forward`` near the given arguments, in eps amp.

    A one-input, one-pair map is fed x = a / w for each argument a, with w
    its frequency, so it evaluates its features at a or within an ulp or two
    of it. The reference is libm's cos and sin (numpy's) of the arguments
    the forward formed itself, proj / u1, here with u1 = u2 = amp = 1.
    """
    fmap = RFFMap(1, 2, seed=0)
    params = fmap.params_from_flat(np.zeros(2))
    X = np.asarray(arguments, dtype=np.float64)[:, None] / fmap.frequencies[0, 0]
    batch = fmap.forward(params, X)
    a = batch.cache["proj"] / batch.cache["u1"]
    err = np.abs(batch.Z - np.hstack([np.cos(a), np.sin(a)]))
    return float(np.max(err, initial=0.0)) / np.finfo(np.float64).eps



def self_checks():
    """Yield (name, passed, detail) for the built-in consistency identities."""
    rng = np.random.default_rng(7)

    worst = 0.0
    for _ in range(20):
        m, k = int(rng.integers(2, 30)), int(rng.integers(1, 12))
        V = rng.normal(size=(m, k))
        b = rng.normal(size=m)
        lam = float(rng.uniform(0.1, 2.0))
        lhs, rhs = ridge_identity_check(V, b, lam)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    yield "matrix-determinant ridge identity (20 instances)", worst < 1e-8, (
        "worst relative error %.2e" % worst
    )

    fmap = MLPMap(MLPSpec(3, (4, 2)))
    params = fmap.init_params(0)
    n = 6
    X = rng.normal(size=(n, 3))
    y = rng.normal(size=n)
    theta = HyperParams(rng.normal(size=2) * 0.5, params, 0.7)

    total = sum(sample_loss_term(fmap, theta, X[i], y[i], n) for i in range(n))
    F = sum(sample_info_term(fmap, theta, X[i], n) for i in range(n))
    err = abs(total + logdet_psd(F) - full_loss(fmap, theta, X, y))
    yield "per-sample loss decomposition", err < 1e-10, "absolute error %.2e" % err

    Z = fmap.forward(params, X).Z
    w_hat = ridge_closed_form(Z, y, theta.noise_variance)
    at_min = full_loss(fmap, HyperParams(w_hat, params, theta.noise_variance), X, y)
    oracle = exact_nll_oracle(fmap, params, theta.noise_variance, X, y)
    rel = abs(at_min - oracle) / max(abs(oracle), 1.0)
    yield "ridge minimum equals covariance-form NLL", rel < 1e-8, (
        "relative error %.2e" % rel
    )

    G = rng.normal(size=(2, 2))
    A = G @ G.T + 1.5 * np.eye(2)
    B = rng.normal(size=(2, 2)) * 0.3
    zeta = AugmentedState(theta, A)
    penalty = 0.8

    def theta_objective(w):
        z = AugmentedState(HyperParams(w, params, theta.noise_variance), A)
        return sum(
            minimax_sample_objective(fmap, z, B, X[i], y[i], n, penalty)
            for i in range(n)
        )

    g_theta, _, _ = minimax_batch_grads(fmap, zeta, B, X, y, n, penalty)
    h = 1e-6
    rel_worst = 0.0
    for j in range(theta.weights.shape[0]):
        w_plus = theta.weights.copy()
        w_plus[j] += h
        w_minus = theta.weights.copy()
        w_minus[j] -= h
        fd = (theta_objective(w_plus) - theta_objective(w_minus)) / (2 * h)
        rel_worst = max(rel_worst, abs(g_theta.weights[j] - fd) / max(abs(fd), 1e-8))
    yield "penalized objective gradient spot check", rel_worst < 1e-4, (
        "worst relative error %.2e" % rel_worst
    )

    ok = True
    for _ in range(200):
        raw = AugmentedState(
            HyperParams(
                rng.normal(size=2) * 10,
                params,
                float(rng.uniform(1e-9, 2.0)),
            ),
            symmetrize(rng.normal(size=(2, 2)) * 2.0),
        )
        proj = project_primal(raw, 1e-2, 1e3, 1e3)
        again = project_primal(proj, 1e-2, 1e3, 1e3)
        eigs = np.linalg.eigvalsh(proj.info_surrogate)
        feas = (
            proj.theta.noise_variance >= 1e-4 - 1e-12
            and eigs.min() >= proj.theta.noise_variance - 1e-9
            and bool(np.all(np.abs(proj.theta.weights) <= 1e3 + 1e-9))
        )
        same = (
            np.linalg.norm(again.theta.weights - proj.theta.weights) < 1e-12
            and abs(again.theta.noise_variance - proj.theta.noise_variance) < 1e-12
            and np.linalg.norm(again.info_surrogate - proj.info_surrogate) < 1e-12
        )
        Braw = rng.normal(size=(2, 2)) * 3
        Bp = project_dual_ball(Braw)
        in_ball = np.linalg.norm(Bp, "fro") <= 1.0 + 1e-12
        fixed = np.linalg.norm(project_dual_ball(Bp) - Bp) < 1e-12
        ok = ok and feas and same and in_ball and fixed
    yield "projection feasibility and idempotence (200 states)", ok, ""

    state = scgd_init(fmap, theta, X)
    full = np.arange(n)
    s_next = scgd_step(fmap, state, X, y, full, 1e-3, 1.0)
    b_next = bsgd_step(fmap, theta, X, y, full, 1e-3)
    gap = (
        np.linalg.norm(s_next.theta.weights - b_next.weights)
        + np.linalg.norm(s_next.theta.feature_params.flat - b_next.feature_params.flat)
        + abs(s_next.theta.noise_variance - b_next.noise_variance)
    )
    yield "full-batch optimizer coincidence", gap < 1e-12, "parameter gap %.2e" % gap

    # maps first: in a fresh process they draw before scipy.stats has loaded
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
