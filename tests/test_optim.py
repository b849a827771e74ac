"""Optimizer steps, projections, schedules, and their exactness properties."""

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from fdcheck import assert_grad_close, fd_grad, fd_grad_matrix, fd_grad_matrix_sym
from stochgp._linalg import NotPositiveDefiniteError, symmetrize
from stochgp.features import LinearMap, MLPMap, MLPSpec, compose, rff_init
from stochgp.objective import HyperParams, info_matrix
from stochgp.optim import (
    AugmentedState,
    MinimaxConfig,
    SCGDState,
    Schedule,
    bsgd_step,
    minimax_init,
    minimax_step,
    project_dual_ball,
    project_primal,
    scgd_init,
    scgd_step,
    schedule_at,
)
from stochgp.oracles import (
    full_loss,
    grad_theta_of_linearized,
    logdet_psd,
    minimax_batch_grads,
    minimax_sample_objective,
    sample_info_term,
    sample_loss_term,
)


def small_instance(seed, n=5, p=2, hidden=3, d=2, sigma2=0.6, w_scale=0.5):
    rng = np.random.default_rng(seed)
    fmap = MLPMap(MLPSpec(p, (hidden, d)))
    theta = HyperParams(w_scale * rng.normal(size=d), fmap.init_params(seed + 1), sigma2)
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    return fmap, theta, X, y


def feasible_surrogate(rng, d, sigma2, spread=1.0):
    G = rng.normal(size=(d, d))
    return G @ G.T + (sigma2 + spread) * np.eye(d)


class TestSchedule:
    def test_polynomial_values(self):
        a, b = schedule_at(Schedule("polynomial", 1.0, 1.0), 16)
        assert a == pytest.approx(0.125)
        assert b == pytest.approx(0.25)

    def test_constant(self):
        for t in (1, 5, 1000):
            assert schedule_at(Schedule("constant", 0.01, 0.9), t) == (0.01, 0.9)

    def test_polynomial_clamps_averaging_weight(self):
        _, b = schedule_at(Schedule("polynomial", 1.0, 2.0), 1)
        assert b == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Schedule("linear", 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            Schedule("constant", 0.0, 0.5)
        with pytest.raises(ValueError, match="0, 1"):
            Schedule("constant", 0.1, 1.5)
        with pytest.raises(ValueError, match="starts at 1"):
            schedule_at(Schedule("constant", 0.1, 0.5), 0)


class TestMinimaxConfig:
    @pytest.mark.parametrize("name", ["eig_bound", "coord_bound"])
    def test_rejects_bound_below_noise_floor(self, name):
        with pytest.raises(ValueError, match=r"%s = 0.5 is below sigma_min\*\*2 = 1" % name):
            MinimaxConfig(primal_rate=1e-3, dual_rate=1e-2, sigma_min=1.0, **{name: 0.5})
        # a bound equal to the floor leaves exactly one feasible noise level
        MinimaxConfig(primal_rate=1e-3, dual_rate=1e-2, sigma_min=1.0, **{name: 1.0})


class TestMinimaxSampleObjective:
    def test_zero_dual_drops_penalty(self):
        fmap, theta, X, y = small_instance(0)
        rng = np.random.default_rng(1)
        A = feasible_surrogate(rng, 2, theta.noise_variance)
        zeta = AugmentedState(theta, A)
        got = minimax_sample_objective(fmap, zeta, np.zeros((2, 2)), X[0], y[0], 5, penalty=2.0)
        expect = sample_loss_term(fmap, theta, X[0], y[0], 5) + logdet_psd(A) / 5
        assert got == pytest.approx(expect, rel=1e-12)

    def test_sum_at_assembled_matrix_recovers_full_loss(self):
        fmap, theta, X, y = small_instance(2)
        n = X.shape[0]
        A = info_matrix(fmap, theta, X)
        zeta = AugmentedState(theta, A)
        B = np.random.default_rng(3).normal(size=(2, 2)) * 0.4
        total = sum(
            minimax_sample_objective(fmap, zeta, B, X[i], y[i], n, penalty=1.7)
            for i in range(n)
        )
        assert total == pytest.approx(full_loss(fmap, theta, X, y), rel=1e-10)

    def test_sum_matches_closed_form(self):
        fmap, theta, X, y = small_instance(4)
        n = X.shape[0]
        rng = np.random.default_rng(5)
        A = feasible_surrogate(rng, 2, theta.noise_variance)
        B = rng.normal(size=(2, 2)) * 0.3
        mu = 0.9
        zeta = AugmentedState(theta, A)
        total = sum(
            minimax_sample_objective(fmap, zeta, B, X[i], y[i], n, mu) for i in range(n)
        )
        g = sum(sample_loss_term(fmap, theta, X[i], y[i], n) for i in range(n))
        F = sum(sample_info_term(fmap, theta, X[i], n) for i in range(n))
        closed = g + logdet_psd(A) + mu * float(np.sum(B * (A - F))) / np.linalg.norm(A)
        assert total == pytest.approx(closed, rel=1e-10, abs=1e-10)

    def test_zero_surrogate_rejected(self):
        fmap, theta, X, y = small_instance(6)
        zeta = AugmentedState(theta, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="zero"):
            minimax_sample_objective(fmap, zeta, np.zeros((2, 2)), X[0], y[0], 5, 1.0)


def batch_objective_restricted(fmap, zeta_template, B0, X, y, idx, n, mu):
    """The scaled batch objective as separate flat functions of each block."""
    d = fmap.output_dim
    m = zeta_template.theta.feature_params.n_params
    A0 = zeta_template.info_surrogate
    theta0 = zeta_template.theta

    def of_theta(v):
        theta = HyperParams(v[:d], theta0.feature_params.with_flat(v[d : d + m]), float(v[-1]))
        zeta = AugmentedState(theta, A0)
        return (n / len(idx)) * sum(
            minimax_sample_objective(fmap, zeta, B0, X[i], y[i], n, mu) for i in idx
        )

    def of_A(A):
        zeta = AugmentedState(theta0, A)
        return (n / len(idx)) * sum(
            minimax_sample_objective(fmap, zeta, B0, X[i], y[i], n, mu) for i in idx
        )

    def of_B(B):
        zeta = AugmentedState(theta0, A0)
        return (n / len(idx)) * sum(
            minimax_sample_objective(fmap, zeta, B, X[i], y[i], n, mu) for i in idx
        )

    return of_theta, of_A, of_B


class TestMinimaxBatchGrads:
    def test_zero_penalty_decouples(self):
        fmap, theta, X, y = small_instance(7)
        rng = np.random.default_rng(8)
        A = feasible_surrogate(rng, 2, theta.noise_variance)
        B = rng.normal(size=(2, 2))
        zeta = AugmentedState(theta, A)
        n = X.shape[0]
        idx = [0, 2]
        g_theta, g_A, g_B = minimax_batch_grads(fmap, zeta, B, X[idx], y[idx], n, penalty=0.0)
        np.testing.assert_array_equal(g_B, np.zeros((2, 2)))
        # surrogate block reduces to the inverse; theta block to the plain loss terms
        np.testing.assert_allclose(g_A, np.linalg.inv(A), rtol=1e-12)
        plain = grad_theta_of_linearized(
            fmap, theta, X[idx], y[idx], np.zeros((2, 2)), n
        ).scaled(n / 2)
        np.testing.assert_allclose(g_theta.weights, plain.weights, rtol=1e-12)
        np.testing.assert_allclose(g_theta.feature_params, plain.feature_params, rtol=1e-12)
        assert g_theta.noise_variance == pytest.approx(plain.noise_variance, rel=1e-12)

    def test_matches_finite_differences_all_blocks(self):
        fmap, theta, X, y = small_instance(9, n=5, p=2, hidden=4, d=3, sigma2=0.7)
        rng = np.random.default_rng(10)
        A = feasible_surrogate(rng, 3, theta.noise_variance)
        B = 0.4 * rng.normal(size=(3, 3))
        mu = 1.3
        n = X.shape[0]
        idx = [1, 3]
        zeta = AugmentedState(theta, A)
        g_theta, g_A, g_B = minimax_batch_grads(fmap, zeta, B, X[idx], y[idx], n, mu)
        of_theta, of_A, of_B = batch_objective_restricted(fmap, zeta, B, X, y, idx, n, mu)

        flat0 = np.concatenate([theta.weights, theta.feature_params.flat, [theta.noise_variance]])
        analytic_theta = np.concatenate(
            [g_theta.weights, g_theta.feature_params, [g_theta.noise_variance]]
        )
        assert_grad_close(analytic_theta, fd_grad(of_theta, flat0), label="theta blocks")
        assert_grad_close(g_A, fd_grad_matrix_sym(of_A, A), label="surrogate block")
        assert_grad_close(g_B, fd_grad_matrix(of_B, B), label="dual block")

    def test_enumeration_unbiasedness(self):
        fmap, theta, X, y = small_instance(11, n=4, p=2, hidden=3, d=2)
        rng = np.random.default_rng(12)
        A = feasible_surrogate(rng, 2, theta.noise_variance)
        B = 0.3 * rng.normal(size=(2, 2))
        mu = 1.1
        zeta = AugmentedState(theta, A)
        full = minimax_batch_grads(fmap, zeta, B, X, y, 4, mu)

        for batches in (
            list(itertools.product(range(4), repeat=2)),
            list(itertools.combinations(range(4), 2)),
        ):
            sums = None
            for pair in batches:
                idx = list(pair)
                g = minimax_batch_grads(fmap, zeta, B, X[idx], y[idx], 4, mu)
                pieces = [g[0].weights, g[0].feature_params, np.array([g[0].noise_variance]), g[1], g[2]]
                sums = pieces if sums is None else [a + b for a, b in zip(sums, pieces)]
            means = [v / len(batches) for v in sums]
            np.testing.assert_allclose(means[0], full[0].weights, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(means[1], full[0].feature_params, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(
                means[2], [full[0].noise_variance], rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(means[3], full[1], rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(means[4], full[2], rtol=1e-10, atol=1e-12)


class TestProjectDualBall:
    def test_interior_point_unchanged(self):
        B = np.array([[0.3, 0.0], [0.0, 0.4]])
        np.testing.assert_array_equal(project_dual_ball(B), B)

    def test_radial_scaling(self):
        B = 2.0 * np.eye(2)
        np.testing.assert_allclose(project_dual_ball(B), np.eye(2) / np.sqrt(2.0), rtol=1e-15)

    def test_huge_point_lands_on_the_sphere(self):
        # its squared norm overflows; the projection must not collapse it to 0
        B = np.array([[3.0, 0.0], [0.0, -4.0]]) * 1e200
        with np.errstate(over="raise"):
            P = project_dual_ball(B)
        np.testing.assert_allclose(P, np.array([[0.6, 0.0], [0.0, -0.8]]), rtol=1e-15)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            B1 = rng.normal(size=(3, 3)) * rng.uniform(0.1, 3.0)
            B2 = rng.normal(size=(3, 3)) * rng.uniform(0.1, 3.0)
            P1, P2 = project_dual_ball(B1), project_dual_ball(B2)
            np.testing.assert_allclose(project_dual_ball(P1), P1, atol=1e-15)
            assert np.linalg.norm(P1 - P2) <= np.linalg.norm(B1 - B2) + 1e-12


class TestProjectPrimal:
    def test_feasible_state_unchanged(self):
        fmap, theta, X, _ = small_instance(14)
        rng = np.random.default_rng(15)
        A = feasible_surrogate(rng, 2, theta.noise_variance)
        zeta = AugmentedState(theta, A)
        out = project_primal(zeta, sigma_min=1e-3)
        assert out.theta.noise_variance == theta.noise_variance
        np.testing.assert_array_equal(out.theta.weights, theta.weights)
        np.testing.assert_allclose(out.info_surrogate, A, atol=1e-12)

    def test_diagonal_eigen_clamp(self):
        theta = HyperParams(np.zeros(2), LinearMap(2).init_params(0), 1.0)
        zeta = AugmentedState(theta, np.diag([0.1, 2.0]))
        out = project_primal(zeta, sigma_min=1e-3)
        np.testing.assert_allclose(out.info_surrogate, np.diag([1.0, 2.0]), atol=1e-12)

    def test_sequential_order_noise_first(self):
        theta = HyperParams(np.zeros(2), LinearMap(2).init_params(0), 1e-9)
        zeta = AugmentedState(theta, np.diag([1e-9, 0.5]))
        out = project_primal(zeta, sigma_min=1e-3)
        assert out.theta.noise_variance == pytest.approx(1e-6)
        np.testing.assert_allclose(out.info_surrogate, np.diag([1e-6, 0.5]), atol=1e-15)

    def test_coordinate_bound(self):
        fmap = MLPMap(MLPSpec(2, (3, 2)))
        params = fmap.params_from_flat(np.full(fmap.n_params, 50.0))
        theta = HyperParams(np.array([-70.0, 3.0]), params, 2.0)
        zeta = AugmentedState(theta, 5.0 * np.eye(2))
        out = project_primal(zeta, sigma_min=1e-3, coord_bound=10.0)
        np.testing.assert_array_equal(out.theta.weights, [-10.0, 3.0])
        assert np.all(out.theta.feature_params.flat == 10.0)

    def test_eigenvalue_cap(self):
        theta = HyperParams(np.zeros(2), LinearMap(2).init_params(0), 0.5)
        zeta = AugmentedState(theta, np.diag([2.0, 40.0]))
        out = project_primal(zeta, sigma_min=1e-3, eig_bound=10.0)
        np.testing.assert_allclose(out.info_surrogate, np.diag([2.0, 10.0]), atol=1e-12)

    def test_asymmetric_input_symmetrized(self):
        theta = HyperParams(np.zeros(2), LinearMap(2).init_params(0), 0.2)
        A = np.array([[2.0, 1.0], [0.0, 2.0]])
        out = project_primal(AugmentedState(theta, A), sigma_min=1e-3)
        np.testing.assert_allclose(out.info_surrogate, out.info_surrogate.T, atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(16)
        fmap = LinearMap(3)
        for _ in range(25):
            theta = HyperParams(rng.normal(size=3) * 10, fmap.init_params(0), rng.uniform(-1, 3))
            A = rng.normal(size=(3, 3)) * rng.uniform(0.5, 5.0)
            zeta = AugmentedState(theta, A)
            once = project_primal(zeta, sigma_min=0.05, coord_bound=8.0, eig_bound=6.0)
            twice = project_primal(once, sigma_min=0.05, coord_bound=8.0, eig_bound=6.0)
            assert abs(twice.theta.noise_variance - once.theta.noise_variance) <= 1e-12
            np.testing.assert_allclose(twice.theta.weights, once.theta.weights, atol=1e-12)
            np.testing.assert_allclose(
                twice.info_surrogate, once.info_surrogate, atol=1e-12 * max(1, np.linalg.norm(once.info_surrogate))
            )

    def test_blockwise_nonexpansive(self):
        # the three stages are each projections onto a fixed convex set, so
        # each is non-expansive in its own block; the noise clamp feeds the
        # surrogate stage, so the surrogate comparison fixes a common noise
        rng = np.random.default_rng(17)
        fmap = LinearMap(2)
        for _ in range(25):
            s_a, s_b = rng.uniform(-1, 4, size=2)
            ca = min(max(s_a, 0.05**2), 1e6)
            cb = min(max(s_b, 0.05**2), 1e6)
            assert abs(ca - cb) <= abs(s_a - s_b) + 1e-15

            w_a, w_b = rng.normal(size=(2, 4)) * 12
            pa, pb = np.clip(w_a, -8, 8), np.clip(w_b, -8, 8)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(w_a - w_b) + 1e-12

            s2 = rng.uniform(0.1, 1.0)
            theta = HyperParams(np.zeros(2), fmap.init_params(0), s2)
            A1 = rng.normal(size=(2, 2)) * 3
            A2 = rng.normal(size=(2, 2)) * 3
            A1, A2 = (A1 + A1.T) / 2, (A2 + A2.T) / 2
            P1 = project_primal(AugmentedState(theta, A1), 1e-3, eig_bound=5.0).info_surrogate
            P2 = project_primal(AugmentedState(theta, A2), 1e-3, eig_bound=5.0).info_surrogate
            assert np.linalg.norm(P1 - P2) <= np.linalg.norm(A1 - A2) + 1e-10

    def test_feasibility_on_random_states(self):
        rng = np.random.default_rng(18)
        fmap = LinearMap(3)
        for _ in range(50):
            theta = HyperParams(
                rng.normal(size=3) * 10**rng.uniform(0, 3), fmap.init_params(0), rng.uniform(-2, 5)
            )
            A = rng.normal(size=(3, 3)) * 10**rng.uniform(-1, 2)
            out = project_primal(AugmentedState(theta, A), sigma_min=0.02, coord_bound=500.0, eig_bound=400.0)
            s2 = out.theta.noise_variance
            assert 0.02**2 <= s2 <= 500.0
            assert np.all(np.abs(out.theta.weights) <= 500.0)
            vals = np.linalg.eigvalsh(out.info_surrogate)
            assert vals[0] >= s2 - 1e-10
            assert vals[-1] <= 400.0 + 1e-8

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 6),
        sigma_min=st.floats(1e-3, 0.5),
        noise_frac=st.floats(-3.0, 0.999),
        coord_bound=st.floats(0.5, 1e3),
        eig_bound=st.floats(0.5, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_projection_is_feasible_and_idempotent(
        self, d, sigma_min, noise_frac, coord_bound, eig_bound, seed
    ):
        # raw noise below the floor, as a primal step can leave it; the bounds
        # stay above sigma_min^2, so the feasible set is never empty
        rng = np.random.default_rng(seed)
        fmap = MLPMap(MLPSpec(2, (3, d)))
        params = fmap.params_from_flat(rng.normal(size=fmap.n_params) * 10 ** rng.uniform(0, 3))
        theta = HyperParams(
            rng.normal(size=d) * 10 ** rng.uniform(0, 3), params, noise_frac * sigma_min**2
        )
        A = rng.normal(size=(d, d)) * 10 ** rng.uniform(-2, 3.5)
        bounds = dict(sigma_min=sigma_min, coord_bound=coord_bound, eig_bound=eig_bound)
        out = project_primal(AugmentedState(theta, A), **bounds)

        s2 = out.theta.noise_variance
        assert s2 == sigma_min * sigma_min
        assert np.all(np.abs(out.theta.weights) <= coord_bound)
        assert np.all(np.abs(out.theta.feature_params.flat) <= coord_bound)
        P = out.info_surrogate
        np.testing.assert_array_equal(P, P.T)
        vals = np.linalg.eigvalsh(P)
        tol = 1e-9 * max(1.0, eig_bound)
        assert vals[0] >= s2 - tol and vals[-1] <= eig_bound + tol

        # flooring the noise before projecting, as the step rules do, is the same
        floored = HyperParams(theta.weights, params, sigma_min * sigma_min)
        same = project_primal(AugmentedState(floored, A), **bounds)
        assert same.theta.noise_variance == s2
        np.testing.assert_array_equal(same.info_surrogate, P)

        again = project_primal(out, **bounds)
        assert again.theta.noise_variance == s2
        np.testing.assert_array_equal(again.theta.weights, out.theta.weights)
        np.testing.assert_array_equal(
            again.theta.feature_params.flat, out.theta.feature_params.flat
        )
        np.testing.assert_allclose(
            again.info_surrogate, P, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(P))
        )


class TestMinimaxInit:
    def test_full_pass(self):
        fmap, theta, X, y = small_instance(19)
        zeta, dual = minimax_init(fmap, theta, X)
        np.testing.assert_allclose(zeta.info_surrogate, info_matrix(fmap, theta, X), atol=1e-12)
        np.testing.assert_array_equal(dual, np.zeros((2, 2)))

    def test_streaming(self):
        fmap, theta, X, y = small_instance(20, n=8)
        idx = np.array([1, 4])
        zeta, _ = minimax_init(fmap, theta, X, batch_indices=idx)
        Z = fmap.forward(theta.feature_params, X[idx]).Z
        expect = (8 / 2) * (Z.T @ Z) + theta.noise_variance * np.eye(2)
        np.testing.assert_allclose(zeta.info_surrogate, expect, atol=1e-12)

    def test_unbiased_over_all_batches(self):
        fmap, theta, X, y = small_instance(21, n=4)
        full = info_matrix(fmap, theta, X)
        draws = [
            minimax_init(fmap, theta, X, batch_indices=list(pair))[0].info_surrogate
            for pair in itertools.product(range(4), repeat=2)
        ]
        np.testing.assert_allclose(np.mean(draws, axis=0), full, rtol=1e-10, atol=1e-12)


class TestMinimaxStep:
    def test_zero_rates_fix_feasible_state(self):
        fmap, theta, X, y = small_instance(22)
        rng = np.random.default_rng(23)
        A = feasible_surrogate(rng, 2, theta.noise_variance)
        B = project_dual_ball(0.5 * rng.normal(size=(2, 2)))
        zeta = AugmentedState(theta, A)
        cfg = MinimaxConfig(primal_rate=0.0, dual_rate=0.0, sigma_min=1e-3)
        z2, B2 = minimax_step(fmap, zeta, B, X, y, [0, 1], [2, 3], cfg)
        assert z2.theta.noise_variance == theta.noise_variance
        np.testing.assert_array_equal(z2.theta.weights, theta.weights)
        np.testing.assert_allclose(z2.info_surrogate, A, atol=1e-12)
        np.testing.assert_array_equal(B2, B)

    def test_single_step_hand_oracle(self):
        # d = 2, n = 3, full batch, identity features: recompute both updates
        # with plain numpy and compare
        fmap = LinearMap(2)
        X = np.array([[1.0, 0.5], [-0.3, 0.8], [0.2, -0.6]])
        y = np.array([0.7, -0.2, 0.4])
        w = np.array([0.1, -0.3])
        s2 = 0.5
        A = np.array([[1.2, 0.1], [0.1, 0.9]])
        B = np.array([[0.2, -0.1], [0.05, 0.3]])
        mu, a, b = 0.8, 0.01, 0.02
        theta = HyperParams(w, fmap.init_params(0), s2)
        cfg = MinimaxConfig(primal_rate=a, dual_rate=b, penalty=mu, sigma_min=1e-3)
        z2, B2 = minimax_step(
            fmap, AugmentedState(theta, A), B, X, y, [0, 1, 2], [0, 1, 2], cfg
        )

        r = X @ w - y
        normA = np.linalg.norm(A)
        M = (-mu / normA) * B
        g_w = (2.0 / s2) * X.T @ r + 2.0 * w
        g_s2 = -r @ r / s2**2 + 1.0 / s2 + np.trace(M)
        F_sum = X.T @ X + s2 * np.eye(2)
        inner = np.sum(B * (A - F_sum))
        g_A = np.linalg.inv(A) + (mu / normA) * B - (mu * inner / normA**3) * A
        g_A = (g_A + g_A.T) / 2

        w_new = w - a * g_w
        s2_new = min(max(s2 - a * g_s2, 1e-6), 1e6)
        vals, vecs = np.linalg.eigh((A - a * g_A + (A - a * g_A).T) / 2)
        A_new = (vecs * np.clip(vals, s2_new, 1e6)) @ vecs.T

        np.testing.assert_allclose(z2.theta.weights, w_new, atol=1e-14)
        assert z2.theta.noise_variance == pytest.approx(s2_new, rel=1e-14)
        np.testing.assert_allclose(z2.info_surrogate, A_new, atol=1e-12)

        F_sum_new = X.T @ X + s2_new * np.eye(2)
        g_B = mu * (A_new - F_sum_new) / np.linalg.norm(A_new)
        B_exp = B + b * g_B
        if np.linalg.norm(B_exp) > 1.0:
            B_exp = B_exp / np.linalg.norm(B_exp)
        np.testing.assert_allclose(B2, B_exp, atol=1e-12)

    def test_primal_update_is_projected_descent(self):
        # the single-check step equals project_primal of the checked raw point
        fmap, theta, X, y = small_instance(31, n=12)
        zeta, dual = minimax_init(fmap, theta, X)
        dual = project_dual_ball(np.random.default_rng(32).normal(size=(2, 2)))
        cfg = MinimaxConfig(primal_rate=0.3, dual_rate=0.1, sigma_min=0.7, coord_bound=2.0, eig_bound=4.0)
        idx = [0, 3, 5, 5]
        g_theta, g_A, _ = minimax_batch_grads(fmap, zeta, dual, X[idx], y[idx], 12, cfg.penalty)
        a = cfg.primal_rate
        raw = AugmentedState(
            HyperParams(
                theta.weights - a * g_theta.weights,
                theta.feature_params.with_flat(theta.feature_params.flat - a * g_theta.feature_params),
                max(theta.noise_variance - a * g_theta.noise_variance, cfg.sigma_min**2),
            ),
            zeta.info_surrogate - a * g_A,
        )
        want = project_primal(raw, cfg.sigma_min, cfg.coord_bound, cfg.eig_bound)
        got, _ = minimax_step(fmap, zeta, dual, X, y, idx, [1, 2], cfg)
        assert np.array_equal(got.theta.weights, want.theta.weights)
        assert np.array_equal(got.theta.feature_params.flat, want.theta.feature_params.flat)
        assert type(got.theta.noise_variance) is float
        assert got.theta.noise_variance == want.theta.noise_variance
        assert np.array_equal(got.info_surrogate, want.info_surrogate)
        assert got.info_surrogate.flags.c_contiguous and got.theta.weights.flags.c_contiguous

    def test_overflowed_step_is_rejected_not_clipped(self):
        # np.clip would map an infinite weight onto the coordinate bound; the
        # step must fail instead, as it did when every intermediate state was checked
        fmap, theta, X, y = small_instance(33, n=8)
        zeta, dual = minimax_init(fmap, theta, X)
        cfg = MinimaxConfig(primal_rate=1e308, dual_rate=0.1)
        with np.errstate(over="ignore"):
            g_theta, _, _ = minimax_batch_grads(fmap, zeta, dual, X[:4], y[:4], 8, cfg.penalty)
            assert not np.isfinite(theta.weights - 1e308 * g_theta.weights).all()
            with pytest.raises(ValueError, match="weights contain non-finite entries"):
                minimax_step(fmap, zeta, dual, X, y, [0, 1, 2, 3], [4, 5], cfg)

    def test_feasible_after_every_step(self):
        fmap, theta, X, y = small_instance(24, n=16)
        rng = np.random.default_rng(25)
        zeta, dual = minimax_init(fmap, theta, X)
        cfg = MinimaxConfig(primal_rate=5e-3, dual_rate=5e-2, sigma_min=0.05, coord_bound=50.0, eig_bound=100.0)
        for _ in range(60):
            i1 = rng.integers(0, 16, size=4)
            i2 = rng.integers(0, 16, size=4)
            zeta, dual = minimax_step(fmap, zeta, dual, X, y, i1, i2, cfg)
            s2 = zeta.theta.noise_variance
            assert 0.05**2 <= s2 <= 50.0
            assert np.all(np.abs(zeta.theta.weights) <= 50.0)
            assert np.all(np.abs(zeta.theta.feature_params.flat) <= 50.0)
            vals = np.linalg.eigvalsh(zeta.info_surrogate)
            assert vals[0] >= s2 - 1e-10 and vals[-1] <= 100.0 + 1e-8
            assert np.linalg.norm(dual) <= 1.0 + 1e-12

    def test_deterministic_trajectories(self):
        def run():
            fmap, theta, X, y = small_instance(26, n=12)
            rng = np.random.default_rng(99)
            zeta, dual = minimax_init(fmap, theta, X)
            cfg = MinimaxConfig(primal_rate=1e-3, dual_rate=1e-2)
            for _ in range(30):
                i1 = rng.integers(0, 12, size=3)
                i2 = rng.integers(0, 12, size=3)
                zeta, dual = minimax_step(fmap, zeta, dual, X, y, i1, i2, cfg)
            return zeta, dual

        za, Ba = run()
        zb, Bb = run()
        assert np.array_equal(za.theta.weights, zb.theta.weights)
        assert np.array_equal(za.theta.feature_params.flat, zb.theta.feature_params.flat)
        assert za.theta.noise_variance == zb.theta.noise_variance
        assert np.array_equal(za.info_surrogate, zb.info_surrogate)
        assert np.array_equal(Ba, Bb)

    def test_surrogate_converges_to_information_matrix(self):
        # smoke run: the penalty pulls A toward the assembled matrix
        rng = np.random.default_rng(27)
        n, d = 64, 3
        fmap = LinearMap(d)
        X = rng.normal(size=(n, d))
        w_true = np.array([1.0, -0.5, 0.25])
        y = X @ w_true + 0.3 * rng.normal(size=n)
        theta = HyperParams(np.zeros(d), fmap.init_params(0), 1.0)
        A0 = 3.0 * info_matrix(fmap, theta, X)
        zeta = AugmentedState(theta, A0)
        dual = np.zeros((d, d))
        cfg = MinimaxConfig(primal_rate=2e-3, dual_rate=0.5, penalty=1.0, sigma_min=1e-3)

        def residual(z):
            F = info_matrix(fmap, z.theta, X)
            return np.linalg.norm(z.info_surrogate - F) / np.linalg.norm(z.info_surrogate)

        assert residual(zeta) > 0.5
        for _ in range(2000):
            i1 = rng.integers(0, n, size=8)
            i2 = rng.integers(0, n, size=8)
            zeta, dual = minimax_step(fmap, zeta, dual, X, y, i1, i2, cfg)
        assert residual(zeta) < 0.05


class TestSCGD:
    def test_init_tracker_exact(self):
        fmap, theta, X, y = small_instance(28)
        state = scgd_init(fmap, theta, X)
        np.testing.assert_allclose(state.tracked_info, info_matrix(fmap, theta, X), atol=1e-12)
        assert state.step == 0

    def test_full_batch_unit_weight_sets_tracker_exactly(self):
        fmap, theta, X, y = small_instance(29, n=7)
        state = SCGDState(theta, 5.0 * np.eye(2), 0)
        out = scgd_step(fmap, state, X, y, np.arange(7), a_t=1e-3, b_t=1.0)
        np.testing.assert_allclose(out.tracked_info, info_matrix(fmap, theta, X), atol=1e-12)

    def test_zero_step_freezes_theta_but_updates_tracker(self):
        fmap, theta, X, y = small_instance(30, n=6)
        state = scgd_init(fmap, theta, X)
        out = scgd_step(fmap, state, X, y, np.array([0, 2]), a_t=0.0, b_t=0.5)
        np.testing.assert_array_equal(out.theta.weights, theta.weights)
        assert out.theta.noise_variance == theta.noise_variance
        assert not np.allclose(out.tracked_info, state.tracked_info)
        assert out.step == 1

    def test_theta_direction_matches_linearized_gradient(self):
        fmap, theta, X, y = small_instance(31, n=8)
        state = scgd_init(fmap, theta, X)
        idx = np.array([1, 4, 6])
        a = 1e-4
        out = scgd_step(fmap, state, X, y, idx, a_t=a, b_t=0.5)
        M = np.linalg.inv(state.tracked_info)
        g = grad_theta_of_linearized(fmap, theta, X[idx], y[idx], M, 8)
        np.testing.assert_allclose((theta.weights - out.theta.weights) / a, g.weights, rtol=1e-10)
        np.testing.assert_allclose(
            (theta.feature_params.flat - out.theta.feature_params.flat) / a,
            g.feature_params,
            rtol=1e-10,
        )
        assert (theta.noise_variance - out.theta.noise_variance) / a == pytest.approx(
            g.noise_variance, rel=1e-10
        )

    def test_indefinite_tracker_is_floored(self):
        fmap, theta, X, y = small_instance(32, n=6)
        state = SCGDState(theta, np.diag([1.0, -0.5]), 3)
        out = scgd_step(fmap, state, X, y, np.array([0, 1]), a_t=1e-4, b_t=0.5)
        assert np.all(np.isfinite(out.theta.weights))
        assert out.step == 4

    def test_tracker_past_repair_reports_failing_pivot(self):
        # eigenvalues 1e20 and -1: after the floor the rebuilt matrix is still
        # indefinite in floating point, so the step raises with LAPACK's pivot
        fmap, theta, X, y = small_instance(35, n=6)
        Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2)))
        state = SCGDState(theta, symmetrize((Q * np.array([1e20, -1.0])) @ Q.T), 6)
        with pytest.raises(NotPositiveDefiniteError, match="iteration 6") as exc:
            scgd_step(fmap, state, X, y, np.array([0, 1]), a_t=1e-3, b_t=0.9)
        assert exc.value.pivot >= 1

    def test_noise_clamped_at_floor(self):
        fmap, theta, X, y = small_instance(33, n=6, sigma2=0.01)
        state = scgd_init(fmap, theta, X)
        out = scgd_step(fmap, state, X, y, np.arange(6), a_t=10.0, b_t=1.0, sigma_min=0.09)
        assert out.theta.noise_variance >= 0.09**2 - 1e-15

    def test_bad_weights_rejected(self):
        fmap, theta, X, y = small_instance(34)
        state = scgd_init(fmap, theta, X)
        with pytest.raises(ValueError, match="0, 1"):
            scgd_step(fmap, state, X, y, np.array([0]), a_t=1e-3, b_t=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            scgd_step(fmap, state, X, y, np.array([0]), a_t=-1e-3, b_t=0.5)


class TestBSGD:
    def test_full_batch_is_whole_loss_gradient(self):
        fmap, theta, X, y = small_instance(35, n=9)
        n = 9
        a = 1e-4
        out = bsgd_step(fmap, theta, X, y, np.arange(n), a_t=a)
        M = np.linalg.inv(info_matrix(fmap, theta, X))
        g = grad_theta_of_linearized(fmap, theta, X, y, M, n)
        np.testing.assert_allclose((theta.weights - out.weights) / a, g.weights, rtol=1e-9)
        np.testing.assert_allclose(
            (theta.feature_params.flat - out.feature_params.flat) / a,
            g.feature_params,
            rtol=1e-9,
        )
        assert (theta.noise_variance - out.noise_variance) / a == pytest.approx(
            g.noise_variance, rel=1e-9
        )

    def test_matches_finite_differences_of_batch_loss(self):
        fmap, theta, X, y = small_instance(36, n=7)
        idx = [0, 2, 5]
        n = 7
        a = 1e-5
        out = bsgd_step(fmap, theta, X, y, np.array(idx), a_t=a)
        d = fmap.output_dim

        def batch_loss(v):
            th = HyperParams(v[:d], theta.feature_params.with_flat(v[d:-1]), float(v[-1]))
            g = sum(sample_loss_term(fmap, th, X[i], y[i], n) for i in idx)
            F = sum(sample_info_term(fmap, th, X[i], n) for i in idx)
            return g + logdet_psd(F)

        flat0 = np.concatenate([theta.weights, theta.feature_params.flat, [theta.noise_variance]])
        direction = np.concatenate(
            [
                (theta.weights - out.weights) / a,
                (theta.feature_params.flat - out.feature_params.flat) / a,
                [(theta.noise_variance - out.noise_variance) / a],
            ]
        )
        assert_grad_close(direction, fd_grad(batch_loss, flat0), label="batch loss grad")

    def test_small_batch_bias_by_enumeration(self):
        fmap, theta, X, y = small_instance(37, n=4)
        n = 4
        a = 1e-6
        M_full = np.linalg.inv(info_matrix(fmap, theta, X))
        g_full = grad_theta_of_linearized(fmap, theta, X, y, M_full, n)
        full_vec = np.concatenate(
            [g_full.weights, g_full.feature_params, [g_full.noise_variance]]
        )
        dirs = []
        for pair in itertools.product(range(4), repeat=2):
            out = bsgd_step(fmap, theta, X, y, np.array(pair), a_t=a)
            dirs.append(
                np.concatenate(
                    [
                        (theta.weights - out.weights) / a,
                        (theta.feature_params.flat - out.feature_params.flat) / a,
                        [(theta.noise_variance - out.noise_variance) / a],
                    ]
                )
            )
        gap = np.linalg.norm(np.mean(dirs, axis=0) - full_vec)
        assert gap > 1e-6

    def test_empty_batch_rejected(self):
        fmap, theta, X, y = small_instance(38)
        with pytest.raises(ValueError, match="non-empty"):
            bsgd_step(fmap, theta, X, y, np.array([], dtype=np.int64), a_t=1e-3)


class TestOptimizerCoincidence:
    def test_scgd_equals_bsgd_at_full_batch_unit_weight(self):
        fmap, theta, X, y = small_instance(39, n=10)
        n = 10
        a = 2e-4
        state = scgd_init(fmap, theta, X)
        s_out = scgd_step(fmap, state, X, y, np.arange(n), a_t=a, b_t=1.0)
        b_out = bsgd_step(fmap, theta, X, y, np.arange(n), a_t=a)
        np.testing.assert_allclose(s_out.theta.weights, b_out.weights, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            s_out.theta.feature_params.flat, b_out.feature_params.flat, rtol=1e-12, atol=1e-15
        )
        assert s_out.theta.noise_variance == pytest.approx(b_out.noise_variance, rel=1e-12)


def drawn_instance(kind, seed, n, p=2):
    """A map of one kind (MLP 2 -> 3 -> 2 inside), a parameter point and n rows, from seed."""
    rng = np.random.default_rng(seed)
    fmap = LinearMap(p) if kind == "linear" else MLPMap(MLPSpec(p, (3, 2)))
    if kind == "mlp+rff":
        fmap = compose(rff_init(q=2, D=4, u1=1.0, u2=1.0, seed=seed), fmap)
    d = fmap.output_dim
    sigma2 = float(rng.uniform(0.5, 1.0))
    theta = HyperParams(0.5 * rng.normal(size=d), fmap.init_params(seed + 1), sigma2)
    return fmap, theta, rng.normal(size=(n, p)), rng.normal(size=n), rng


def step_direction(theta, stepped, a):
    return np.concatenate(
        [
            theta.weights - stepped.weights,
            theta.feature_params.flat - stepped.feature_params.flat,
            [theta.noise_variance - stepped.noise_variance],
        ]
    ) / a


class TestExactnessProperties:
    """The paper's exactness claims over drawn instances; test_03/test_04 fix one each."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["linear", "mlp", "mlp+rff"]),
        n=st.integers(3, 6),
        s=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_minimax_batch_gradients_average_to_the_full_gradient(self, kind, n, s, seed):
        fmap, theta, X, y, rng = drawn_instance(kind, seed, n)
        d = fmap.output_dim
        zeta = AugmentedState(theta, feasible_surrogate(rng, d, theta.noise_variance))
        B = 0.3 * rng.normal(size=(d, d))
        mu = float(rng.uniform(0.5, 2.0))

        def blocks(idx):
            g_theta, g_A, g_B = minimax_batch_grads(fmap, zeta, B, X[idx], y[idx], n, mu)
            return np.concatenate(
                [
                    g_theta.weights,
                    g_theta.feature_params,
                    [g_theta.noise_variance],
                    g_A.ravel(),
                    g_B.ravel(),
                ]
            )

        full = blocks(np.arange(n))
        scale = max(1.0, float(np.abs(full).max()))
        for batches in (
            list(itertools.product(range(n), repeat=s)),  # ordered, with replacement
            list(itertools.combinations(range(n), s)),  # every s-subset
        ):
            mean = sum(blocks(list(b)) for b in batches) / len(batches)
            assert float(np.abs(mean - full).max()) <= 1e-10 * scale

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["linear", "mlp", "mlp+rff"]),
        n=st.integers(3, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scgd_at_the_exact_tracker_is_bsgd_on_the_full_batch(self, kind, n, seed):
        fmap, theta, X, y, _ = drawn_instance(kind, seed, n)
        a = 1e-2
        full = np.arange(n)
        state = SCGDState(theta, info_matrix(fmap, theta, X))
        dir_s = step_direction(theta, scgd_step(fmap, state, X, y, full, a, 1.0).theta, a)
        dir_b = step_direction(theta, bsgd_step(fmap, theta, X, y, full, a), a)
        scale = max(1.0, float(np.abs(dir_b).max()))
        assert float(np.abs(dir_s - dir_b).max()) <= 1e-12 * scale
