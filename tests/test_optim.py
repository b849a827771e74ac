"""Optimizer steps, projections, schedules, and their exactness properties."""

import itertools
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import stochgp._linalg
import stochgp.objective
import stochgp.optim
from instances import feasible_surrogate, instance
from stochgp._linalg import NotPositiveDefiniteError, diagonal, gram, symmetrize
from stochgp.features import LinearMap, MLPMap, MLPSpec
from stochgp.harness import _Evaluator
from stochgp.objective import HyperParams, _row_blocks, info_matrix
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
    baseline_bias,
    bsgd_grad_error,
    coincidence_gap,
    dual_ball_gaps,
    enumeration_gaps,
    feasibility_gaps,
    full_loss,
    grad_theta_of_linearized,
    logdet_psd,
    minimax_batch_grads,
    minimax_sample_objective,
    penalized_grad_errors,
    projection_gaps,
    sample_info_term,
    sample_loss_term,
)


@pytest.mark.parametrize("cls", [AugmentedState, SCGDState])
def test_states_compare_and_hash_by_identity(cls):
    # as HyperParams: an equal copy of the matrix has no one truth value to
    # compare by, and an array has no hash
    theta = HyperParams(np.zeros(2), np.ones(3), 0.5)
    state = cls(theta, np.eye(2))
    copy = cls(theta, np.eye(2))
    assert state == state and state != copy
    assert len({state, copy, state}) == 2

class TestSchedule:
    @settings(max_examples=200)
    @given(
        a0=st.floats(1e-6, 1e6),
        b0=st.floats(1e-6, 1e3),
        t=st.integers(1, 10**9),
    )
    def test_polynomial_values(self, a0, b0, t):
        # b0 above 1 exercises the cap on the averaging weight
        rule = Schedule("polynomial", a0, b0)
        a, b = schedule_at(rule, t)
        assert a == a0 * float(t) ** -0.75
        assert b == min(1.0, b0 * float(t) ** -0.5)
        a_next, b_next = schedule_at(rule, t + 1)
        assert a_next <= a and b_next <= b

    @settings(max_examples=100)
    @given(a0=st.floats(1e-6, 1e6), b0=st.floats(1e-6, 1.0), t=st.integers(1, 10**9))
    def test_constant(self, a0, b0, t):
        assert schedule_at(Schedule("constant", a0, b0), t) == (a0, b0)

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
        fmap, theta, X, y = instance(0, n=5)
        rng = np.random.default_rng(1)
        A = feasible_surrogate(rng, 2, theta.noise_variance)
        zeta = AugmentedState(theta, A)
        got = minimax_sample_objective(fmap, zeta, np.zeros((2, 2)), X[0], y[0], 5, penalty=2.0)
        expect = sample_loss_term(fmap, theta, X[0], y[0], 5) + logdet_psd(A) / 5
        assert got == pytest.approx(expect, rel=1e-12)

    def test_sum_at_assembled_matrix_recovers_full_loss(self):
        fmap, theta, X, y = instance(2, n=5)
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
        fmap, theta, X, y = instance(4, n=5)
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
        fmap, theta, X, y = instance(6, n=5)
        zeta = AugmentedState(theta, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="zero"):
            minimax_sample_objective(fmap, zeta, np.zeros((2, 2)), X[0], y[0], 5, 1.0)


class TestMinimaxBatchGrads:
    def test_zero_penalty_decouples(self):
        fmap, theta, X, y = instance(7, n=5)
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
        plain = (n / 2) * grad_theta_of_linearized(
            fmap, theta, X[idx], y[idx], np.zeros((2, 2)), n
        )
        np.testing.assert_allclose(g_theta, plain, rtol=1e-12)

    def test_matches_finite_differences_all_blocks(self):
        fmap, theta, X, y = instance(9, n=5, hidden=4, d=3, sigma2=0.7)
        rng = np.random.default_rng(10)
        A = feasible_surrogate(rng, 3, theta.noise_variance)
        B = 0.4 * rng.normal(size=(3, 3))
        rels = penalized_grad_errors(fmap, AugmentedState(theta, A), B, X, y, [1, 3], 1.3)
        assert max(rels.values()) < 1e-5, rels

    def test_enumeration_unbiasedness(self):
        fmap, theta, X, y = instance(11, n=4)
        rng = np.random.default_rng(12)
        A = feasible_surrogate(rng, 2, theta.noise_variance)
        B = 0.3 * rng.normal(size=(2, 2))
        gaps = enumeration_gaps(fmap, AugmentedState(theta, A), B, X, y, 2, 1.1)
        assert max(gaps) <= 1e-10


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
            assert dual_ball_gaps(B1)[1] <= 1e-15
            assert np.linalg.norm(P1 - P2) <= np.linalg.norm(B1 - B2) + 1e-12


class TestProjectPrimal:
    def test_feasible_state_unchanged(self):
        fmap, theta, X, _ = instance(14, n=5)
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
        params = np.full(fmap.n_params, 50.0)
        theta = HyperParams(np.array([-70.0, 3.0]), params, 2.0)
        zeta = AugmentedState(theta, 5.0 * np.eye(2))
        out = project_primal(zeta, sigma_min=1e-3, coord_bound=10.0)
        np.testing.assert_array_equal(out.theta.weights, [-10.0, 3.0])
        assert np.all(out.theta.feature_params == 10.0)

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
            gaps = projection_gaps(AugmentedState(theta, A), 0.05, 8.0, 6.0)
            assert gaps.params_move <= 1e-12 and gaps.surrogate_move <= 1e-12

    def test_blockwise_nonexpansive(self):
        # the three stages are each projections onto a fixed convex set, so
        # each is non-expansive in its own block: two states that differ only
        # in the noise, or only in the weights and feature coordinates, end no
        # further apart in that block; the noise clamp feeds the surrogate
        # stage, so the surrogate comparison fixes a common noise
        rng = np.random.default_rng(17)
        fmap = LinearMap(2)
        params = MLPMap(MLPSpec(2, (2, 2))).init_params(0)

        def project(w, flat, s2, coord_bound=1e6):
            theta = HyperParams(w, flat, s2)
            return project_primal(AugmentedState(theta, np.eye(2)), 0.05, coord_bound).theta

        for _ in range(25):
            s_a, s_b = rng.uniform(-1, 4, size=2)
            w = rng.normal(size=2)
            ca, cb = (project(w, params, s).noise_variance for s in (s_a, s_b))
            assert abs(ca - cb) <= abs(s_a - s_b) + 1e-15

            u, v = rng.normal(size=(2, 2 + params.size)) * 12
            s = rng.uniform(0.1, 1.0)
            pa, pb = project(u[:2], u[2:], s, 8.0), project(v[:2], v[2:], s, 8.0)
            moved = np.concatenate(
                [pa.weights - pb.weights, pa.feature_params - pb.feature_params]
            )
            assert np.linalg.norm(moved) <= np.linalg.norm(u - v) + 1e-12
            # the box is a product of intervals, so each coordinate is too
            assert (np.abs(moved) <= np.abs(u - v)).all()

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
            gaps = projection_gaps(AugmentedState(theta, A), 0.02, 500.0, 400.0)
            assert gaps.bound == 0.0 and gaps.spectrum <= 1e-10

    @settings(max_examples=80)
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
        params = rng.normal(size=fmap.n_params) * 10 ** rng.uniform(0, 3)
        theta = HyperParams(
            rng.normal(size=d) * 10 ** rng.uniform(0, 3), params, noise_frac * sigma_min**2
        )
        A = rng.normal(size=(d, d)) * 10 ** rng.uniform(-2, 3.5)
        bounds = dict(sigma_min=sigma_min, coord_bound=coord_bound, eig_bound=eig_bound)
        out = project_primal(AugmentedState(theta, A), **bounds)
        s2 = out.theta.noise_variance
        assert s2 == sigma_min * sigma_min
        gaps = projection_gaps(AugmentedState(theta, A), **bounds)
        assert gaps.bound == 0.0 and gaps.spectrum <= 1e-9 * max(1.0, eig_bound)
        assert gaps.params_move == 0.0
        assert gaps.surrogate_move <= 1e-12 * max(1.0, np.linalg.norm(out.info_surrogate))

        # flooring the noise before projecting, as the step rules do, is the same
        floored = HyperParams(theta.weights, params, s2)
        same = project_primal(AugmentedState(floored, A), **bounds)
        assert same.theta.noise_variance == s2
        np.testing.assert_array_equal(same.info_surrogate, out.info_surrogate)


class TestMinimaxInit:
    def test_full_pass(self):
        fmap, theta, X, y = instance(19, n=5)
        zeta, dual = minimax_init(fmap, theta, X)
        np.testing.assert_allclose(zeta.info_surrogate, info_matrix(fmap, theta, X), atol=1e-12)
        np.testing.assert_array_equal(dual, np.zeros((2, 2)))

    def test_streaming(self):
        fmap, theta, X, y = instance(20, n=8)
        idx = np.array([1, 4])
        zeta, _ = minimax_init(fmap, theta, X, batch_indices=idx)
        Z = fmap.forward(theta.feature_params, X[idx]).Z
        expect = (8 / 2) * (Z.T @ Z) + theta.noise_variance * np.eye(2)
        np.testing.assert_allclose(zeta.info_surrogate, expect, atol=1e-12)

    def test_unbiased_over_all_batches(self):
        fmap, theta, X, y = instance(21, n=4)
        full = info_matrix(fmap, theta, X)
        draws = [
            minimax_init(fmap, theta, X, batch_indices=list(pair))[0].info_surrogate
            for pair in itertools.product(range(4), repeat=2)
        ]
        np.testing.assert_allclose(np.mean(draws, axis=0), full, rtol=1e-10, atol=1e-12)


class TestMinimaxStep:
    def test_zero_rates_fix_feasible_state(self):
        fmap, theta, X, y = instance(22, n=5)
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
        fmap, theta, X, y = instance(31, n=12)
        zeta, dual = minimax_init(fmap, theta, X)
        dual = project_dual_ball(np.random.default_rng(32).normal(size=(2, 2)))
        cfg = MinimaxConfig(primal_rate=0.3, dual_rate=0.1, sigma_min=0.7, coord_bound=2.0, eig_bound=4.0)
        idx = [0, 3, 5, 5]
        g_theta, g_A, _ = minimax_batch_grads(fmap, zeta, dual, X[idx], y[idx], 12, cfg.penalty)
        a, d = cfg.primal_rate, theta.d
        v = theta.flat - a * g_theta
        raw = AugmentedState(
            HyperParams(v[:d], v[d:-1], max(v[-1], cfg.sigma_min**2)),
            zeta.info_surrogate - a * g_A,
        )
        want = project_primal(raw, cfg.sigma_min, cfg.coord_bound, cfg.eig_bound)
        got, _ = minimax_step(fmap, zeta, dual, X, y, idx, [1, 2], cfg)
        assert np.array_equal(got.theta.weights, want.theta.weights)
        assert np.array_equal(got.theta.feature_params, want.theta.feature_params)
        assert type(got.theta.noise_variance) is float
        assert got.theta.noise_variance == want.theta.noise_variance
        assert np.array_equal(got.info_surrogate, want.info_surrogate)
        assert got.info_surrogate.flags.c_contiguous and got.theta.weights.flags.c_contiguous

    def test_overflowed_step_is_rejected_not_clipped(self):
        # np.clip would map an infinite weight onto the coordinate bound; the
        # step must fail instead, as it did when every intermediate state was checked
        fmap, theta, X, y = instance(33, n=8)
        zeta, dual = minimax_init(fmap, theta, X)
        cfg = MinimaxConfig(primal_rate=1e308, dual_rate=0.1)
        with np.errstate(over="ignore"):
            g_theta, _, _ = minimax_batch_grads(fmap, zeta, dual, X[:4], y[:4], 8, cfg.penalty)
            assert not np.isfinite(theta.weights - 1e308 * g_theta[: theta.d]).all()
            with pytest.raises(ValueError, match="weights contain non-finite entries"):
                minimax_step(fmap, zeta, dual, X, y, [0, 1, 2, 3], [4, 5], cfg)

    def test_feasible_after_every_step(self):
        fmap, theta, X, y = instance(24, n=16)
        rng = np.random.default_rng(25)
        zeta, dual = minimax_init(fmap, theta, X)
        cfg = MinimaxConfig(primal_rate=5e-3, dual_rate=5e-2, sigma_min=0.05, coord_bound=50.0, eig_bound=100.0)
        for _ in range(60):
            i1 = rng.integers(0, 16, size=4)
            i2 = rng.integers(0, 16, size=4)
            zeta, dual = minimax_step(fmap, zeta, dual, X, y, i1, i2, cfg)
            bound, spectrum = feasibility_gaps(zeta, 0.05, 50.0, 100.0)
            assert bound == 0.0 and spectrum <= 1e-10
            assert np.linalg.norm(dual) <= 1.0 + 1e-12

    def test_deterministic_trajectories(self):
        def run():
            fmap, theta, X, y = instance(26, n=12)
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
        assert np.array_equal(za.theta.feature_params, zb.theta.feature_params)
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


    def test_indefinite_surrogate_is_named(self):
        fmap, theta, X, y = instance(24, n=5)
        zeta = AugmentedState(theta, np.diag([1.0, -0.5]))
        cfg = MinimaxConfig(primal_rate=1e-3, dual_rate=1e-3)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            minimax_step(fmap, zeta, np.zeros((2, 2)), X, y, [0, 1], [2, 3], cfg)
        assert str(exc.value) == "surrogate matrix: not positive definite (failing pivot 2)"


class TestSCGD:
    def test_init_tracker_exact(self):
        fmap, theta, X, y = instance(28, n=5)
        state = scgd_init(fmap, theta, X)
        np.testing.assert_allclose(state.tracked_info, info_matrix(fmap, theta, X), atol=1e-12)
        assert state.step == 0

    def test_full_batch_unit_weight_sets_tracker_exactly(self):
        fmap, theta, X, y = instance(29, n=7)
        state = SCGDState(theta, 5.0 * np.eye(2), 0)
        out = scgd_step(fmap, state, X, y, np.arange(7), a_t=1e-3, b_t=1.0)
        np.testing.assert_allclose(out.tracked_info, info_matrix(fmap, theta, X), atol=1e-12)

    def test_zero_step_freezes_theta_but_updates_tracker(self):
        fmap, theta, X, y = instance(30, n=6)
        state = scgd_init(fmap, theta, X)
        out = scgd_step(fmap, state, X, y, np.array([0, 2]), a_t=0.0, b_t=0.5)
        np.testing.assert_array_equal(out.theta.weights, theta.weights)
        assert out.theta.noise_variance == theta.noise_variance
        assert not np.allclose(out.tracked_info, state.tracked_info)
        assert out.step == 1

    def test_theta_direction_matches_linearized_gradient(self):
        fmap, theta, X, y = instance(31, n=8)
        state = scgd_init(fmap, theta, X)
        idx = np.array([1, 4, 6])
        a = 1e-4
        out = scgd_step(fmap, state, X, y, idx, a_t=a, b_t=0.5)
        M = np.linalg.inv(state.tracked_info)
        g = grad_theta_of_linearized(fmap, theta, X[idx], y[idx], M, 8)
        np.testing.assert_allclose((theta.flat - out.theta.flat) / a, g, rtol=1e-10)

    def test_indefinite_tracker_is_named_not_repaired(self, monkeypatch):
        # the step factors its tracker once; an indefinite one raises from
        # that factorization, named with the iteration that read it
        fmap, theta, X, y = instance(32, n=6)
        state = SCGDState(theta, np.diag([1.0, -0.5]), 3)
        calls = Counter()
        TestCallBudget.count_calls(monkeypatch, calls, stochgp._linalg, "_potrf")
        with pytest.raises(NotPositiveDefiniteError) as exc:
            scgd_step(fmap, state, X, y, np.array([0, 1]), a_t=1e-4, b_t=0.5)
        assert str(exc.value) == (
            "tracked information matrix at iteration 3: not positive definite (failing pivot 2)"
        )
        assert calls["_potrf"] == 1

    def test_far_indefinite_tracker_reports_failing_pivot(self):
        # eigenvalues 1e20 and -1: the step raises with LAPACK's pivot
        fmap, theta, X, y = instance(35, n=6)
        Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2)))
        state = SCGDState(theta, symmetrize((Q * np.array([1e20, -1.0])) @ Q.T), 6)
        with pytest.raises(NotPositiveDefiniteError, match="iteration 6") as exc:
            scgd_step(fmap, state, X, y, np.array([0, 1]), a_t=1e-3, b_t=0.9)
        assert exc.value.pivot >= 1

    @settings(max_examples=60)
    @given(
        kind=st.sampled_from(["linear", "mlp", "mlp+rff"]),
        log_cond=st.floats(0.0, 8.0),
        log_scale=st.floats(-3.0, 3.0),
        b=st.floats(0.0, 1.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tracker_update_keeps_the_smallest_eigenvalue(self, kind, log_cond, log_scale, b, seed):
        # the premise that lets the step factor its tracker once, unrepaired:
        # the new tracker (1 - b) F + b ((n/s) Z^T Z + s2 I) has smallest
        # eigenvalue at least (1 - b) lmin(F) + b s2 (Weyl), up to rounding,
        # so a positive definite F with cond(F) <= 1e8 never makes it raise.
        # The rounding allowance, 16 eps ||F_next||_F, covers the batch Gram,
        # the convex combination and eigvalsh: each term's norm is at most
        # that of F_next, a sum of positive semidefinite matrices
        fmap, theta, X, y = instance(seed, 12, kind=kind)
        d = fmap.output_dim
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        F = symmetrize((Q * 10.0**log_scale * np.logspace(0.0, log_cond, d)) @ Q.T)
        lo_F, hi_F = np.linalg.eigvalsh(F)[[0, -1]]
        assert hi_F / lo_F <= 1.001e8
        out = scgd_step(fmap, SCGDState(theta, F, 1), X, y, rng.integers(0, 12, size=4), 1e-4, b)
        tol = 16 * np.finfo(np.float64).eps * np.linalg.norm(out.tracked_info)
        weyl = (1.0 - b) * lo_F + b * theta.noise_variance
        assert np.linalg.eigvalsh(out.tracked_info)[0] >= weyl - tol

    def test_noise_clamped_at_floor(self):
        fmap, theta, X, y = instance(33, n=6, sigma2=0.01)
        state = scgd_init(fmap, theta, X)
        out = scgd_step(fmap, state, X, y, np.arange(6), a_t=10.0, b_t=1.0, sigma_min=0.09)
        assert out.theta.noise_variance >= 0.09**2 - 1e-15

    def test_bad_weights_rejected(self):
        fmap, theta, X, y = instance(34, n=5)
        state = scgd_init(fmap, theta, X)
        with pytest.raises(ValueError, match="0, 1"):
            scgd_step(fmap, state, X, y, np.array([0]), a_t=1e-3, b_t=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            scgd_step(fmap, state, X, y, np.array([0]), a_t=-1e-3, b_t=0.5)

    @settings(max_examples=40)
    @given(
        d=st.sampled_from([1, 2, 5, 17]),
        indefinite=st.booleans(),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_reads_only_the_trackers_lower_triangle(self, d, indefinite, scale, seed):
        # potrf reads the lower triangle, and the step does not symmetrize
        # the tracker it returns, so what lies above the diagonal of the
        # incoming tracker reaches neither theta nor the new tracker's lower
        # triangle. A lowered diagonal makes the tracker indefinite, and both
        # steps then fail on it alike
        fmap, theta, X, y = instance(seed, 30, p=3, hidden=8, d=d)
        rng = np.random.default_rng(seed)
        F = info_matrix(fmap, theta, X)
        if indefinite:
            diagonal(F)[...] -= float(np.trace(F)) / d
        upper = np.triu_indices(d, 1)
        P = F.copy()
        P[upper] += scale * rng.normal(size=len(upper[0])) * (1.0 + np.abs(P[upper]))
        batch = rng.integers(0, 30, size=8)

        def step(tracker):
            try:
                return scgd_step(fmap, SCGDState(theta, tracker, 2), X, y, batch, 1e-3, 0.5)
            except NotPositiveDefiniteError as exc:
                return str(exc)

        a, b = step(F), step(P)
        if indefinite:
            assert isinstance(a, str) and a == b
            assert a.startswith("tracked information matrix at iteration 2: not positive definite")
            return
        assert np.array_equal(a.theta.flat, b.theta.flat)
        assert np.array_equal(np.tril(a.tracked_info), np.tril(b.tracked_info))


class TestBSGD:
    def test_full_batch_is_whole_loss_gradient(self):
        fmap, theta, X, y = instance(35, n=9)
        n = 9
        a = 1e-4
        out = bsgd_step(fmap, theta, X, y, np.arange(n), a_t=a)
        M = np.linalg.inv(info_matrix(fmap, theta, X))
        g = grad_theta_of_linearized(fmap, theta, X, y, M, n)
        np.testing.assert_allclose((theta.flat - out.flat) / a, g, rtol=1e-9)

    def test_matches_finite_differences_of_batch_loss(self):
        assert bsgd_grad_error(*instance(36, n=7), [0, 2, 5], a_t=1e-5) < 1e-5

    def test_small_batch_bias_by_enumeration(self):
        assert baseline_bias(*instance(37, n=4), 2) > 1e-6

    def test_empty_batch_rejected(self):
        fmap, theta, X, y = instance(38, n=5)
        with pytest.raises(ValueError, match="non-empty"):
            bsgd_step(fmap, theta, X, y, np.array([], dtype=np.int64), a_t=1e-3)


    def test_indefinite_batch_information_is_named(self):
        # a negative noise variance pulls the batch information sum's diagonal
        # below zero; the step inverts that sum before the loss checks s2
        fmap, theta, X, y = instance(39, n=5)
        theta = HyperParams(theta.weights, theta.feature_params, -100.0)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            bsgd_step(fmap, theta, X, y, np.array([0, 1]), a_t=1e-3)
        assert str(exc.value).startswith("batch information matrix: not positive definite")


class TestOptimizerCoincidence:
    def test_scgd_equals_bsgd_at_full_batch_unit_weight(self):
        assert coincidence_gap(*instance(39, n=10), 2e-4) <= 1e-12


class TestExactnessProperties:
    """The paper's exactness claims over drawn instances; test_03/test_04 fix one each."""

    @settings(max_examples=30)
    @given(
        kind=st.sampled_from(["linear", "mlp", "mlp+rff"]),
        n=st.integers(3, 6),
        s=st.integers(1, 3),
        sigma2=st.floats(0.5, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_minimax_batch_gradients_average_to_the_full_gradient(self, kind, n, s, sigma2, seed):
        fmap, theta, X, y = instance(seed, n, kind, sigma2=sigma2)
        rng = np.random.default_rng(seed + 1)
        d = fmap.output_dim
        zeta = AugmentedState(theta, feasible_surrogate(rng, d, sigma2))
        B = 0.3 * rng.normal(size=(d, d))
        gaps = enumeration_gaps(fmap, zeta, B, X, y, s, float(rng.uniform(0.5, 2.0)))
        assert max(gaps) <= 1e-10

    @settings(max_examples=30)
    @given(
        kind=st.sampled_from(["linear", "mlp", "mlp+rff"]),
        n=st.integers(3, 10),
        sigma2=st.floats(0.5, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="mlp", n=10, sigma2=0.6, seed=39)
    def test_scgd_at_the_exact_tracker_is_bsgd_on_the_full_batch(self, kind, n, sigma2, seed):
        assert coincidence_gap(*instance(seed, n, kind, sigma2=sigma2), 1e-2) <= 1e-12


class TestExactSymmetry:
    @settings(max_examples=12)
    @given(
        d=st.sampled_from([1, 2, 5, 17, 95, 255]),
        dual_start=st.sampled_from(["zero", "drawn"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=95, dual_start="drawn", seed=0)
    @example(d=255, dual_start="zero", seed=1)
    def test_step_matrices_stay_exactly_symmetric(self, d, dual_start, seed):
        # no step symmetrizes what it returns but minimax's projection, so this
        # pins symmetry where each matrix is made. At d = 95 and 255 the inverse
        # chol_inverse forms is not always exactly symmetric itself
        fmap, theta, X, y = instance(seed, 40, p=3, hidden=8, d=d)
        rng = np.random.default_rng(seed)
        batches = [rng.integers(0, 40, size=8) for _ in range(6)]
        zeta, B = minimax_init(fmap, theta, X)
        if dual_start == "drawn":
            B = project_dual_ball(symmetrize(rng.normal(size=(d, d))))
        state = scgd_init(fmap, theta, X)
        cfg = MinimaxConfig(primal_rate=1e-3, dual_rate=1e-1)
        for t in range(3):
            zeta, B = minimax_step(fmap, zeta, B, X, y, batches[2 * t], batches[2 * t + 1], cfg)
            state = scgd_step(fmap, state, X, y, batches[t], 1e-3, 0.5)
            for M in (zeta.info_surrogate, B, state.tracked_info):
                assert np.array_equal(M, M.T)


class TestCallBudget:
    """LAPACK/BLAS calls per step and per evaluation, counted at the kernel handles.

    The counts do not depend on the machine, so they pin the cubic work of
    each rule: a change that adds a call must change its budget here and
    say why.
    """

    KERNELS = ("_potrf", "_trtri", "_potrs", "_gemm", "_syrk")
    # calls of (potrf, trtri, potrs, gemm, syrk, np.linalg.eigh, optim.symmetrize)
    # per call of the caller; minimax's one symmetrize is its projection's
    BUDGET = {
        "minimax": (2, 1, 0, 1, 2, 0, 1),
        "scgd": (1, 1, 0, 1, 1, 0, 0),
        "bsgd": (1, 1, 0, 1, 1, 0, 0),
        "evaluation": (1, 1, 1, 1, 1, 0, 0),
    }

    @staticmethod
    def count_calls(monkeypatch, counts, owner, name):
        """Replace owner.name by a wrapper that counts its calls in counts[name]."""
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    @pytest.mark.parametrize("caller", sorted(BUDGET))
    def test_calls_per_step(self, caller, monkeypatch):
        # MLP 3 -> 8 -> 5 on 40 rows, batches of 8. With 8 hidden units the
        # features have full rank, so the surrogate stays inside its cone and the
        # tracker positive definite, and neither repair path (eigh) runs; with 4,
        # Z^T Z is singular and the projection takes eigh on most steps
        fmap, theta, X, y = instance(41, 40, p=3, hidden=8, d=5)
        rng = np.random.default_rng(42)
        steps = 3
        batches = [rng.integers(0, 40, size=8) for _ in range(2 * steps)]
        cfg = MinimaxConfig(primal_rate=1e-3, dual_rate=1e-2)
        evaluator = _Evaluator(fmap, X, y)
        # (start, the state after step t from a state); an evaluation leaves theta as it is
        state, advance = {
            "minimax": (
                minimax_init(fmap, theta, X),
                lambda z, t: minimax_step(fmap, *z, X, y, batches[2 * t], batches[2 * t + 1], cfg),
            ),
            "scgd": (
                scgd_init(fmap, theta, X),
                lambda st, t: scgd_step(fmap, st, X, y, batches[t], 1e-3, 0.5),
            ),
            "bsgd": (theta, lambda th, t: bsgd_step(fmap, th, X, y, batches[t], 1e-3)),
            "evaluation": (theta, lambda th, t: (evaluator.nll(th), th)[1]),
        }[caller]

        counts = Counter()
        for name in self.KERNELS:
            self.count_calls(monkeypatch, counts, stochgp._linalg, name)
        self.count_calls(monkeypatch, counts, np.linalg, "eigh")
        self.count_calls(monkeypatch, counts, stochgp.optim, "symmetrize")
        for t in range(steps):
            state = advance(state, t)
        got = tuple(counts[name] / steps for name in self.KERNELS + ("eigh", "symmetrize"))
        assert got == self.BUDGET[caller]

    def test_a_three_block_pass_mirrors_once(self, monkeypatch):
        # blocks of 14 rows split 40 rows into three; their triangles are
        # summed and mirrored once, and F is still the blocks' grams summed
        fmap, theta, X, y = instance(41, 40, p=3, hidden=8, d=5)
        monkeypatch.setattr(stochgp.objective, "BLOCK_FLOATS", 5 * 14)
        blocks = _row_blocks(40, 5)
        assert len(blocks) == 3
        grams = [gram(fmap.forward(theta.feature_params, X[rows]).Z) for rows in blocks]
        ref = grams[0]
        for G in grams[1:]:
            ref += G
        diagonal(ref)[...] += theta.noise_variance
        counts = Counter()
        # gram in _linalg and _ridge_system in objective each call their module's name
        for module in (stochgp._linalg, stochgp.objective):
            self.count_calls(monkeypatch, counts, module, "mirror_upper")
        F = info_matrix(fmap, theta, X)
        assert counts["mirror_upper"] == 1
        assert np.array_equal(F, ref)
        _Evaluator(fmap, X, y).nll(theta)
        assert counts["mirror_upper"] == 2
