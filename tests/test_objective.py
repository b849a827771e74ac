"""Loss terms, exact oracles, and the linearized-gradient kernel."""

import numpy as np
import pytest

from fdcheck import assert_grad_close, complex_step_grad, fd_grad
from stochgp._linalg import NotPositiveDefiniteError
from stochgp.features import LinearMap, MLPMap, MLPSpec
from stochgp.objective import HyperParams, ThetaGrad, info_matrix
from stochgp.oracles import (
    exact_nll_oracle,
    full_loss,
    grad_theta_of_linearized,
    logdet_psd,
    ridge_closed_form,
    ridge_identity_check,
    sample_info_term,
    sample_loss_term,
)


def mlp_instance(seed, n=20, p=3, hidden=4, d=2, sigma2=0.6):
    rng = np.random.default_rng(seed)
    fmap = MLPMap(MLPSpec(p, (hidden, d)))
    params = fmap.init_params(seed=seed + 1)
    theta = HyperParams(rng.normal(size=d) * 0.5, params, sigma2)
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    return fmap, theta, X, y


def zero_feature_instance(n=6, p=2, d=3, sigma2=0.7, seed=0):
    # all-zero network weights force phi(x) = 0 for every x
    rng = np.random.default_rng(seed)
    fmap = MLPMap(MLPSpec(p, (4, d)))
    params = fmap.params_from_flat(np.zeros(fmap.n_params))
    theta = HyperParams(np.zeros(d), params, sigma2)
    return fmap, theta, rng.normal(size=(n, p)), rng.normal(size=n)


class TestHyperParams:
    def test_rejects_non_finite(self):
        fmap = LinearMap(2)
        with pytest.raises(ValueError, match="finite"):
            HyperParams(np.array([1.0, np.nan]), fmap.init_params(0), 1.0)
        with pytest.raises(ValueError, match="finite"):
            HyperParams(np.zeros(2), fmap.init_params(0), np.inf)

    def test_rejects_matrix_weights(self):
        with pytest.raises(ValueError, match="1-d"):
            HyperParams(np.zeros((2, 2)), LinearMap(2).init_params(0), 1.0)

    def test_grad_helpers(self):
        g = ThetaGrad(np.array([3.0, 4.0]), np.array([0.0]), 0.0)
        assert g.norm() == pytest.approx(5.0)
        h = g.scaled(2.0).added(g)
        np.testing.assert_array_equal(h.weights, [9.0, 12.0])


class TestSampleLossTerm:
    def test_zeroed_terms(self):
        fmap = LinearMap(2)
        theta = HyperParams(np.zeros(2), fmap.init_params(0), 1.0)
        val = sample_loss_term(fmap, theta, np.array([0.3, -0.1]), 2.0, n_total=4)
        assert val == pytest.approx(4.0)

    def test_zero_residual_square_data(self):
        fmap = LinearMap(2)
        w = np.array([3.0, 5.0])
        theta = HyperParams(w, fmap.init_params(0), 1.0)
        x = np.array([1.0, 0.0])
        val = sample_loss_term(fmap, theta, x, y=3.0, n_total=2)
        assert val == pytest.approx(np.sum(w**2) / 2.0)

    def test_term_wise_recomputation(self):
        fmap, theta, X, y = mlp_instance(3)
        n = X.shape[0]
        d = fmap.output_dim
        i = 7
        phi = fmap.forward(theta.feature_params, X[i : i + 1]).Z[0]
        r = float(phi @ theta.weights) - y[i]
        expect = (
            r * r / theta.noise_variance
            + float(theta.weights @ theta.weights) / n
            + (n - d) / n * np.log(theta.noise_variance)
        )
        got = sample_loss_term(fmap, theta, X[i], y[i], n)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_nonpositive_noise_rejected(self):
        fmap = LinearMap(1)
        theta = HyperParams(np.zeros(1), fmap.init_params(0), -1.0)
        with pytest.raises(ValueError, match="positive"):
            sample_loss_term(fmap, theta, np.array([1.0]), 0.0, 3)


class TestSampleInfoTerm:
    def test_unit_vector(self):
        fmap = LinearMap(2)
        theta = HyperParams(np.zeros(2), fmap.init_params(0), 1.0)
        F = sample_info_term(fmap, theta, np.array([1.0, 0.0]), n_total=2)
        np.testing.assert_allclose(F, [[1.5, 0.0], [0.0, 0.5]])

    def test_zero_feature(self):
        fmap, theta, X, _ = zero_feature_instance(sigma2=0.9)
        F = sample_info_term(fmap, theta, X[0], n_total=6)
        np.testing.assert_allclose(F, 0.9 / 6 * np.eye(3))

    def test_sum_assembles_information_matrix(self):
        fmap, theta, X, _ = mlp_instance(4)
        n = X.shape[0]
        total = sum(sample_info_term(fmap, theta, X[i], n) for i in range(n))
        np.testing.assert_allclose(total, info_matrix(fmap, theta, X), atol=1e-10)


class TestLogdetPsd:
    def test_identity(self):
        assert logdet_psd(np.eye(3)) == 0.0

    def test_diagonal(self):
        assert logdet_psd(np.diag([2.0, 2.0])) == pytest.approx(2 * np.log(2.0))

    def test_matches_eigensolve(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(6, 6))
        A = G @ G.T + np.eye(6)
        expect = float(np.sum(np.log(np.linalg.eigvalsh(A))))
        assert logdet_psd(A) == pytest.approx(expect, rel=1e-9)

    def test_non_pd_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError, match="pivot 2") as exc:
            logdet_psd(np.diag([1.0, -1.0]))
        assert exc.value.pivot == 2


class TestFullLoss:
    def test_zero_features(self):
        fmap, theta, X, y = zero_feature_instance(n=6, sigma2=0.7)
        expect = float(y @ y) / 0.7 + 6 * np.log(0.7)
        assert full_loss(fmap, theta, X, y) == pytest.approx(expect, rel=1e-12)

    def test_decomposes_into_sample_terms(self):
        for seed in range(4):
            fmap, theta, X, y = mlp_instance(seed, sigma2=0.4 + 0.3 * seed)
            n = X.shape[0]
            g = sum(sample_loss_term(fmap, theta, X[i], y[i], n) for i in range(n))
            F = sum(sample_info_term(fmap, theta, X[i], n) for i in range(n))
            total = g + logdet_psd(F)
            assert full_loss(fmap, theta, X, y) == pytest.approx(total, abs=1e-10, rel=1e-10)

    def test_at_ridge_minimizer_equals_kernel_oracle(self):
        for seed in range(4):
            fmap, theta, X, y = mlp_instance(seed + 20, n=25, d=3)
            Z = fmap.forward(theta.feature_params, X).Z
            w_hat = ridge_closed_form(Z, y, theta.noise_variance)
            theta_hat = HyperParams(w_hat, theta.feature_params, theta.noise_variance)
            lhs = full_loss(fmap, theta_hat, X, y)
            rhs = exact_nll_oracle(fmap, theta.feature_params, theta.noise_variance, X, y)
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestRidgeClosedForm:
    def test_zero_design(self):
        w = ridge_closed_form(np.zeros((4, 2)), np.ones(4), 0.5)
        np.testing.assert_array_equal(w, np.zeros(2))

    def test_scalar_instance(self):
        w = ridge_closed_form(np.array([[1.0]]), np.array([1.0]), 1.0)
        assert w[0] == pytest.approx(0.5)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            Z = rng.normal(size=(15, 4))
            y = rng.normal(size=15)
            s2 = float(rng.uniform(0.1, 2.0))
            w = ridge_closed_form(Z, y, s2)
            grad = (2.0 / s2) * Z.T @ (Z @ w - y) + 2.0 * w
            assert np.linalg.norm(grad) < 1e-9


class TestExactNllOracle:
    def test_zero_features(self):
        fmap, theta, X, y = zero_feature_instance(n=5, sigma2=1.3)
        got = exact_nll_oracle(fmap, theta.feature_params, 1.3, X, y)
        assert got == pytest.approx(float(y @ y) / 1.3 + 5 * np.log(1.3), rel=1e-12)

    def test_single_point(self):
        fmap = LinearMap(1)
        z, yv, s2 = 0.8, -1.1, 0.3
        got = exact_nll_oracle(fmap, fmap.init_params(0), s2, np.array([[z]]), np.array([yv]))
        expect = yv**2 / (z**2 + s2) + np.log(z**2 + s2)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_equals_ridge_minimum_of_full_loss(self):
        # the central reformulation: min over weights of the ridge-form loss
        # lands exactly on the kernel-space value
        for seed in range(6):
            fmap, theta, X, y = mlp_instance(seed + 40, n=30, d=4, sigma2=0.25 + 0.2 * seed)
            Z = fmap.forward(theta.feature_params, X).Z
            w_hat = ridge_closed_form(Z, y, theta.noise_variance)
            best = full_loss(
                fmap, HyperParams(w_hat, theta.feature_params, theta.noise_variance), X, y
            )
            oracle = exact_nll_oracle(fmap, theta.feature_params, theta.noise_variance, X, y)
            assert best == pytest.approx(oracle, rel=1e-8)
            # any other w does worse
            other = HyperParams(w_hat + 0.1, theta.feature_params, theta.noise_variance)
            assert full_loss(fmap, other, X, y) > best


class TestRidgeIdentityCheck:
    def test_zero_matrix(self):
        b = np.array([1.0, 2.0])
        lhs, rhs = ridge_identity_check(np.zeros((2, 3)), b, 0.5)
        assert lhs == pytest.approx(float(b @ b) / 0.5)
        assert rhs == pytest.approx(lhs)

    def test_scalar(self):
        lhs, rhs = ridge_identity_check(np.array([[1.0]]), np.array([1.0]), 1.0)
        assert lhs == pytest.approx(0.5)
        assert rhs == pytest.approx(0.5)

    def test_random_rectangular(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            V = rng.normal(size=(20, 7))
            b = rng.normal(size=20)
            lam = float(rng.uniform(0.05, 3.0))
            lhs, rhs = ridge_identity_check(V, b, lam)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


class TestSylvesterConsistency:
    def test_wide_and_tall(self):
        rng = np.random.default_rng(13)
        for n, d in [(12, 3), (5, 9)]:
            Z = rng.normal(size=(n, d))
            s2 = float(rng.uniform(0.2, 1.5))
            lhs = logdet_psd(Z @ Z.T + s2 * np.eye(n))
            rhs = logdet_psd(Z.T @ Z + s2 * np.eye(d)) + (n - d) * np.log(s2)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def linearized_scalar(fmap, theta_template, X, y, M, n_total, idx):
    """Forward-only recomputation of the batch objective as a flat function."""
    d = fmap.output_dim

    def f(v):
        theta = HyperParams(
            v[:d], theta_template.feature_params.with_flat(v[d:-1]), float(v[-1])
        )
        total = 0.0
        for i in idx:
            total += sample_loss_term(fmap, theta, X[i], y[i], n_total)
            total += float(np.sum(M * sample_info_term(fmap, theta, X[i], n_total)))
        return total

    return f


def flat_theta(theta):
    return np.concatenate(
        [theta.weights, theta.feature_params.flat, [theta.noise_variance]]
    )


class TestGradThetaOfLinearized:
    def test_regularizer_only_block(self):
        # zero M, zero residuals, n == d: only the ||w||^2/n terms survive
        fmap = LinearMap(3)
        rng = np.random.default_rng(17)
        w = rng.normal(size=3)
        X = rng.normal(size=(3, 3))
        y = X @ w
        theta = HyperParams(w, fmap.init_params(0), 1.0)
        g = grad_theta_of_linearized(fmap, theta, X[:2], y[:2], np.zeros((3, 3)), n_total=3)
        np.testing.assert_allclose(g.weights, (2.0 * 2 / 3) * w, atol=1e-12)
        assert g.feature_params.shape == (0,)
        assert g.noise_variance == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        fmap, theta, X, y = mlp_instance(51, n=9, d=2, sigma2=0.5)
        rng = np.random.default_rng(52)
        Msym = rng.normal(size=(2, 2))
        Msym = Msym + Msym.T
        idx = [0, 3, 5, 8]
        g = grad_theta_of_linearized(fmap, theta, X[idx], y[idx], Msym, n_total=9)
        analytic = np.concatenate([g.weights, g.feature_params, [g.noise_variance]])
        numeric = fd_grad(
            linearized_scalar(fmap, theta, X, y, Msym, 9, idx), flat_theta(theta)
        )
        assert_grad_close(analytic, numeric, rtol=1e-5, label="linearized grad")

    def test_asymmetric_weight_matrix(self):
        # the inner product <M, F_i> is linear in M, so the gradient must stay
        # correct when M is not symmetric
        fmap, theta, X, y = mlp_instance(53, n=6, d=2)
        M = np.array([[0.3, 1.1], [-0.4, 0.2]])
        idx = [1, 2, 4]
        g = grad_theta_of_linearized(fmap, theta, X[idx], y[idx], M, n_total=6)
        analytic = np.concatenate([g.weights, g.feature_params, [g.noise_variance]])
        numeric = fd_grad(
            linearized_scalar(fmap, theta, X, y, M, 6, idx), flat_theta(theta)
        )
        assert_grad_close(analytic, numeric, rtol=1e-5, label="asymmetric M grad")

    def test_wrong_m_shape_rejected(self):
        fmap, theta, X, y = mlp_instance(54)
        with pytest.raises(ValueError, match="M must be"):
            grad_theta_of_linearized(fmap, theta, X, y, np.eye(5), n_total=20)

    def test_full_batch_with_inverse_info_is_whole_loss_gradient(self):
        # complex-step differentiation of a straight-line reimplementation of
        # the loss; exact to machine precision, so the comparison can be tight
        fmap, theta, X, y = mlp_instance(55, n=12, p=2, hidden=3, d=2, sigma2=0.8)
        n, p = X.shape
        h_dim, d = 3, 2
        F = info_matrix(fmap, theta, X)
        M = np.linalg.inv(F)
        g = grad_theta_of_linearized(fmap, theta, X, y, M, n_total=n)
        analytic = np.concatenate([g.weights, g.feature_params, [g.noise_variance]])

        def loss(v):
            w = v[:d]
            a = v[d:-1]
            s2 = v[-1]
            w1 = a[: h_dim * p].reshape(h_dim, p)
            b1 = a[h_dim * p : h_dim * p + h_dim]
            w2 = a[h_dim * p + h_dim : h_dim * p + h_dim + d * h_dim].reshape(d, h_dim)
            b2 = a[h_dim * p + h_dim + d * h_dim :]
            pre = X @ w1.T + b1
            hid = pre * (pre.real > 0)
            Z = hid @ w2.T + b2
            resid = Z @ w - y
            Fc = Z.T @ Z + s2 * np.eye(d)
            sign, logabs = np.linalg.slogdet(Fc)
            logdet = logabs + np.log(sign)
            return (
                np.sum(resid * resid) / s2
                + np.sum(w * w)
                + logdet
                + (n - d) * np.log(s2)
            )

        v0 = flat_theta(theta)
        assert loss(v0.astype(np.complex128)).real == pytest.approx(
            full_loss(fmap, theta, X, y), rel=1e-12
        )
        numeric = complex_step_grad(loss, v0)
        assert_grad_close(analytic, numeric, rtol=1e-8, label="whole-loss grad")
