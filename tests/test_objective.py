"""Loss terms, exact oracles, and the linearized-gradient kernel."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from instances import instance
from stochgp._linalg import NotPositiveDefiniteError
from stochgp.features import LinearMap, MLPMap, MLPSpec
from stochgp.objective import HyperParams, info_matrix
from stochgp.oracles import (
    decomposition_gap,
    exact_nll_oracle,
    full_loss,
    grad_theta_of_linearized,
    linearized_grad_error,
    logdet_psd,
    max_rel_error,
    ridge_closed_form,
    ridge_gaps,
    ridge_identity_check,
    ridge_minimum_gap,
    sample_info_term,
    sample_loss_term,
)

# a drawn instance: a map of each kind on three inputs (MLP 3 -> 4 -> d inside),
# a parameter point on it and n rows
drawn = dict(
    kind=st.sampled_from(["linear", "mlp", "mlp+rff"]),
    n=st.integers(1, 30),
    d=st.integers(1, 4),
    sigma2=st.floats(0.2, 1.5),
    seed=st.integers(0, 2**32 - 1),
)


def zero_feature_instance(n=6, p=2, d=3, sigma2=0.7, seed=0):
    # all-zero network weights force phi(x) = 0 for every x
    rng = np.random.default_rng(seed)
    fmap = MLPMap(MLPSpec(p, (4, d)))
    params = np.zeros(fmap.n_params)
    theta = HyperParams(np.zeros(d), params, sigma2)
    return fmap, theta, rng.normal(size=(n, p)), rng.normal(size=n)


class TestHyperParams:
    def test_rejects_non_finite(self):
        fmap = LinearMap(2)
        with pytest.raises(ValueError, match="finite"):
            HyperParams(np.array([1.0, np.nan]), fmap.init_params(0), 1.0)
        with pytest.raises(ValueError, match="finite"):
            HyperParams(np.zeros(2), fmap.init_params(0), np.inf)
        for kind in ("mlp", "mlp+rff"):
            _, theta, _, _ = instance(0, 1, kind)
            for bad in (np.inf, np.nan):
                f = theta.feature_params.copy()
                f[1] = bad
                with pytest.raises(ValueError, match="feature parameters contain non-finite"):
                    HyperParams(theta.weights, f, 1.0)

    @pytest.mark.parametrize("kind", ["linear", "mlp", "mlp+rff"])
    @pytest.mark.parametrize("off", [-1, 1])
    def test_with_flat_rejects_a_vector_of_another_length(self, kind, off):
        # one entry short, a linear point used to read its last weight as the noise
        _, theta, _, _ = instance(0, 1, kind, p=3)
        v = np.arange(1.0, theta.flat.size + off + 1)
        message = r"shape \(%d,\), this point's flat has shape \(%d,\)" % (v.size, theta.flat.size)
        with pytest.raises(ValueError, match=message):
            theta.with_flat(v)
        short = HyperParams(np.array([1.0, 2.0, 3.0]), LinearMap(3).init_params(0), 0.5)
        with pytest.raises(ValueError, match="theta vector has shape"):
            short.with_flat(np.array([1.0, 2.0, 3.0]))

    def test_points_compare_and_hash_by_identity(self):
        # comparing the arrays field by field has no one truth value, and an
        # array has no hash: a point is equal only to itself
        theta = HyperParams(np.zeros(2), np.ones(3), 0.5)
        same = theta.with_flat(theta.flat)
        assert theta == theta and theta != same
        assert len({theta, same, theta}) == 2

    def test_rejects_matrix_weights(self):
        with pytest.raises(ValueError, match="1-d"):
            HyperParams(np.zeros((2, 2)), LinearMap(2).init_params(0), 1.0)

    @pytest.mark.parametrize("kind", ["linear", "mlp", "mlp+rff"])
    def test_flat_is_the_storage(self, kind):
        # theta is stored once, as flat; weights and feature_params are views
        fmap, theta, X, _ = instance(4, 3, kind)
        assert theta.flat is theta.flat
        assert theta.weights.base is theta.flat and theta.feature_params.base is theta.flat
        assert np.shares_memory(theta.weights, theta.flat)
        assert fmap.n_params == 0 or np.shares_memory(theta.feature_params, theta.flat)
        assert theta.feature_params is theta.feature_params
        batch = fmap.forward(theta.feature_params, X)
        fmap.backward(theta.feature_params, batch, np.ones_like(batch.Z))
        # the point cannot be moved in place, through flat or its views
        for view in (theta.flat, theta.weights, theta.feature_params):
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0.0
        # with_flat wraps a copy: its round trip is bit for bit, and a later
        # write to the vector it was given leaves the point where it was
        v = theta.flat.copy()
        back = theta.with_flat(v)
        assert back.flat.tobytes() == theta.flat.tobytes()
        assert back.noise_variance == theta.noise_variance and type(back.noise_variance) is float
        v[:] = 7.0
        assert back.flat.tobytes() == theta.flat.tobytes()
        assert theta.with_flat(theta.flat).flat.tobytes() == theta.flat.tobytes()

    @settings(max_examples=80)
    @given(
        d=st.integers(1, 6),
        k=st.integers(0, 6),
        block=st.sampled_from(["weights", "feature parameters", "noise_variance"]),
        bad=st.sampled_from([np.inf, -np.inf, np.nan]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_non_finite_entry_names_its_block(self, d, k, block, bad, seed):
        start, stop, message = {
            "weights": (0, d, "weights contain non-finite entries"),
            "feature parameters": (d, d + k, "feature parameters contain non-finite entries"),
            "noise_variance": (d + k, d + k + 1, "noise_variance is not finite"),
        }[block]
        assume(stop > start)
        rng = np.random.default_rng(seed)
        theta = HyperParams(rng.normal(size=d), rng.normal(size=k), float(rng.uniform(0.1, 2.0)))
        v = theta.flat.copy()
        v[rng.integers(start, stop)] = bad
        with pytest.raises(ValueError, match=message):
            theta.with_flat(v)
        with pytest.raises(ValueError, match=message):
            HyperParams(v[:d], v[d:-1], v[-1])

    def test_grad_helpers(self):
        # flat lays theta out as weights, feature-map parameters, noise variance
        _, theta, _, _ = instance(3, 1, "mlp")
        v = theta.flat
        d, k = theta.d, theta.feature_params.size
        assert v.shape == (d + k + 1,)
        np.testing.assert_array_equal(v[:d], theta.weights)
        np.testing.assert_array_equal(v[d:-1], theta.feature_params)
        assert v[-1] == theta.noise_variance
        back = theta.with_flat(v)
        np.testing.assert_array_equal(back.flat, v)
        np.testing.assert_array_equal(back.feature_params, theta.feature_params)
        # a gradient is a plain vector in that layout: scaling and norms are numpy's
        g = np.zeros_like(v)
        g[:2] = [3.0, 4.0]
        assert np.linalg.norm(g) == pytest.approx(5.0)
        h = 3.0 * g
        np.testing.assert_array_equal(h[:2], [9.0, 12.0])
        assert np.linalg.norm(h) == pytest.approx(15.0)
        np.testing.assert_array_equal(theta.with_flat(v - h).weights, theta.weights - [9.0, 12.0])


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
        fmap, theta, X, y = instance(3, 20, p=3, hidden=4)
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
        fmap, theta, X, _ = instance(4, 20, p=3, hidden=4)
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

    @settings(max_examples=40)
    @given(**drawn)
    def test_decomposes_into_sample_terms(self, kind, n, d, sigma2, seed):
        fmap, theta, X, y = instance(seed, n, kind, p=3, hidden=4, d=d, sigma2=sigma2)
        assert decomposition_gap(fmap, theta, X, y) <= 1e-10

    def test_at_ridge_minimizer_equals_kernel_oracle(self):
        for seed in range(20, 24):
            fmap, theta, X, y = instance(seed, 25, p=3, hidden=4, d=3)
            assert ridge_minimum_gap(fmap, theta.feature_params, theta.noise_variance, X, y) <= 1e-8


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

    @settings(max_examples=40)
    @given(**drawn)
    @example(kind="mlp", n=25, d=3, sigma2=0.6, seed=20)
    @example(kind="mlp", n=30, d=4, sigma2=0.25, seed=40)
    def test_equals_ridge_minimum_of_full_loss(self, kind, n, d, sigma2, seed):
        # the central reformulation: min over weights of the ridge-form loss
        # lands exactly on the kernel-space value
        fmap, theta, X, y = instance(seed, n, kind, p=3, hidden=4, d=d, sigma2=sigma2)
        assert ridge_minimum_gap(fmap, theta.feature_params, sigma2, X, y) <= 1e-8


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

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_rectangular(self, seed):
        dual, _ = ridge_gaps(np.random.default_rng(seed), 1, 30, 12, (0.05, 3.0))
        assert dual <= 5e-10


class TestSylvesterConsistency:
    def test_wide_and_tall(self):
        rng = np.random.default_rng(13)
        for n, d in [(12, 3), (5, 9)]:
            Z = rng.normal(size=(n, d))
            s2 = float(rng.uniform(0.2, 1.5))
            lhs = logdet_psd(Z @ Z.T + s2 * np.eye(n))
            rhs = logdet_psd(Z.T @ Z + s2 * np.eye(d)) + (n - d) * np.log(s2)
            assert lhs == pytest.approx(rhs, rel=1e-8)


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
        # the gradient is laid out as theta.flat: 3 weights, no map parameters, noise
        assert g.shape == (4,)
        np.testing.assert_allclose(g[:3], (2.0 * 2 / 3) * w, atol=1e-12)
        assert g[3] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        fmap, theta, X, y = instance(51, 9, p=3, hidden=4, sigma2=0.5)
        rng = np.random.default_rng(52)
        Msym = rng.normal(size=(2, 2))
        Msym = Msym + Msym.T
        idx = [0, 3, 5, 8]
        assert linearized_grad_error(fmap, theta, X, y, idx, Msym) < 1e-5

    def test_asymmetric_weight_matrix(self):
        # the inner product <M, F_i> is linear in M, so the gradient must stay
        # correct when M is not symmetric
        fmap, theta, X, y = instance(53, 6, p=3, hidden=4)
        M = np.array([[0.3, 1.1], [-0.4, 0.2]])
        idx = [1, 2, 4]
        assert linearized_grad_error(fmap, theta, X, y, idx, M) < 1e-5

    def test_wrong_m_shape_rejected(self):
        fmap, theta, X, y = instance(54, 20, p=3, hidden=4)
        with pytest.raises(ValueError, match="M must be"):
            grad_theta_of_linearized(fmap, theta, X, y, np.eye(5), n_total=20)

    def test_full_batch_with_inverse_info_is_whole_loss_gradient(self):
        # complex-step differentiation of a straight-line reimplementation of
        # the loss; exact to machine precision, so the comparison can be tight
        fmap, theta, X, y = instance(55, 12, sigma2=0.8)
        n, p = X.shape
        h_dim, d = 3, 2
        F = info_matrix(fmap, theta, X)
        M = np.linalg.inv(F)
        analytic = grad_theta_of_linearized(fmap, theta, X, y, M, n_total=n)

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

        v0 = theta.flat
        assert loss(v0.astype(np.complex128)).real == pytest.approx(
            full_loss(fmap, theta, X, y), rel=1e-12
        )
        # complex-step derivative: f(v + ih e_k) = f(v) + ih f'_k + O(h^2)
        numeric = np.array([loss(v0 + 1e-20j * e).imag / 1e-20 for e in np.eye(v0.size)])
        assert max_rel_error(analytic, numeric, 1e-8) < 1e-8
