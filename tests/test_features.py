"""Feature map forward/backward checks against straight-line and FD oracles."""

import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from fdcheck import assert_grad_close, fd_grad
from stochgp.features import (
    ComposedMap,
    FeatureBatch,
    FeatureMap,
    FeatureMapParams,
    LinearMap,
    MLPMap,
    MLPSpec,
    RFFMap,
    compose,
    rff_init,
)


class ScaleMap(FeatureMap):
    """phi(x) = a * x with a single scalar parameter, for hand-derivative checks."""

    def __init__(self, dim):
        self.input_dim = dim
        self.output_dim = dim

    @property
    def n_params(self):
        return 1

    def layout(self):
        return (("a", 0, (1,)),)

    def init_params(self, seed):
        return FeatureMapParams(np.array([1.0]), self.layout())

    def forward(self, params, X):
        X = self._check_input(X)
        return FeatureBatch(params.flat[0] * X, {"X": X}, params.version)

    def backward_with_inputs(self, params, batch, upstream):
        U = np.asarray(upstream, dtype=np.float64)
        X = batch.cache["X"]
        return np.array([np.sum(U * X)]), params.flat[0] * U


def upstream_scalar(fmap, X, U):
    """f(flat) = sum_i <U_i, phi(x_i)> as a plain function of the flat vector."""

    def f(flat):
        params = fmap.params_from_flat(flat)
        return float(np.sum(U * fmap.forward(params, X).Z))

    return f


class TestParamsLayout:
    def test_round_trip_flat_named_flat(self):
        fmap = MLPMap(MLPSpec(3, (4, 5)))
        params = fmap.init_params(seed=0)
        rebuilt = np.concatenate(
            [params.get(name).ravel() for name, _, _ in params.layout]
        )
        assert np.array_equal(rebuilt, params.flat)

    def test_layout_lengths_sum(self):
        fmap = MLPMap(MLPSpec(3, (4, 5)))
        total = sum(int(np.prod(shape)) for _, _, shape in fmap.layout())
        assert total == fmap.n_params

    def test_bad_layout_rejected(self):
        with pytest.raises(ValueError, match="layout covers"):
            FeatureMapParams(np.zeros(3), (("a", 0, (2,)),))

    @settings(max_examples=60, deadline=None)
    @given(
        rff=st.booleans(),
        p=st.integers(1, 5),
        hidden=st.integers(1, 5),
        d=st.integers(1, 5),
        pairs=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        unknown=st.text(max_size=12),
    )
    def test_get_matches_layout_scan(self, rff, p, hidden, d, pairs, seed, unknown):
        fmap = MLPMap(MLPSpec(p, (hidden, d)))
        if rff:
            fmap = compose(rff_init(q=d, D=2 * pairs, u1=1.0, u2=1.0, seed=seed), fmap)
        flat = np.random.default_rng(seed).normal(size=fmap.n_params)
        params = fmap.params_from_flat(flat).with_flat(flat)
        for name, offset, shape in params.layout:
            size = int(np.prod(shape))
            assert np.array_equal(params.get(name), flat[offset : offset + size].reshape(shape))
        assume(unknown not in {name for name, _, _ in params.layout})
        with pytest.raises(KeyError) as exc:
            params.get(unknown)
        assert repr(unknown) in exc.value.args[0]

    def test_version_bumps_on_with_flat(self):
        fmap = RFFMap(2, 8, seed=0)
        params = fmap.init_params(0)
        assert params.with_flat(params.flat + 1.0).version == params.version + 1


class TestLinearMap:
    def test_identity(self):
        fmap = LinearMap(2)
        params = fmap.init_params(0)
        out = fmap.forward(params, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out.Z, [[1.0, 2.0]])

    def test_backward_is_empty_and_passes_upstream(self):
        fmap = LinearMap(3)
        params = fmap.init_params(0)
        X = np.random.default_rng(0).normal(size=(4, 3))
        batch = fmap.forward(params, X)
        U = np.ones((4, 3))
        g, gx = fmap.backward_with_inputs(params, batch, U)
        assert g.shape == (0,)
        np.testing.assert_array_equal(gx, U)


class TestScaleMap:
    def test_hand_derivative(self):
        # phi(x) = a x, upstream u: d/da sum(u * a * x) = sum(u * x)
        fmap = ScaleMap(2)
        params = FeatureMapParams(np.array([1.7]), fmap.layout())
        X = np.array([[2.0, -1.0]])
        U = np.array([[3.0, 5.0]])
        batch = fmap.forward(params, X)
        g = fmap.backward(params, batch, U)
        assert g[0] == pytest.approx(3.0 * 2.0 + 5.0 * (-1.0))


class TestMLP:
    def test_zero_network_maps_to_zero(self):
        fmap = MLPMap(MLPSpec(3, (4, 2)))
        params = fmap.params_from_flat(np.zeros(fmap.n_params))
        X = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_array_equal(fmap.forward(params, X).Z, np.zeros((5, 2)))

    def test_single_sample_straight_line_oracle(self):
        fmap = MLPMap(MLPSpec(3, (4, 2)))
        params = fmap.init_params(seed=7)
        x = np.random.default_rng(2).normal(size=3)
        z = fmap.forward(params, x[None, :]).Z[0]
        # scalar recomputation, no matrix ops
        w1, b1 = params.get("w1"), params.get("b1")
        w2, b2 = params.get("w2"), params.get("b2")
        hidden = [max(sum(w1[j, k] * x[k] for k in range(3)) + b1[j], 0.0) for j in range(4)]
        expect = [
            sum(w2[o, j] * hidden[j] for j in range(4)) + b2[o] for o in range(2)
        ]
        np.testing.assert_allclose(z, expect, rtol=1e-12)

    def test_zero_upstream_zero_gradient(self):
        fmap = MLPMap(MLPSpec(2, (3, 2)))
        params = fmap.init_params(0)
        X = np.random.default_rng(3).normal(size=(4, 2))
        batch = fmap.forward(params, X)
        g = fmap.backward(params, batch, np.zeros((4, 2)))
        np.testing.assert_array_equal(g, np.zeros(fmap.n_params))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        fmap = MLPMap(MLPSpec(3, (4, 2)))
        params = fmap.init_params(seed=5)
        X = rng.normal(size=(6, 3))
        U = rng.normal(size=(6, 2))
        batch = fmap.forward(params, X)
        analytic = fmap.backward(params, batch, U)
        numeric = fd_grad(upstream_scalar(fmap, X, U), params.flat)
        assert_grad_close(analytic, numeric, label="mlp backward")

    def test_init_is_seeded(self):
        fmap = MLPMap(MLPSpec(3, (4, 2)))
        assert np.array_equal(fmap.init_params(9).flat, fmap.init_params(9).flat)
        assert not np.array_equal(fmap.init_params(9).flat, fmap.init_params(10).flat)

    def test_stale_cache_rejected(self):
        fmap = MLPMap(MLPSpec(2, (3, 2)))
        params = fmap.init_params(0)
        batch = fmap.forward(params, np.zeros((1, 2)))
        newer = params.with_flat(params.flat * 2.0)
        with pytest.raises(ValueError, match="stale feature cache"):
            fmap.backward(newer, batch, np.zeros((1, 2)))

    def test_dimension_mismatch(self):
        fmap = MLPMap(MLPSpec(3, (4, 2)))
        with pytest.raises(ValueError, match="columns"):
            fmap.forward(fmap.init_params(0), np.zeros((2, 5)))


class TestRFF:
    @pytest.mark.parametrize("log_u", [800.0, -800.0, np.nan])
    @pytest.mark.parametrize("k, name", [(0, "log u1"), (1, "log u2")])
    def test_scale_outside_float_range_rejected(self, k, name, log_u):
        # exp(800) overflows and exp(-800) underflows to 0; either would
        # leave every feature constant or non-finite without a word
        fmap = RFFMap(2, 4, seed=0)
        flat = np.zeros(2)
        flat[k] = log_u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=name):
                fmap.forward(fmap.params_from_flat(flat), np.ones((3, 2)))

    def test_deterministic_draw(self):
        a = RFFMap(3, 16, seed=4)
        b = RFFMap(3, 16, seed=4)
        assert a.frequencies.shape == (8, 3)  # one row per cos/sin pair
        assert np.array_equal(a.frequencies, b.frequencies)
        X = np.random.default_rng(8).normal(size=(5, 3))
        Za = a.forward(a.init_params(0), X).Z
        assert np.array_equal(Za, b.forward(b.init_params(0), X).Z)
        assert not np.array_equal(Za, RFFMap(3, 16, seed=5).forward(a.init_params(0), X).Z)

    def test_magnitude_doubling_scales_features(self):
        fmap = rff_init(q=2, D=32, u1=1.3, u2=1.0, seed=0)
        X = np.random.default_rng(5).normal(size=(4, 2))
        base = fmap.forward(fmap.init_params(0), X).Z
        doubled_params = FeatureMapParams(
            np.array([np.log(1.3), np.log(2.0)]), fmap.layout()
        )
        doubled = fmap.forward(doubled_params, X).Z
        np.testing.assert_allclose(doubled, np.sqrt(2.0) * base, rtol=1e-12)
        np.testing.assert_allclose(
            doubled @ doubled.T, 2.0 * (base @ base.T), rtol=1e-12
        )

    def test_self_inner_product_concentrates_on_magnitude(self):
        # Monte-Carlo mean of phi(z)^T phi(z) over 200 seeds at D=1000
        u2 = 1.7
        z = np.random.default_rng(6).normal(size=(1, 3))
        vals = []
        for seed in range(200):
            fmap = rff_init(q=3, D=1000, u1=0.9, u2=u2, seed=seed)
            Z = fmap.forward(fmap.init_params(0), z).Z[0]
            vals.append(float(Z @ Z))
        assert abs(np.mean(vals) - u2) < 0.02 * u2

    def test_cross_inner_product_is_unbiased_for_the_kernel(self):
        u1, u2 = 1.4, 0.8
        rng = np.random.default_rng(7)
        z1 = rng.normal(size=3)
        z2 = z1 + 1.2 * u1 * rng.normal(size=3) / np.sqrt(3)
        truth = u2 * np.exp(-np.sum((z1 - z2) ** 2) / (2 * u1 ** 2))
        vals = []
        for seed in range(300):
            fmap = rff_init(q=3, D=500, u1=u1, u2=u2, seed=seed)
            batch = fmap.forward(fmap.init_params(0), np.stack([z1, z2]))
            vals.append(float(batch.Z[0] @ batch.Z[1]))
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - truth) < 4 * se + 1e-4

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        fmap = rff_init(q=3, D=20, u1=0.7, u2=1.9, seed=1)
        params = fmap.init_params(0)
        X = rng.normal(size=(5, 3))
        U = rng.normal(size=(5, 20))
        batch = fmap.forward(params, X)
        analytic = fmap.backward(params, batch, U)
        numeric = fd_grad(upstream_scalar(fmap, X, U), params.flat)
        assert_grad_close(analytic, numeric, label="rff backward")

    def test_positive_scale_validation(self):
        with pytest.raises(ValueError):
            rff_init(q=2, D=8, u1=-1.0, u2=1.0, seed=0)
        with pytest.raises(ValueError):
            rff_init(q=2, D=8, u1=1.0, u2=0.0, seed=0)

    def test_odd_feature_count_rejected(self):
        with pytest.raises(ValueError, match="cos/sin pairs"):
            rff_init(q=2, D=7, u1=1.0, u2=1.0, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        half=st.integers(1, 300),
        q=st.integers(1, 6),
        u1=st.floats(0.2, 5.0),
        u2=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_self_inner_product_is_exact(self, half, q, u1, u2, seed, data):
        # cos/sin pairs on shared frequencies: phi(z)^T phi(z) = u2 for every draw
        z = data.draw(hnp.arrays(np.float64, (1, q), elements=st.floats(-5.0, 5.0)))
        fmap = rff_init(q=q, D=2 * half, u1=u1, u2=u2, seed=seed)
        phi = fmap.forward(fmap.init_params(0), z).Z[0]
        assert abs(float(phi @ phi) - u2) <= 1e-12 * u2

    @settings(max_examples=80, deadline=None)
    @given(
        half=st.integers(1, 40),
        q=st.integers(1, 6),
        n=st.integers(1, 8),
        log_u1=st.floats(-0.5, 2.0),
        log_u2=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_paired_layout_matches_reference_formulas(self, half, q, n, log_u1, log_u2, seed):
        fmap = RFFMap(q, 2 * half, seed)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, q))
        U = rng.normal(size=(n, 2 * half))
        params = fmap.params_from_flat(np.array([log_u1, log_u2]))
        batch = fmap.forward(params, X)
        u1 = float(np.exp(log_u1))
        amp = np.sqrt(2.0 * float(np.exp(log_u2)) / (2 * half))
        args = (X @ fmap.frequencies.T) / u1
        assert np.array_equal(batch.Z, amp * np.hstack([np.cos(args), np.sin(args)]))

        # reference: every frequency row stored twice, a -pi/2 phase on the
        # second copy, and the derivative taken through sin of the arguments
        W = np.vstack([fmap.frequencies, fmap.frequencies])
        proj = X @ W.T
        phases = np.concatenate([np.zeros(half), np.full(half, -0.5 * np.pi)])
        weighted = U * (amp * np.sin(proj / u1 + phases))
        ref_u1 = float(np.sum(weighted * proj) / u1)
        ref_u2 = 0.5 * float(np.sum(U * (amp * np.cos(proj / u1 + phases))))
        ref_inputs = -(weighted @ W) / u1
        grad, g_inputs = fmap.backward_with_inputs(params, batch, U)
        # relative to the summed magnitudes, which bound every term's size
        bound = np.abs(U) * amp
        assert abs(grad[0] - ref_u1) <= 1e-13 * float(np.sum(bound * np.abs(proj)) / u1)
        assert abs(grad[1] - ref_u2) <= 1e-13 * 0.5 * float(np.sum(bound))
        assert np.all(np.abs(g_inputs - ref_inputs) <= 1e-13 * (bound @ np.abs(W)) / u1)


class TestCompose:
    def test_identity_of_identities(self):
        fmap = compose(LinearMap(3), LinearMap(3))
        X = np.random.default_rng(9).normal(size=(4, 3))
        out = fmap.forward(fmap.init_params(0), X)
        np.testing.assert_array_equal(out.Z, X)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            compose(LinearMap(3), LinearMap(2))

    def test_two_stage_oracle(self):
        inner = MLPMap(MLPSpec(3, (4, 2)))
        outer = rff_init(q=2, D=16, u1=1.1, u2=0.9, seed=3)
        fmap = compose(outer, inner)
        params = fmap.init_params(seed=12)
        X = np.random.default_rng(10).normal(size=(5, 3))
        staged_inner = inner.forward(
            inner.params_from_flat(params.flat[: inner.n_params]), X
        )
        staged = outer.forward(
            outer.params_from_flat(params.flat[inner.n_params :]), staged_inner.Z
        )
        np.testing.assert_allclose(fmap.forward(params, X).Z, staged.Z, rtol=1e-12)

    def test_composed_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        inner = MLPMap(MLPSpec(3, (4, 2)))
        outer = rff_init(q=2, D=10, u1=0.8, u2=1.2, seed=2)
        fmap = compose(outer, inner)
        params = fmap.init_params(seed=21)
        X = rng.normal(size=(4, 3))
        U = rng.normal(size=(4, 10))
        batch = fmap.forward(params, X)
        analytic = fmap.backward(params, batch, U)
        numeric = fd_grad(upstream_scalar(fmap, X, U), params.flat)
        assert_grad_close(analytic, numeric, label="composed backward")

    def test_param_concatenation_order(self):
        inner = MLPMap(MLPSpec(2, (3, 2)))
        outer = rff_init(q=2, D=8, u1=1.0, u2=1.0, seed=0)
        fmap = compose(outer, inner)
        params = fmap.init_params(seed=1)
        assert params.flat.shape == (inner.n_params + 2,)
        np.testing.assert_array_equal(
            params.flat[inner.n_params :], outer.init_params(2).flat
        )


class TestBackwardProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["linear", "mlp", "mlp+rff"]),
        n=st.integers(1, 5),
        p=st.integers(1, 4),
        hidden=st.integers(1, 5),
        d=st.integers(1, 4),
        half=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_backward_matches_finite_differences(self, kind, n, p, hidden, d, half, seed):
        rng = np.random.default_rng(seed)
        fmap = LinearMap(p) if kind == "linear" else MLPMap(MLPSpec(p, (hidden, d)))
        if kind == "mlp+rff":
            outer = rff_init(q=d, D=2 * half, u1=1.0, u2=1.0, seed=seed)
            fmap = compose(outer, fmap)
        flat = 0.5 * rng.normal(size=fmap.n_params)
        X = rng.normal(size=(n, p))
        U = rng.normal(size=(n, fmap.output_dim))
        if kind != "linear":
            # central differences straddling a ReLU kink are not derivatives
            w1 = flat[: hidden * p].reshape(hidden, p)
            b1 = flat[hidden * p : hidden * p + hidden]
            assume(np.min(np.abs(X @ w1.T + b1)) > 1e-3)
        params = fmap.params_from_flat(flat)
        grad, g_inputs = fmap.backward_with_inputs(params, fmap.forward(params, X), U)

        def of_inputs(x):
            return float(np.sum(U * fmap.forward(params, x.reshape(n, p)).Z))

        for analytic, numeric, label in (
            (grad, fd_grad(upstream_scalar(fmap, X, U), flat), "parameters"),
            (g_inputs, fd_grad(of_inputs, X.ravel()), "inputs"),
        ):
            floor = 1e-4 * max(1.0, float(np.max(np.abs(numeric), initial=0.0)))
            assert_grad_close(analytic, numeric, floor=floor, label="%s %s" % (kind, label))


class TestForwardRecomputationInvariant:
    def test_batch_rows_equal_per_sample_recompute(self):
        rng = np.random.default_rng(14)
        inner = MLPMap(MLPSpec(3, (5, 4)))
        outer = rff_init(q=4, D=12, u1=1.0, u2=1.0, seed=5)
        for fmap in (LinearMap(3), inner, compose(outer, inner)):
            params = fmap.init_params(seed=3)
            X = rng.normal(size=(6, 3))
            Z = fmap.forward(params, X).Z
            for i in range(6):
                row = fmap.forward(params, X[i : i + 1]).Z[0]
                np.testing.assert_allclose(Z[i], row, atol=1e-12)
