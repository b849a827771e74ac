"""Feature map forward/backward checks against straight-line and FD oracles."""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import stochgp
from stochgp._linalg import _extension
from stochgp.features import (
    ComposedMap,
    FeatureBatch,
    FeatureMap,
    LinearMap,
    MLPMap,
    MLPSpec,
    RFFMap,
)
from stochgp.oracles import backward_error, fd_grad, max_rel_error, rff_trig_error


class ScaleMap(FeatureMap):
    """phi(x) = a * x with a single scalar parameter, for hand-derivative checks."""

    n_params = 1

    def __init__(self, dim):
        self.input_dim = dim
        self.output_dim = dim

    def init_params(self, seed):
        return np.array([1.0])

    def forward(self, params, X):
        X = self._check_input(X)
        return FeatureBatch(params[0] * X, {"X": X}, params)

    def backward_with_inputs(self, params, batch, upstream):
        U = np.asarray(upstream, dtype=np.float64)
        X = batch.cache["X"]
        return np.array([np.sum(U * X)]), params[0] * U


def upstream_scalar(fmap, X, U):
    """f(flat) = sum_i <U_i, phi(x_i)> as a plain function of the flat vector."""

    def f(flat):
        return float(np.sum(U * fmap.forward(flat, X).Z))

    return f


def mlp_reference(flat, X, hidden, out):
    """The MLP forward from its documented layout: (w1, b1, w2, b2), each row-major."""
    p = X.shape[1]
    w1 = flat[: hidden * p].reshape(hidden, p)
    b1 = flat[hidden * p : hidden * p + hidden]
    o = hidden * p + hidden
    w2 = flat[o : o + out * hidden].reshape(out, hidden)
    return np.maximum(X @ w1.T + b1, 0.0) @ w2.T + flat[o + out * hidden :]


class TestParamsLayout:
    def test_layout_lengths_sum(self):
        mlp = MLPMap(MLPSpec(3, (4, 5)))
        rff = RFFMap(5, 4, 0)
        # each map's n_params sums the lengths of the segments its docstring lays out
        for fmap, expected in (
            (mlp, 4 * 3 + 4 + 5 * 4 + 5),
            (ScaleMap(2), 1),
            (LinearMap(3), 0),
            (rff, 2),
            (ComposedMap(rff, mlp), 4 * 3 + 4 + 5 * 4 + 5 + 2),
        ):
            assert fmap.n_params == expected
            assert fmap.init_params(0).shape == (expected,)

    @settings(max_examples=60)
    @given(
        kind=st.sampled_from(["linear", "mlp", "rff", "mlp+rff"]),
        p=st.integers(1, 5),
        hidden=st.integers(1, 5),
        d=st.integers(1, 5),
        pairs=st.integers(1, 4),
        n=st.integers(1, 6),
        off=st.sampled_from([-1, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_takes_exactly_n_params_entries(
        self, kind, p, hidden, d, pairs, n, off, seed
    ):
        rng = np.random.default_rng(seed)
        if kind == "rff":
            fmap = RFFMap(p, 2 * pairs, seed)
        else:
            fmap = LinearMap(p) if kind == "linear" else MLPMap(MLPSpec(p, (hidden, d)))
            if kind == "mlp+rff":
                fmap = ComposedMap(RFFMap(d, 2 * pairs, seed), fmap)
        X = rng.normal(size=(n, p))
        flat = 0.5 * rng.normal(size=fmap.n_params)
        batch = fmap.forward(flat, X)
        if kind == "linear":
            assert np.array_equal(batch.Z, X)
        elif kind == "mlp":
            assert np.array_equal(batch.Z, mlp_reference(flat, X, hidden, d))
        else:
            # the random features of the MLP's outputs (or of X), from the
            # last two entries: libm's cos and sin of the projection / u1
            rff, Y = fmap, X
            if kind == "mlp+rff":
                rff, Y = fmap.outer, mlp_reference(flat[:-2], X, hidden, d)
                assert np.array_equal(batch.cache["inner"].Z, Y)
                batch = batch.cache["outer"]
            eps = np.finfo(np.float64).eps
            proj, W = batch.cache["proj"], rff.frequencies
            assert np.all(np.abs(proj - Y @ W.T) <= 2 * Y.shape[1] * eps * (np.abs(Y) @ np.abs(W.T)))
            args = proj / np.exp(flat[-2])
            amp = np.sqrt(2.0 * np.exp(flat[-1]) / rff.output_dim)
            ref = amp * np.hstack([np.cos(args), np.sin(args)])
            assert np.all(np.abs(batch.Z - ref) <= 4 * eps * amp)
        if fmap.n_params + off < 0:
            return
        wrong = np.zeros(fmap.n_params + off)
        message = "has %d entries, map expects %d" % (wrong.shape[0], fmap.n_params)
        with pytest.raises(ValueError, match=message):
            fmap.forward(wrong, X)


    @pytest.mark.parametrize("kind", ["linear", "mlp", "rff", "mlp+rff"])
    def test_flat_coerces_once_and_rejects_a_non_vector(self, kind):
        fmap = LinearMap(3) if kind == "linear" else _stale_cache_map(kind)
        params = fmap.init_params(0)
        X = np.random.default_rng(18).normal(size=(2, 3))
        # a float64 vector is its own checked form, so its batch ties to it
        assert fmap._flat(params) is params
        assert fmap.forward(params, X).params is params
        # anything else is coerced to a float64 vector first
        as_list = fmap.forward(params.tolist(), X)
        assert as_list.params.dtype == np.float64 and as_list.params.shape == params.shape
        assert np.array_equal(as_list.Z, fmap.forward(params, X).Z)
        fmap.backward(as_list.params, as_list, np.ones((2, fmap.output_dim)))
        ints = fmap._flat(np.zeros(fmap.n_params, dtype=np.int64))
        assert ints.dtype == np.float64 and np.array_equal(ints, np.zeros(fmap.n_params))
        for bad in (params[None, :], np.float64(1.0)):
            with pytest.raises(ValueError, match="flat parameter vector must be 1-d"):
                fmap.forward(bad, X)


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
        params = np.array([1.7])
        X = np.array([[2.0, -1.0]])
        U = np.array([[3.0, 5.0]])
        batch = fmap.forward(params, X)
        g = fmap.backward(params, batch, U)
        assert g[0] == pytest.approx(3.0 * 2.0 + 5.0 * (-1.0))


class TestMLP:
    def test_zero_network_maps_to_zero(self):
        fmap = MLPMap(MLPSpec(3, (4, 2)))
        params = np.zeros(fmap.n_params)
        X = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_array_equal(fmap.forward(params, X).Z, np.zeros((5, 2)))

    def test_single_sample_straight_line_oracle(self):
        fmap = MLPMap(MLPSpec(3, (4, 2)))
        params = fmap.init_params(seed=7)
        x = np.random.default_rng(2).normal(size=3)
        z = fmap.forward(params, x[None, :]).Z[0]
        # scalar recomputation from the documented offsets, no matrix ops
        flat = params
        w1, b1 = flat[:12].reshape(4, 3), flat[12:16]
        w2, b2 = flat[16:24].reshape(2, 4), flat[24:]
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
        X = rng.normal(size=(6, 3))
        assert backward_error(fmap, fmap.init_params(seed=5), X, rng.normal(size=(6, 2))) < 1e-5

    def test_init_is_seeded(self):
        fmap = MLPMap(MLPSpec(3, (4, 2)))
        assert np.array_equal(fmap.init_params(9), fmap.init_params(9))
        assert not np.array_equal(fmap.init_params(9), fmap.init_params(10))

    def test_stale_cache_rejected(self):
        fmap = MLPMap(MLPSpec(2, (3, 2)))
        params = fmap.init_params(0)
        batch = fmap.forward(params, np.zeros((1, 2)))
        newer = params * 2.0
        with pytest.raises(ValueError, match="stale feature cache"):
            fmap.backward(newer, batch, np.zeros((1, 2)))

    def test_dimension_mismatch(self):
        fmap = MLPMap(MLPSpec(3, (4, 2)))
        with pytest.raises(ValueError, match="columns"):
            fmap.forward(fmap.init_params(0), np.zeros((2, 5)))


def qmc_frequencies(q, m, seed):
    """RFFMap's frequencies as the public scipy.stats.qmc engine draws them."""
    import scipy.special
    from scipy.stats import qmc

    sobol = qmc.Sobol(q, scramble=True, rng=np.random.default_rng(seed))
    points = sobol.random_base2(math.ceil(math.log2(m)))[:m]
    return scipy.special.ndtri(0.5 + (1.0 - 1e-10) * (points - 0.5))


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
                fmap.forward(flat, np.ones((3, 2)))

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
        fmap = RFFMap(2, 32, 0, init_u1=1.3)
        X = np.random.default_rng(5).normal(size=(4, 2))
        base = fmap.forward(fmap.init_params(0), X).Z
        doubled_params = np.array([np.log(1.3), np.log(2.0)])
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
            fmap = RFFMap(3, 1000, seed, init_u1=0.9, init_u2=u2)
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
            fmap = RFFMap(3, 500, seed, init_u1=u1, init_u2=u2)
            batch = fmap.forward(fmap.init_params(0), np.stack([z1, z2]))
            vals.append(float(batch.Z[0] @ batch.Z[1]))
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - truth) < 4 * se + 1e-4

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        fmap = RFFMap(3, 20, 1, init_u1=0.7, init_u2=1.9)
        X = rng.normal(size=(5, 3))
        assert backward_error(fmap, fmap.init_params(0), X, rng.normal(size=(5, 20))) < 1e-5

    def test_positive_scale_validation(self):
        with pytest.raises(ValueError):
            RFFMap(2, 8, 0, init_u1=-1.0)
        with pytest.raises(ValueError):
            RFFMap(2, 8, 0, init_u2=0.0)

    def test_odd_feature_count_rejected(self):
        with pytest.raises(ValueError, match="cos/sin pairs"):
            RFFMap(2, 7, 0)

    @settings(max_examples=80)
    @given(
        q=st.integers(1, 20),
        half=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256]) | st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_frequencies_equal_the_qmc_draw_bit_for_bit(self, q, half, seed):
        assert np.array_equal(RFFMap(q, 2 * half, seed).frequencies, qmc_frequencies(q, half, seed))

    def test_draw_before_scipy_stats_loads_equals_the_qmc_draw(self):
        # a fresh interpreter, so the Sobol engine's direction numbers come
        # from the cache RFFMap seeds, not from scipy.stats
        cases = [(1, 1, 0), (3, 8, 4), (16, 500, 1), (20, 300, 2**32 - 1)]
        code = (
            "import json, sys\n"
            "from stochgp.features import RFFMap\n"
            "drawn = [RFFMap(q, 2 * m, s).frequencies.tolist() for q, m, s in %r]\n"
            "print(json.dumps({'stats': 'scipy.stats' in sys.modules, 'drawn': drawn}))"
        ) % (cases,)
        src = os.path.dirname(os.path.dirname(stochgp.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        report = json.loads(out)
        assert report["stats"] is False
        for (q, m, seed), drawn in zip(cases, report["drawn"]):
            assert np.array_equal(np.reshape(drawn, (m, q)), qmc_frequencies(q, m, seed))

    @pytest.mark.parametrize("broken", ["unfilled", "missing"])
    def test_engine_that_would_draw_zeros_fails_loudly(self, monkeypatch, broken):
        # _sobol's functions print "Exception ignored" on a bad argument and
        # leave their output unfilled instead of raising
        import scipy

        sobol = _extension("stats", "_sobol")
        if broken == "unfilled":
            monkeypatch.setattr(sobol, "_initialize_v", lambda v, dim, bits: None)
        else:
            monkeypatch.delattr(sobol, "_draw")
        with pytest.raises(RuntimeError, match=re.escape("scipy %s:" % scipy.__version__)):
            RFFMap(3, 8, seed=0)

    @pytest.mark.parametrize("broken", ["unloadable", "missing"])
    def test_ufuncs_without_ndtri_fail_naming_scipys_version(self, monkeypatch, broken):
        import scipy

        from stochgp import _linalg

        if broken == "unloadable":
            extension = _linalg._extension

            def load(package, name):
                if package == "special":
                    raise ImportError("no %s extension file" % name)
                return extension(package, name)

            monkeypatch.setattr(_linalg, "_extension", load)
        else:
            monkeypatch.delattr(_extension("special", "_ufuncs"), "ndtri")
        with pytest.raises(RuntimeError, match=re.escape("scipy %s:" % scipy.__version__)):
            RFFMap(3, 8, seed=0)

    @settings(max_examples=60)
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
        fmap = RFFMap(q, 2 * half, seed, init_u1=u1, init_u2=u2)
        phi = fmap.forward(fmap.init_params(0), z).Z[0]
        assert abs(float(phi @ phi) - u2) <= 1e-12 * u2

    @settings(max_examples=80)
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
        params = np.array([log_u1, log_u2])
        batch = fmap.forward(params, X)
        u1 = float(np.exp(log_u1))
        amp = np.sqrt(2.0 * float(np.exp(log_u2)) / (2 * half))
        # the projection is X W^T to rounding, and the features are libm's
        # cos and sin of its arguments within the documented 4 eps amp
        eps = np.finfo(np.float64).eps
        proj = batch.cache["proj"]
        size = np.abs(X) @ np.abs(fmap.frequencies.T)
        assert np.all(np.abs(proj - X @ fmap.frequencies.T) <= 2 * q * eps * size)
        args = proj / u1
        ref = amp * np.hstack([np.cos(args), np.sin(args)])
        assert np.all(np.abs(batch.Z - ref) <= 4 * eps * amp)

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

    @settings(max_examples=100)
    @given(
        near=st.lists(st.tuples(st.integers(-640_000, 640_000), st.integers(-3, 3)), max_size=30),
        tiny=st.lists(st.floats(-1e-6, 1e-6), max_size=10),
        wide=st.lists(st.floats(-1e6, 1e6), max_size=10),
    )
    def test_features_agree_with_libm_on_adversarial_arguments(self, near, tiny, wide):
        # floats within 3 ulps of k pi/2 up to 1e6, tiny and subnormal
        # arguments, and any argument up to 1e6
        centre = np.array([k for k, _ in near], dtype=np.float64) * (np.pi / 2)
        ulps = np.array([j for _, j in near], dtype=np.float64)
        args = np.concatenate([centre + ulps * np.spacing(centre), tiny, wide])
        assert rff_trig_error(args) <= 4.0

    @settings(max_examples=60)
    @given(
        half=st.integers(1, 80),
        q=st.integers(1, 20),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_forward_is_the_same_over_any_row_split_and_layout(self, half, q, n, seed, data):
        # every row's features are its own: the blocked passes and a one-row
        # batch give the bits a forward over all rows gives
        fmap = RFFMap(q, 2 * half, seed % 1000)
        rng = np.random.default_rng(seed)
        params = rng.normal(size=2) * 0.5
        base = rng.normal(size=(2 * n, 3 * q)) * 3.0
        X = np.ascontiguousarray(base[::2, 1::3])
        Z = fmap.forward(params, X).Z
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
        parts = [fmap.forward(params, X[a:b]).Z for a, b in zip([0] + cuts, cuts + [n])]
        assert np.array_equal(Z, np.vstack(parts))
        assert np.array_equal(Z, np.vstack([fmap.forward(params, x[None]).Z for x in X]))
        for view in (base[::2, 1::3], np.asfortranarray(X)):
            assert np.array_equal(Z, fmap.forward(params, view).Z)


class TestCompose:
    def test_identity_of_identities(self):
        fmap = ComposedMap(LinearMap(3), LinearMap(3))
        X = np.random.default_rng(9).normal(size=(4, 3))
        out = fmap.forward(fmap.init_params(0), X)
        np.testing.assert_array_equal(out.Z, X)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            ComposedMap(LinearMap(3), LinearMap(2))

    def test_two_stage_oracle(self):
        inner = MLPMap(MLPSpec(3, (4, 2)))
        outer = RFFMap(2, 16, 3, init_u1=1.1, init_u2=0.9)
        fmap = ComposedMap(outer, inner)
        params = fmap.init_params(seed=12)
        X = np.random.default_rng(10).normal(size=(5, 3))
        staged_inner = inner.forward(params[: inner.n_params], X)
        staged = outer.forward(params[inner.n_params :], staged_inner.Z)
        np.testing.assert_allclose(fmap.forward(params, X).Z, staged.Z, rtol=1e-12)

    def test_composed_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        inner = MLPMap(MLPSpec(3, (4, 2)))
        outer = RFFMap(2, 10, 2, init_u1=0.8, init_u2=1.2)
        fmap = ComposedMap(outer, inner)
        X = rng.normal(size=(4, 3))
        assert backward_error(fmap, fmap.init_params(seed=21), X, rng.normal(size=(4, 10))) < 1e-5

    def test_param_concatenation_order(self):
        inner = MLPMap(MLPSpec(2, (3, 2)))
        outer = RFFMap(2, 8, 0)
        fmap = ComposedMap(outer, inner)
        params = fmap.init_params(seed=1)
        assert params.shape == (inner.n_params + 2,)
        np.testing.assert_array_equal(params[inner.n_params :], outer.init_params(2))


def _stale_cache_map(kind):
    """A map on R^3 of each kind with parameters."""
    mlp = MLPMap(MLPSpec(3, (4, 2)))
    if kind == "mlp":
        return mlp
    if kind == "rff":
        return RFFMap(3, 6, 4)
    return ComposedMap(RFFMap(2, 6, 4), mlp)


class TestStaleCache:
    """A backward accepts only the parameter object its batch was computed from."""

    @pytest.mark.parametrize("kind", ["mlp", "rff", "mlp+rff"])
    @pytest.mark.parametrize("other", ["another init", "equal-valued copy"])
    def test_batch_from_another_params_object_rejected(self, kind, other):
        fmap = _stale_cache_map(kind)
        params = fmap.init_params(0)
        if other == "another init":
            # both objects are fresh from init_params; for rff they are equal
            foreign = fmap.init_params(1)
        else:
            foreign = params.copy()
        rng = np.random.default_rng(15)
        X = rng.normal(size=(5, 3))
        U = rng.normal(size=(5, fmap.output_dim))
        batch = fmap.forward(params, X)
        with pytest.raises(ValueError, match="stale feature cache"):
            fmap.backward(foreign, batch, U)
        # each object's own batch is accepted
        fmap.backward(params, batch, U)
        fmap.backward(foreign, fmap.forward(foreign, X), U)

    def test_composed_backward_builds_no_params(self):
        fmap = _stale_cache_map("mlp+rff")
        params = fmap.init_params(0)
        X = np.random.default_rng(16).normal(size=(4, 3))
        batch = fmap.forward(params, X)
        # the sub-batches hold views of the passed vector, the sub-parameters
        # the forward computed them from, and the backward hands them back
        k = fmap.inner.n_params
        inner, outer = batch.cache["inner"].params, batch.cache["outer"].params
        assert batch.params is params
        assert inner.base is params and outer.base is params
        assert np.shares_memory(inner, params[:k]) and np.shares_memory(outer, params[k:])
        assert np.array_equal(inner, params[:k])
        assert np.array_equal(outer, params[k:])
        g, _ = fmap.backward_with_inputs(params, batch, np.ones((4, fmap.output_dim)))
        assert g.shape == (fmap.n_params,)


class TestBackwardProperty:
    @settings(max_examples=60)
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
            outer = RFFMap(d, 2 * half, seed)
            fmap = ComposedMap(outer, fmap)
        flat = 0.5 * rng.normal(size=fmap.n_params)
        X = rng.normal(size=(n, p))
        U = rng.normal(size=(n, fmap.output_dim))
        if kind != "linear":
            # central differences straddling a ReLU kink are not derivatives
            w1 = flat[: hidden * p].reshape(hidden, p)
            b1 = flat[hidden * p : hidden * p + hidden]
            assume(np.min(np.abs(X @ w1.T + b1)) > 1e-3)
        params = flat
        grad, g_inputs = fmap.backward_with_inputs(params, fmap.forward(params, X), U)

        def of_inputs(x):
            return float(np.sum(U * fmap.forward(params, x.reshape(n, p)).Z))

        for analytic, numeric, label in (
            (grad, fd_grad(upstream_scalar(fmap, X, U), flat), "parameters"),
            (g_inputs, fd_grad(of_inputs, X.ravel()), "inputs"),
        ):
            floor = 1e-4 * max(1.0, float(np.max(np.abs(numeric), initial=0.0)))
            assert max_rel_error(analytic, numeric, floor) < 1e-5, "%s %s" % (kind, label)


class TestForwardRecomputationInvariant:
    def test_batch_rows_equal_per_sample_recompute(self):
        rng = np.random.default_rng(14)
        inner = MLPMap(MLPSpec(3, (5, 4)))
        outer = RFFMap(4, 12, 5)
        for fmap in (LinearMap(3), inner, ComposedMap(outer, inner)):
            params = fmap.init_params(seed=3)
            X = rng.normal(size=(6, 3))
            Z = fmap.forward(params, X).Z
            for i in range(6):
                row = fmap.forward(params, X[i : i + 1]).Z[0]
                np.testing.assert_allclose(Z[i], row, atol=1e-12)
