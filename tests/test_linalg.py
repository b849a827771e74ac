"""Properties of the shared dense kernels in stochgp._linalg."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from stochgp._linalg import frobenius, gram


class TestGram:
    @settings(max_examples=200, deadline=None)
    @given(
        s=st.integers(1, 12),
        d=st.integers(1, 12),
        scale=st.floats(1e-3, 1e3),
        shift=st.just(0.0) | st.floats(-1e6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shifted_gram_is_exact_and_symmetric(self, s, d, scale, shift, seed):
        # s < d (rank-deficient) and d = 1 are drawn as well as s >= d
        Z = np.random.default_rng(seed).normal(size=(s, d)) * scale
        G = gram(Z, shift)
        assert G.shape == (d, d)
        assert np.array_equal(G, G.T)
        # entrywise error is at most s * eps * sum_k |z_ki z_kj| <= s * eps * ||Z||_F^2
        ref = Z.T @ Z + shift * np.eye(d)
        bound = 1e-12 * (float(np.sum(Z * Z)) + abs(shift))
        assert np.max(np.abs(G - ref)) <= bound
        # the shift lands on the diagonal after the mirror, bit for bit
        unshifted = gram(Z)
        unshifted[np.diag_indices(d)] += shift
        assert np.array_equal(G, unshifted)


class TestFrobenius:
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e300])
    @pytest.mark.parametrize("over", ["raise", "ignore"])
    def test_sum_of_squares_overflow_keeps_the_norm(self, scale, over):
        # past about 1.3e154 the squares overflow although the norm is finite
        A = np.array([[3.0, -4.0], [0.0, 12.0]]) * scale
        with np.errstate(over=over):
            norm = frobenius(A)
        assert norm == pytest.approx(13.0 * scale, rel=1e-15)

    def test_non_finite_entries(self):
        assert frobenius(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(frobenius(np.array([1.0, np.nan])))
