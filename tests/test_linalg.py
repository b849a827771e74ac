"""Properties of the shared dense kernels in stochgp._linalg."""

import os
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

import stochgp
from stochgp._linalg import (
    _syrk,
    chol_lower,
    chol_solve,
    diagonal,
    frobenius,
    gram,
    gram_upper,
    mirror_upper,
    tri_inverse_lower,
)


class TestGram:
    @settings(max_examples=200)
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

    @settings(max_examples=150)
    @given(
        s=st.integers(1, 300),
        d=st.integers(1, 40),
        layout=st.sampled_from(["C", "F", "strided"]),
        shift=st.just(0.0) | st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_syrk_of_z_transposed_bit_for_bit(self, s, d, layout, shift, seed):
        # gram hands a C-ordered Z to syrk as Z^T with trans=0 so that nothing
        # is copied; the bits must be those of syrk(trans=1) on Z
        base = np.random.default_rng(seed).normal(size=(2 * s, 2 * d))
        Z = {
            "C": np.ascontiguousarray(base[:s, :d]),
            "F": np.asfortranarray(base[:s, :d]),
            "strided": base[::2, ::2],
        }[layout]
        ref = _syrk(1.0, np.array(Z, order="C"), trans=1, lower=0)
        ref = ref + np.triu(ref, 1).T
        ref[np.diag_indices(d)] += shift
        assert np.array_equal(gram(Z, shift), ref)

    @settings(max_examples=150)
    @given(
        d=st.sampled_from([1, 2, 5, 12, 17, 31, 40]),
        rows=st.lists(st.integers(0, 60), min_size=1, max_size=5),
        layout=st.sampled_from(["C", "F", "strided"]),
        shift=st.just(0.0) | st.floats(1e-6, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_summed_triangles_mirrored_once_equal_the_summed_grams(
        self, d, rows, layout, shift, seed
    ):
        # how a pass over row blocks forms Z^T Z + s2 I: one mirror of the
        # summed triangles must give the per-block grams' sum plus the shift,
        # bit for bit. d = 12, 17 and 31 are shapes at which syrk's lower and
        # upper triangles differ, so only the upper one is ever read
        rng = np.random.default_rng(seed)
        blocks = []
        for s in rows:
            base = rng.normal(size=(2 * s, 2 * d)) * 10.0 ** rng.uniform(-3, 3, size=(2 * s, 1))
            blocks.append(
                {
                    "C": np.ascontiguousarray(base[:s, :d]),
                    "F": np.asfortranarray(base[:s, :d]),
                    "strided": base[::2, ::2],
                }[layout]
            )
        F = gram_upper(blocks[0])
        ref = gram(blocks[0])
        for Z in blocks[1:]:
            F += gram_upper(Z)
            ref += gram(Z)
        diagonal(ref)[...] += shift
        got = mirror_upper(F, shift)
        assert got.tobytes(order="F") == ref.tobytes(order="F")

    def test_no_rows_give_the_shift_without_a_blas_complaint(self):
        # OpenBLAS writes its argument errors to file descriptor 2, past
        # sys.stderr, so the call runs in a child whose stderr is captured
        code = (
            "import numpy as np\n"
            "from stochgp._linalg import gram\n"
            "for d in (0, 1, 3):\n"
            "    G = gram(np.empty((0, d)), 2.0)\n"
            "    assert np.array_equal(G, 2.0 * np.eye(d)), G\n"
            "print('ok')"
        )
        src = os.path.dirname(os.path.dirname(stochgp.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
        assert "DSYRK" not in proc.stderr, proc.stderr


class TestLapackBuild:
    @settings(max_examples=200)
    @given(
        d=st.integers(1, 12),
        rows=st.integers(1, 12),
        shift=st.floats(1e-6, 10.0),
        rhs=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels_equal_scipy_bit_for_bit(self, d, rows, shift, rhs, seed):
        # records depend on the LAPACK build these kernels call: scipy's, not numpy's
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(rows, d))
        A = Z.T @ Z + shift * np.eye(d)
        B = rng.normal(size=(d, rhs))
        L = chol_lower(A)
        assert np.array_equal(L, scipy.linalg.cholesky(A, lower=True))
        for b in (B, B[:, 0]):
            assert np.array_equal(chol_solve(L, b), scipy.linalg.cho_solve((L, True), b))
        expected = scipy.linalg.lapack.dtrtri(L, lower=1)[0]
        if d > 1:
            # a factor that is not Fortran-contiguous is copied and left as it was
            Lc = np.ascontiguousarray(L)
            assert np.array_equal(tri_inverse_lower(Lc), expected)
            assert np.array_equal(Lc, L)
        # chol_lower's factor is Fortran-ordered, so it is inverted in place
        Li = tri_inverse_lower(L)
        assert np.array_equal(Li, expected)
        assert np.shares_memory(Li, L)


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
