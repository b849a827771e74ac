"""Shared dense linear-algebra kernels: the ones a run calls.

The reference computations of :mod:`stochgp.oracles` build on them too. All
helpers assume float64 and go through raw LAPACK/BLAS handles. The
Python-level scipy wrappers cost tens of microseconds per call, which is
real money in the optimizer hot path at small d, and the gemm-based inverse
keeps the cubic work in a BLAS3 kernel with flat efficiency across sizes.

The five handles (dpotrf, dtrtri, dpotrs, dgemm, dsyrk) come straight from
scipy's compiled f2py extensions ``scipy.linalg._flapack`` and
``scipy.linalg._fblas``, loaded from the installed scipy's ``linalg``
directory without importing the ``scipy.linalg`` package: its ``__init__``
pulls in much of scipy's pure-Python machinery and would be most of the
import time of this package, for five functions. The top-level ``scipy``
package is imported first, so whatever library set-up the installed wheel
does on import still runs. An extension already in ``sys.modules`` is
reused; one loaded here is registered there under its canonical name and
handed over to a later ``import scipy.linalg`` (see ``_Handoff``). Either
way ``scipy.linalg._flapack`` is the module bound here and
``get_lapack_funcs``/``get_blas_funcs`` return the very objects bound here,
so run records depend on scipy's LAPACK/BLAS build, not numpy's.
"""

from __future__ import annotations

import math
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np
import scipy

__all__ = [
    "NotPositiveDefiniteError",
    "chol_lower",
    "try_chol_lower",
    "chol_solve",
    "diagonal",
    "frobenius",
    "logdet_from_chol",
    "spd_inverse",
    "symmetrize",
    "gram",
    "tri_inverse_lower",
]


class _Handoff(dict):
    """Meta-path finder and loader that hands scipy.linalg the extensions loaded here.

    The import system binds a submodule to its package only when it loads
    it, and it loads only what is not in ``sys.modules``. So when
    ``scipy.linalg`` is about to be imported, the extensions (keyed here by
    full name) leave ``sys.modules``, and its own import of them gets the
    same module objects back from this loader, once.
    """

    def find_spec(self, name, path=None, target=None):
        if name == "scipy.linalg":
            for full in self:
                sys.modules.pop(full, None)
        elif name in self:
            return ModuleSpec(name, self, origin=self[name].__file__)
        return None

    def create_module(self, spec):
        return self.pop(spec.name)

    def exec_module(self, module):
        pass


_HANDOFF = _Handoff()
sys.meta_path.insert(0, _HANDOFF)


def _extension(name: str):
    """scipy.linalg.<name>, loaded from its compiled file without scipy.linalg's __init__."""
    full = "scipy.linalg." + name
    if full in sys.modules:
        return sys.modules[full]
    where = Path(scipy.__path__[0], "linalg")
    for suffix in EXTENSION_SUFFIXES:
        path = where / (name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(
            "no %s extension file (%s) in %s" % (name, " or ".join(EXTENSION_SUFFIXES), where)
        )
    spec = spec_from_file_location(full, path, loader=ExtensionFileLoader(full, str(path)))
    module = module_from_spec(spec)
    sys.modules[full] = _HANDOFF[full] = module
    spec.loader.exec_module(module)
    return module


_flapack = _extension("_flapack")
_fblas = _extension("_fblas")
_potrf, _trtri, _potrs = _flapack.dpotrf, _flapack.dtrtri, _flapack.dpotrs
_gemm, _syrk = _fblas.dgemm, _fblas.dsyrk


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky factorization hit a non-positive pivot.

    ``pivot`` is the 1-based index of the failing leading minor, straight
    from LAPACK's info code.
    """

    def __init__(self, pivot: int, context: str = ""):
        self.pivot = int(pivot)
        msg = "not positive definite (failing pivot %d)" % self.pivot
        if context:
            msg = context + ": " + msg
        super().__init__(msg)


def _as_f64(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A)
    if A.dtype != np.float64:
        A = A.astype(np.float64)
    return A


def chol_lower(A: np.ndarray, context: str = "") -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    L, info = _potrf(_as_f64(A), lower=1, overwrite_a=0, clean=1)
    if info != 0:
        raise NotPositiveDefiniteError(info, context)
    return L


def try_chol_lower(A: np.ndarray) -> np.ndarray | None:
    """Like :func:`chol_lower` but returns None instead of raising.

    Used as a cheap positive-definiteness certificate; the upper triangle
    of the result is left unclean, so only the diagonal and lower part are
    meaningful.
    """
    L, info = _potrf(_as_f64(A), lower=1, overwrite_a=0, clean=0)
    if info != 0:
        return None
    return L


def logdet_from_chol(L: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diagonal(L))))


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Dense inverse of an SPD matrix via potrf + trtri + gemm.

    The result is exactly symmetric: it is formed as Li^T @ Li by one gemm,
    whose (i, j) and (j, i) entries sum identical products in the same order.
    """
    # clean=1 zeroes the upper triangle; gemm below reads the full array
    L, info = _potrf(_as_f64(A), lower=1, overwrite_a=0, clean=1)
    if info != 0:
        raise NotPositiveDefiniteError(info)
    Li, info = _trtri(L, lower=1, unitdiag=0, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefiniteError(info, "triangular inverse")
    return _gemm(1.0, Li, Li, trans_a=1)


def chol_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B given the lower Cholesky factor L of A."""
    b = _as_f64(B)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    X, info = _potrs(L, b, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("potrs failed with info %d" % info)
    return X[:, 0] if squeeze else X


def tri_inverse_lower(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix."""
    Li, info = _trtri(_as_f64(L), lower=1, unitdiag=0, overwrite_c=0)
    if info != 0:
        raise np.linalg.LinAlgError("trtri failed with info %d" % info)
    return Li


def frobenius(A: np.ndarray) -> float:
    """Frobenius norm of a float64 array: one dot over its memory, as np.linalg.norm takes it.

    Past about 1.3e154 the sum of squares overflows although the norm does
    not; the norm is then taken again on the array scaled by its largest
    entry, so it is right (and finite) for every finite array. The overflow
    may raise, under np.errstate(over="raise"), or warn and give inf.
    """
    x = A.ravel(order="K")
    try:
        sq = x.dot(x)
    except FloatingPointError:
        sq = math.inf
    if sq != math.inf:
        return math.sqrt(sq)
    scale = float(np.abs(x).max())
    if scale == math.inf:
        return math.inf
    x = x / scale
    return scale * math.sqrt(x.dot(x))


def symmetrize(A: np.ndarray) -> np.ndarray:
    return (A + A.T) * 0.5


def diagonal(A: np.ndarray) -> np.ndarray:
    """Writable strided view of the diagonal of a contiguous square matrix."""
    return A.ravel(order="K")[:: A.shape[0] + 1]


def gram(Z: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Z^T Z + shift I as a full symmetric matrix (syrk + mirror).

    The diagonal is syrk's diagonal plus the shift, so gram(Z, c) equals
    gram(Z) with c added to its diagonal, bit for bit.
    """
    G = _syrk(1.0, _as_f64(Z), trans=1, lower=0)
    diag = diagonal(G)
    top = diag + shift
    # syrk leaves zeros below the diagonal, so this mirrors the upper triangle
    # exactly and only doubles the diagonal, which is then overwritten
    G += G.T
    diag[...] = top
    return G
