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
handed over to a later import of its package (see ``_Handoff``). Either
way ``scipy.linalg._flapack`` is the module bound here and
``get_lapack_funcs``/``get_blas_funcs`` return the very objects bound here.
Run records depend on both BLAS builds: these kernels run on scipy's, and
every ``@`` in the package (features, objective, optim, harness) on numpy's.

An extension that imports its siblings by relative import, as
``scipy.special._ufuncs`` imports ``_ufuncs_cxx``, ``_special_ufuncs``,
``_gufuncs`` and ``_ellip_harm_2``, needs its package in ``sys.modules``.
So while scipy.<package> is not imported, ``_extension`` runs the
extension under a bare placeholder: a module named scipy.<package> whose
``__path__`` is the package directory and which runs none of its code. The
placeholder leaves ``sys.modules`` when the load ends, and every
scipy.<package>.* module the load pulled in is handed over with the
extension, so a later import of the package binds those same objects. A
load that raises takes the placeholder, the extension and its siblings out
of ``sys.modules`` again, so a later import of the package does not get a
half-initialised module back. The same loader gives
:mod:`stochgp.features` scipy's Sobol engine, ``scipy.stats._sobol``, and
``ndtri`` from ``scipy.special._ufuncs``, without the ``scipy.stats`` or
``scipy.special`` packages.
"""

from __future__ import annotations

import math
import sys
from importlib import import_module
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from types import ModuleType

import numpy as np
import scipy

__all__ = [
    "NotPositiveDefiniteError",
    "chol_inverse",
    "chol_lower",
    "try_chol_lower",
    "chol_solve",
    "diagonal",
    "frobenius",
    "logdet_from_chol",
    "spd_inverse",
    "symmetrize",
    "gram",
    "gram_upper",
    "mirror_upper",
    "tri_inverse_lower",
]


class _Handoff(dict):
    """Meta-path finder and loader that hands a scipy subpackage the extensions loaded here.

    The import system binds a submodule to its package only when it loads
    it, and it loads only what is not in ``sys.modules``. So when a package
    such as ``scipy.linalg`` is about to be imported, the extensions loaded
    here under it (keyed by full name) leave ``sys.modules``, and its own
    import of them gets the same module objects back from this loader, once.
    Such a module is not run again; in place of its run, the modules loaded
    here beside it (a sibling that its first run imported, such as
    ``scipy.special._ufuncs_cxx``) are imported, so the package binds them
    too even where its own ``__init__`` never names them.
    """

    def find_spec(self, name, path=None, target=None):
        if name in self:
            return ModuleSpec(name, self, origin=self[name].__file__)
        for full in self:
            if full.rpartition(".")[0] == name:
                sys.modules.pop(full, None)
        return None

    def create_module(self, spec):
        return self.pop(spec.name)

    def exec_module(self, module):
        package = module.__name__.rpartition(".")[0]
        for sibling in [key for key in self if key.rpartition(".")[0] == package]:
            import_module(sibling)


_HANDOFF = _Handoff()
sys.meta_path.insert(0, _HANDOFF)


def _extension(package: str, name: str):
    """scipy.<package>.<name>, loaded from its compiled file without running scipy.<package>.

    If scipy.<package> is not imported yet, the extension runs under a bare
    placeholder for it, which is removed afterwards; every scipy.<package>.*
    module the load pulled in is handed over to a later import of the
    package. A load that raises leaves none of them behind.
    """
    parent = "scipy." + package
    full = "%s.%s" % (parent, name)
    if full in sys.modules:
        return sys.modules[full]
    where = Path(scipy.__path__[0], package)
    for suffix in EXTENSION_SUFFIXES:
        path = where / (name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(
            "no %s extension file (%s) in %s" % (name, " or ".join(EXTENSION_SUFFIXES), where)
        )
    before = set(sys.modules)
    if parent not in before:
        sys.modules[parent] = ModuleType(parent)
        sys.modules[parent].__path__ = [str(where)]
    try:
        spec = spec_from_file_location(full, path, loader=ExtensionFileLoader(full, str(path)))
        module = sys.modules[full] = module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        new = [key for key in set(sys.modules) - before if key.split(".")[:2] == ["scipy", package]]
        loaded = {key: sys.modules.pop(key) for key in new}
    loaded.pop(parent, None)
    sys.modules.update(loaded)
    _HANDOFF.update(loaded)
    return module


_flapack = _extension("linalg", "_flapack")
_fblas = _extension("linalg", "_fblas")
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


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """Dense inverse of L L^T: Li^T @ Li for Li the inverse of the lower factor L.

    One gemm forms it, which is not always exactly symmetric (at d = 255 and
    300 at 1 thread, and at d = 95, 127, 129, 200, 255, 257, 300 at 2), so
    callers form M + M^T. gemm reads the full array, which chol_lower cleans
    above the diagonal. L is overwritten, as by :func:`tri_inverse_lower`.
    """
    Li = tri_inverse_lower(L)
    return _gemm(1.0, Li, Li, trans_a=1)


def spd_inverse(A: np.ndarray, context: str = "") -> np.ndarray:
    """:func:`chol_inverse` of A's Cholesky factor; ``context`` names A in its error."""
    return chol_inverse(chol_lower(A, context))


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
    """Inverse of a lower-triangular matrix, written over L.

    A Fortran-contiguous float64 L, as :func:`chol_lower` returns, is
    inverted in place and holds the inverse afterwards, so pass a factor you
    do not read again (or a copy). Any other L is copied first and left as
    it was.
    """
    Li, info = _trtri(_as_f64(L), lower=1, unitdiag=0, overwrite_c=1)
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


def gram_upper(Z: np.ndarray) -> np.ndarray:
    """The upper triangle of Z^T Z from one syrk, zeros below; :func:`gram` mirrors it.

    syrk gets whichever of Z and Z^T is Fortran-ordered, so a C-ordered Z is
    read in place (f2py would copy it for trans=1); both give the same bits.
    Records rest on the upper triangle: syrk's lower=1 result is not its
    transposed lower=0 one at every shape (up to 6e-14 apart at d = 12, 17,
    31). A Z with no rows gives zeros without a call: syrk would get a
    leading dimension of 0, which OpenBLAS reports on stderr.
    """
    Z = _as_f64(Z)
    if Z.shape[0] == 0:
        return np.zeros((Z.shape[1], Z.shape[1]), order="F")
    if Z.flags.f_contiguous:
        return _syrk(1.0, Z, trans=1, lower=0)
    return _syrk(1.0, Z.T, trans=0, lower=0)


def mirror_upper(G: np.ndarray, shift: float) -> np.ndarray:
    """G, zero below its diagonal, made symmetric in place with the shift added to its diagonal.

    The diagonal is G's own plus the shift, so gram(Z, c) equals gram(Z) with
    c added to its diagonal, and one mirror of a sum of triangles equals the
    sum of their mirrors, bit for bit.
    """
    diag = diagonal(G)
    top = diag + shift
    G += G.T  # copies the upper triangle exactly; the doubled diagonal is overwritten
    diag[...] = top
    return G


def gram(Z: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Z^T Z + shift I, full and symmetric: :func:`gram_upper`, then :func:`mirror_upper`."""
    return mirror_upper(gram_upper(Z), shift)
