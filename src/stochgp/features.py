"""Differentiable feature maps with analytic forward and backward passes.

Three maps are provided: an identity (linear) embedding, a two-layer ReLU
MLP, and a random Fourier feature map approximating a Gaussian kernel, plus
their composition. Each map's parameters are one plain float64 vector of
its ``n_params`` entries, which it slices itself by the layout its
docstring documents; a forward given a vector of another length raises.
``backward`` returns the exact gradient of ``sum_i <upstream_i, phi(x_i)>``
with respect to that vector, laid out the same way.

No general autodiff: the chain rules here are written by hand and checked
against finite differences in the test suite. Forward passes are pure
functions of (params, inputs); the returned FeatureBatch carries whatever
intermediates the backward pass needs and the parameter vector it came
from, so a backward given any other array, even an equal-valued copy,
rejects the stale cache instead of silently producing wrong gradients.

``RFFMap.forward`` takes each cos/sin pair from one half-angle tangent,
t = tan(a / 2): cos a = (1 - t^2) / (1 + t^2) and sin a = 2 t / (1 + t^2).
numpy evaluates float64 cos and sin with scalar libm calls but tan, on
builds and CPUs that have it, with a SIMD loop, so one tan costs a fraction
of the two libm calls it replaces and the forward runs about 4x faster. The
features stay within 4 eps amp of amp [cos a, sin a] as libm gives them
(about 2 eps measured), a bound ``stochgp check`` tests on the running
numpy; the projection onto the frequencies is one gemv per row, so a row's
features do not depend on which other rows share its call.

Importing this module loads numpy only. ``RFFMap`` draws its frequencies
with scipy's compiled Sobol engine and ``ndtri``, which it loads when the
first map is built, so only a random-feature run pays for them. Both come
from their compiled files through the loader of :mod:`stochgp._linalg`:
the engine is ``scipy.stats._sobol``, loaded without the ``scipy.stats``
package, which takes longer to import than a short linear or MLP run takes
to train; ``ndtri`` is the ufunc of ``scipy.special._ufuncs``, the very
object ``scipy.special.ndtri`` is, loaded without the ``scipy.special``
package, whose import would be about half of a random-feature run's
start-up.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "FeatureBatch",
    "FeatureMap",
    "LinearMap",
    "MLPSpec",
    "MLPMap",
    "RFFMap",
    "ComposedMap",
]


@dataclass
class FeatureBatch:
    """Features for one batch, cached intermediates, and the parameter vector they came from."""

    Z: np.ndarray
    cache: dict
    params: np.ndarray


def _check_cache(params: np.ndarray, batch: FeatureBatch):
    # identity, not values: an equal-valued copy is another array
    if batch.params is not params:
        raise ValueError("stale feature cache: batch computed from another params object")


class FeatureMap(abc.ABC):
    """A parameterized embedding of R^input_dim into R^output_dim.

    A map sets ``n_params``, the length of its flat parameter vector, and
    documents how it lays that vector out; its forward reads the vector
    through ``_flat``, which rejects one of another length.
    """

    input_dim: int
    output_dim: int
    n_params: int

    @abc.abstractmethod
    def init_params(self, seed: int) -> np.ndarray: ...

    @abc.abstractmethod
    def forward(self, params: np.ndarray, X: np.ndarray) -> FeatureBatch: ...

    @abc.abstractmethod
    def backward_with_inputs(
        self, params: np.ndarray, batch: FeatureBatch, upstream: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of sum_i <upstream_i, phi(x_i)> w.r.t. (flat params, inputs)."""

    def backward(self, params: np.ndarray, batch: FeatureBatch, upstream: np.ndarray) -> np.ndarray:
        return self.backward_with_inputs(params, batch, upstream)[0]

    def _flat(self, params: np.ndarray) -> np.ndarray:
        """``params`` as a float64 vector (itself if it is one) of ``n_params`` entries."""
        flat = np.asarray(params, dtype=np.float64)
        if flat.ndim != 1:
            raise ValueError("flat parameter vector must be 1-d")
        if flat.shape[0] != self.n_params:
            raise ValueError(
                "parameter vector has %d entries, map expects %d" % (flat.shape[0], self.n_params)
            )
        return flat

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.input_dim:
            raise ValueError(
                "input has %d columns, map expects %d" % (X.shape[1], self.input_dim)
            )
        return X


class LinearMap(FeatureMap):
    """Identity embedding phi(x) = x; no learnable parameters."""

    n_params = 0

    def __init__(self, dim: int):
        self.input_dim = int(dim)
        self.output_dim = int(dim)

    def init_params(self, seed: int) -> np.ndarray:
        return np.empty(0)

    def forward(self, params, X):
        flat = self._flat(params)
        return FeatureBatch(self._check_input(X), {}, flat)

    def backward_with_inputs(self, params, batch, upstream):
        _check_cache(params, batch)
        return np.empty(0), np.asarray(upstream, dtype=np.float64)


@dataclass(frozen=True)
class MLPSpec:
    """Two fully connected layers: input_dim -> layer_dims[0] (ReLU) -> layer_dims[1]."""

    input_dim: int
    layer_dims: tuple[int, int] = (128, 128)

    def __post_init__(self):
        if self.input_dim < 1 or any(h < 1 for h in self.layer_dims):
            raise ValueError("layer dimensions must be positive")
        if len(self.layer_dims) != 2:
            raise ValueError("exactly two fully connected layers are supported")


class MLPMap(FeatureMap):
    """phi(x) = W2 @ relu(W1 @ x + b1) + b2.

    With p inputs, h hidden units and d outputs, the flat vector is
    (w1, b1, w2, b2): w1 (h, p) row-major from offset 0, b1 (h,) from h p,
    w2 (d, h) row-major from h p + h and b2 (d,) from h p + h + d h, so
    ``n_params`` is h p + h + d h + d. The ReLU subgradient at 0 is taken
    as 0. Initialization is He-style uniform, seeded: weights uniform on
    +-sqrt(6 / fan_in), biases zero.
    """

    def __init__(self, spec: MLPSpec):
        self.input_dim = spec.input_dim
        self.hidden_dim = spec.layer_dims[0]
        self.output_dim = spec.layer_dims[1]
        p, h, d = self.input_dim, self.hidden_dim, self.output_dim
        self.n_params = h * p + h + d * h + d

    def _weights(self, flat):
        """(w1, b1, w2, b2) as views of the checked flat vector."""
        p, h, d = self.input_dim, self.hidden_dim, self.output_dim
        b1, w2, b2 = h * p, h * p + h, h * p + h + d * h
        return flat[:b1].reshape(h, p), flat[b1:w2], flat[w2:b2].reshape(d, h), flat[b2:]

    def init_params(self, seed: int) -> np.ndarray:
        p, h, d = self.input_dim, self.hidden_dim, self.output_dim
        rng = np.random.default_rng(seed)
        w1 = rng.uniform(-1.0, 1.0, size=(h, p)) * np.sqrt(6.0 / p)
        w2 = rng.uniform(-1.0, 1.0, size=(d, h)) * np.sqrt(6.0 / h)
        return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(d)])

    def forward(self, params, X):
        flat = self._flat(params)
        w1, b1, w2, b2 = self._weights(flat)
        X = self._check_input(X)
        pre1 = X @ w1.T + b1
        hidden = np.maximum(pre1, 0.0)
        Z = hidden @ w2.T + b2
        return FeatureBatch(Z, {"X": X, "hidden": hidden}, flat)

    def backward_with_inputs(self, params, batch, upstream):
        _check_cache(params, batch)
        U = np.asarray(upstream, dtype=np.float64)
        X, hidden = batch.cache["X"], batch.cache["hidden"]
        w1, _, w2, _ = self._weights(params)
        g_w2 = U.T @ hidden
        g_b2 = U.sum(axis=0)
        # hidden = max(pre1, 0), so hidden > 0 is pre1 > 0, NaN rows included
        back_hidden = (U @ w2) * (hidden > 0.0)
        g_w1 = back_hidden.T @ X
        g_b1 = back_hidden.sum(axis=0)
        g_inputs = back_hidden @ w1
        grad = np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])
        return grad, g_inputs


def _draw_error(what: str) -> RuntimeError:
    import scipy

    return RuntimeError(
        "scipy %s: %s; RFFMap draws its frequencies with scipy.stats._sobol and"
        " scipy.special._ufuncs as scipy 1.17 lays them out" % (scipy.__version__, what)
    )


def _frequencies(q: int, m: int, seed: int) -> np.ndarray:
    """m standard normal rows in q dimensions from a scrambled Sobol sequence, seeded.

    The points are bit for bit ``qmc.Sobol(q, scramble=True,
    rng=np.random.default_rng(seed)).random_base2(k)[:m]`` for any k with
    2^k >= m, drawn as that engine draws them but through its compiled
    module alone; squeezed by 1e-10 away from 0 and 1, they go through
    ``ndtri`` from ``scipy.special._ufuncs``. The engine loads its
    direction numbers on first use through ``importlib.resources``, which
    imports ``scipy.stats``; its cache is seeded here from the same file
    instead. Its functions do not raise on a bad argument (they print
    "Exception ignored" and leave the output unfilled), so the direction
    numbers are checked before they are used.
    """
    import scipy

    from stochgp._linalg import _extension

    try:
        ndtri = _extension("special", "_ufuncs").ndtri
        sobol = _extension("stats", "_sobol")
        caches = {"poly": sobol._poly_dict, "vinit": sobol._vinit_dict}
        initialize_v, cscramble, draw = sobol._initialize_v, sobol._cscramble, sobol._draw
        max_dim = sobol._MAXDIM
    except (ImportError, AttributeError) as exc:
        raise _draw_error(str(exc)) from exc
    if q > max_dim:
        raise ValueError("Sobol points have at most %d dimensions, got %d" % (max_dim, q))
    if any(np.uint32 not in cache for cache in caches.values()):
        path = Path(scipy.__path__[0], "stats", "_sobol_direction_numbers.npz")
        with np.load(path) as numbers:
            for key, cache in caches.items():
                cache[np.uint32] = np.ascontiguousarray(numbers[key], dtype=np.uint32)

    bits = 30  # scipy's default: 30-bit points held in uint32
    sv = np.zeros((q, bits), dtype=np.uint32)
    initialize_v(sv, dim=q, bits=bits)
    if not np.all(sv[:, 0] == 1 << (bits - 1)):
        raise _draw_error("_initialize_v left wrong direction numbers")
    # the engine draws from a child of the generator it is given
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    # LMS+shift scramble: a random digital shift, then random lower-triangular
    # bit matrices applied to the direction numbers
    shift = np.dot(
        rng.integers(2, size=(q, bits), dtype=np.uint32),
        2 ** np.arange(bits, dtype=np.uint32),
    )
    ltm = np.tril(rng.integers(2, size=(q, bits, bits), dtype=np.uint32))
    cscramble(dim=q, bits=bits, ltm=ltm, sv=sv)
    # point 0 is the shift itself; the others walk the Gray code from it
    scale = 2.0**-bits
    points = np.empty((m, q))
    points[0] = shift * scale
    draw(n=m - 1, num_gen=0, dim=q, scale=scale, sv=sv, quasi=shift.copy(), sample=points[1:])
    return ndtri(0.5 + (1.0 - 1e-10) * (points - 0.5))


class RFFMap(FeatureMap):
    """Paired random Fourier features for the Gaussian kernel.

    With m = D / 2 unit-scale frequency rows w_1..w_m, the features come in
    cos/sin pairs:

        phi(z)_j     = sqrt(2 u2 / D) * cos(w_j^T z / u1)
        phi(z)_{j+m} = sqrt(2 u2 / D) * sin(w_j^T z / u1),   j < m.

    Only the m distinct rows are stored, as ``frequencies`` (m, q), and there
    are no phases: ``forward`` projects once onto them and writes the cosines
    and sines of the same arguments a into the two halves of Z, both from
    t = tan(a / 2) as amp (1 - t^2) / (1 + t^2) and amp 2 t / (1 + t^2),
    with amp = sqrt(2 u2 / D). The halving is exact, and every entry is
    within 4 eps amp of libm's cos and sin (the module docstring says why
    this is faster and how it is checked). Each row is projected by its own
    gemv, which gives the same bits for a row whatever rows it is passed
    with and however X is laid out. ``backward``
    needs no trigonometry, since d cos/da is minus the sin half of Z and
    d sin/da is the cos half. Pairing makes the self inner product exact for
    every draw: phi(z)^T phi(z) = u2 (cos^2 + sin^2 summed over m pairs). The
    cross inner product is (u2 / m) * sum_j cos(w_j^T (z - z') / u1), whose
    expectation is u2 * exp(-||z - z'||^2 / (2 u1^2)) whenever each w_j is
    N(0, I).

    The m frequency rows are a quasi-Monte Carlo draw: scrambled Sobol
    points on [0, 1)^q (a power-of-two block, of which the first m are
    kept), squeezed by 1e-10 away from 0 and 1 so no row is infinite, and
    pushed through the standard normal inverse CDF. Scrambling makes each
    point uniform on its own, so over the scramble every w_j is N(0, I) up
    to the 1e-10 tail clip and the kernel estimate stays unbiased; the
    points' low discrepancy makes a single draw far more accurate than iid
    frequencies of the same width. The draw is fixed by ``seed`` and equals
    ``qmc.Sobol(q, scramble=True, rng=np.random.default_rng(seed))``'s
    (see ``_frequencies``). The first map built in a process loads
    ``scipy.stats._sobol`` and ``scipy.special._ufuncs`` (with the
    extensions that one imports), not ``scipy.stats`` or ``scipy.special``.

    Frequencies are divided by the length scale u1 at forward time, so u1
    stays differentiable while the draw itself is frozen. The learnable flat
    vector is (log u1, log u2); working in logs keeps both strictly positive
    under unconstrained steps. ``feature_count`` must be even.
    """

    n_params = 2

    def __init__(
        self,
        input_dim: int,
        feature_count: int,
        seed: int,
        init_u1: float = 1.0,
        init_u2: float = 1.0,
    ):
        if feature_count < 2 or feature_count % 2:
            raise ValueError(
                "feature count must be a positive even number, got %d: features"
                " come in cos/sin pairs sharing one frequency" % feature_count
            )
        if init_u1 <= 0 or init_u2 <= 0:
            raise ValueError("length scale and magnitude must be positive")
        self.input_dim = int(input_dim)
        self.output_dim = int(feature_count)
        self.seed = int(seed)
        self.init_u1 = float(init_u1)
        self.init_u2 = float(init_u2)
        self.frequencies = _frequencies(self.input_dim, self.output_dim // 2, self.seed)

    def init_params(self, seed: int) -> np.ndarray:
        # the draw is fixed at construction; seed is unused here by design
        return np.array([np.log(self.init_u1), np.log(self.init_u2)])

    def forward(self, params, X):
        flat = self._flat(params)
        X = self._check_input(X)
        with np.errstate(over="ignore"):
            u1 = float(np.exp(flat[0]))
            u2 = float(np.exp(flat[1]))
        if not (0.0 < u1 < math.inf and 0.0 < u2 < math.inf):
            k = 0 if not 0.0 < u1 < math.inf else 1
            raise ValueError(
                "log u%d = %r puts the random-feature scale exp(log u%d) outside (0, inf)"
                % (k + 1, float(flat[k]), k + 1)
            )
        # unit-scale projections, one per pair, by one gemv per row of X
        proj = (self.frequencies @ np.ascontiguousarray(X)[:, :, None])[:, :, 0]
        amp = math.sqrt(2.0 * u2 / self.output_dim)
        m = proj.shape[1]
        Z = np.empty((proj.shape[0], 2 * m))
        cos_half, sin_half = Z[:, :m], Z[:, m:]
        # t = tan(a / 2) for a = proj / u1 (proj / (2 u1) is a / 2 bit for bit)
        t = np.tan(proj / (2.0 * u1))
        r = t * t
        np.subtract(1.0, r, out=cos_half)
        r += 1.0
        np.divide(amp, r, out=r)  # amp / (1 + t^2)
        cos_half *= r
        np.multiply(t, 2.0, out=sin_half)
        sin_half *= r
        cache = {"proj": proj, "u1": u1}
        return FeatureBatch(Z, cache, flat)

    def backward_with_inputs(self, params, batch, upstream):
        _check_cache(params, batch)
        U = np.asarray(upstream, dtype=np.float64)
        proj, u1 = batch.cache["proj"], batch.cache["u1"]
        m = proj.shape[1]
        Z = batch.Z
        # d(amp cos a)/da = -(sin half of Z) and d(amp sin a)/da = +(cos half),
        # so net is the gradient with respect to the arguments a = proj / u1
        net = U[:, m:] * Z[:, :m]
        net -= U[:, :m] * Z[:, m:]
        # a shrinks as u1 grows: da / d log u1 = -proj / u1
        g_log_u1 = -float(np.sum(net * proj)) / u1
        # phi scales with sqrt(u2), so d phi / d log u2 = phi / 2
        g_log_u2 = 0.5 * float(np.sum(U * Z))
        g_inputs = (net @ self.frequencies) / u1
        return np.array([g_log_u1, g_log_u2]), g_inputs


class ComposedMap(FeatureMap):
    """outer after inner; the flat vector is the inner map's, then the outer map's."""

    def __init__(self, outer: FeatureMap, inner: FeatureMap):
        if inner.output_dim != outer.input_dim:
            raise ValueError(
                "inner output dim %d does not match outer input dim %d"
                % (inner.output_dim, outer.input_dim)
            )
        self.outer = outer
        self.inner = inner
        self.input_dim = inner.input_dim
        self.output_dim = outer.output_dim
        self.n_params = inner.n_params + outer.n_params

    def init_params(self, seed: int) -> np.ndarray:
        return np.concatenate([self.inner.init_params(seed), self.outer.init_params(seed + 1)])

    def forward(self, params, X):
        flat, k = self._flat(params), self.inner.n_params
        inner = self.inner.forward(flat[:k], X)
        outer = self.outer.forward(flat[k:], inner.Z)
        return FeatureBatch(outer.Z, {"inner": inner, "outer": outer}, flat)

    def backward_with_inputs(self, params, batch, upstream):
        _check_cache(params, batch)
        # each sub-batch holds the view of its slice it was computed from
        inner, outer = batch.cache["inner"], batch.cache["outer"]
        g_outer, up_inner = self.outer.backward_with_inputs(outer.params, outer, upstream)
        g_inner, g_inputs = self.inner.backward_with_inputs(inner.params, inner, up_inner)
        return np.concatenate([g_inner, g_outer]), g_inputs
