"""Differentiable feature maps with analytic forward and backward passes.

Three maps are provided: an identity (linear) embedding, a two-layer ReLU
MLP, and a random Fourier feature map approximating a Gaussian kernel, plus
their composition. Each map consumes a flat parameter vector with a fixed
documented layout; ``backward`` returns the exact gradient of
``sum_i <upstream_i, phi(x_i)>`` with respect to that vector.

No general autodiff: the chain rules here are written by hand and checked
against finite differences in the test suite. Forward passes are pure
functions of (params, inputs); the returned FeatureBatch carries whatever
intermediates the backward pass needs, stamped with the parameter version
so a stale cache is rejected instead of silently producing wrong gradients.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

__all__ = [
    "FeatureMapParams",
    "FeatureBatch",
    "FeatureMap",
    "LinearMap",
    "MLPSpec",
    "MLPMap",
    "RFFMap",
    "rff_init",
    "ComposedMap",
    "compose",
]


@functools.lru_cache(maxsize=256)
def _segments(layout) -> tuple[dict, int]:
    """{name: (start, stop, shape)} for one layout, and the entries it covers."""
    index, total = {}, 0
    for name, offset, shape in layout:
        size = math.prod(shape)
        index[name] = (offset, offset + size, shape)
        total += size
    return index, total


@dataclass(frozen=True)
class FeatureMapParams:
    """Flat learnable parameter vector plus its segment layout.

    ``layout`` maps segments of ``flat`` to named tensors as tuples of
    (name, offset, shape). The version counter increments on every
    ``with_flat`` so feature batches can detect stale caches.
    """

    flat: np.ndarray
    layout: tuple[tuple[str, int, tuple[int, ...]], ...]
    version: int = 0

    def __post_init__(self):
        flat = np.ascontiguousarray(np.asarray(self.flat, dtype=np.float64))
        if flat.ndim != 1:
            raise ValueError("flat parameter vector must be 1-d")
        index, total = _segments(self.layout)
        if total != flat.shape[0]:
            raise ValueError(
                "layout covers %d entries but flat has %d" % (total, flat.shape[0])
            )
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "_index", index)

    @property
    def n_params(self) -> int:
        return self.flat.shape[0]

    def get(self, name: str) -> np.ndarray:
        """View of one named segment, reshaped. Do not mutate."""
        try:
            start, stop, shape = self._index[name]
        except KeyError:
            raise KeyError("no parameter segment named %r" % name) from None
        return self.flat[start:stop].reshape(shape)

    def with_flat(self, flat: np.ndarray) -> "FeatureMapParams":
        return FeatureMapParams(flat, self.layout, self.version + 1)


@dataclass
class FeatureBatch:
    """Features for one batch plus cached intermediates for backward."""

    Z: np.ndarray
    cache: dict
    params_version: int


def _check_cache(params: FeatureMapParams, batch: FeatureBatch):
    if batch.params_version != params.version:
        raise ValueError(
            "stale feature cache: batch built at parameter version %d, got %d"
            % (batch.params_version, params.version)
        )


class FeatureMap(abc.ABC):
    """A parameterized embedding of R^input_dim into R^output_dim."""

    input_dim: int
    output_dim: int

    @property
    @abc.abstractmethod
    def n_params(self) -> int: ...

    @abc.abstractmethod
    def layout(self) -> tuple[tuple[str, int, tuple[int, ...]], ...]: ...

    @abc.abstractmethod
    def init_params(self, seed: int) -> FeatureMapParams: ...

    @abc.abstractmethod
    def forward(self, params: FeatureMapParams, X: np.ndarray) -> FeatureBatch: ...

    @abc.abstractmethod
    def backward_with_inputs(
        self, params: FeatureMapParams, batch: FeatureBatch, upstream: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of sum_i <upstream_i, phi(x_i)> w.r.t. (flat params, inputs)."""

    def backward(
        self, params: FeatureMapParams, batch: FeatureBatch, upstream: np.ndarray
    ) -> np.ndarray:
        return self.backward_with_inputs(params, batch, upstream)[0]

    def params_from_flat(self, flat: np.ndarray, version: int = 0) -> FeatureMapParams:
        return FeatureMapParams(flat, self.layout(), version)

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.input_dim:
            raise ValueError(
                "input has %d columns, map expects %d" % (X.shape[1], self.input_dim)
            )
        return X


class LinearMap(FeatureMap):
    """Identity embedding phi(x) = x; no learnable parameters."""

    def __init__(self, dim: int):
        self.input_dim = int(dim)
        self.output_dim = int(dim)

    @property
    def n_params(self) -> int:
        return 0

    def layout(self):
        return ()

    def init_params(self, seed: int) -> FeatureMapParams:
        return FeatureMapParams(np.empty(0), ())

    def forward(self, params, X):
        X = self._check_input(X)
        return FeatureBatch(X, {}, params.version)

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

    Flat layout is (w1, b1, w2, b2), each row-major. The ReLU subgradient
    at 0 is taken as 0. Initialization is He-style uniform, seeded: weights
    uniform on +-sqrt(6 / fan_in), biases zero.
    """

    def __init__(self, spec: MLPSpec):
        self.spec = spec
        self.input_dim = spec.input_dim
        self.hidden_dim = spec.layer_dims[0]
        self.output_dim = spec.layer_dims[1]

    @property
    def n_params(self) -> int:
        p, h, d = self.input_dim, self.hidden_dim, self.output_dim
        return h * p + h + d * h + d

    def layout(self):
        p, h, d = self.input_dim, self.hidden_dim, self.output_dim
        return (
            ("w1", 0, (h, p)),
            ("b1", h * p, (h,)),
            ("w2", h * p + h, (d, h)),
            ("b2", h * p + h + d * h, (d,)),
        )

    def init_params(self, seed: int) -> FeatureMapParams:
        p, h, d = self.input_dim, self.hidden_dim, self.output_dim
        rng = np.random.default_rng(seed)
        w1 = rng.uniform(-1.0, 1.0, size=(h, p)) * np.sqrt(6.0 / p)
        w2 = rng.uniform(-1.0, 1.0, size=(d, h)) * np.sqrt(6.0 / h)
        flat = np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(d)])
        return FeatureMapParams(flat, self.layout())

    def forward(self, params, X):
        X = self._check_input(X)
        w1, b1 = params.get("w1"), params.get("b1")
        w2, b2 = params.get("w2"), params.get("b2")
        pre1 = X @ w1.T + b1
        hidden = np.maximum(pre1, 0.0)
        Z = hidden @ w2.T + b2
        cache = {"X": X, "mask": pre1 > 0.0, "hidden": hidden}
        return FeatureBatch(Z, cache, params.version)

    def backward_with_inputs(self, params, batch, upstream):
        _check_cache(params, batch)
        U = np.asarray(upstream, dtype=np.float64)
        X, mask, hidden = batch.cache["X"], batch.cache["mask"], batch.cache["hidden"]
        w1, w2 = params.get("w1"), params.get("w2")
        g_w2 = U.T @ hidden
        g_b2 = U.sum(axis=0)
        back_hidden = (U @ w2) * mask
        g_w1 = back_hidden.T @ X
        g_b1 = back_hidden.sum(axis=0)
        g_inputs = back_hidden @ w1
        grad = np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])
        return grad, g_inputs


class RFFMap(FeatureMap):
    """Paired random Fourier features for the Gaussian kernel.

    With m = D / 2 unit-scale frequency rows w_1..w_m, the features come in
    cos/sin pairs:

        phi(z)_j     = sqrt(2 u2 / D) * cos(w_j^T z / u1)
        phi(z)_{j+m} = sqrt(2 u2 / D) * sin(w_j^T z / u1),   j < m.

    Only the m distinct rows are stored, as ``frequencies`` (m, q), and there
    are no phases: ``forward`` projects once onto them and writes the cosines
    and sines of the same arguments into the two halves of Z. ``backward``
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
    frequencies of the same width. The draw is fixed by ``seed``.

    Frequencies are divided by the length scale u1 at forward time, so u1
    stays differentiable while the draw itself is frozen. The learnable flat
    vector is (log u1, log u2); working in logs keeps both strictly positive
    under unconstrained steps. ``feature_count`` must be even.
    """

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
        self.feature_count = int(feature_count)
        self.seed = int(seed)
        self.init_u1 = float(init_u1)
        self.init_u2 = float(init_u2)
        m = self.feature_count // 2
        sobol = qmc.Sobol(self.input_dim, scramble=True, rng=np.random.default_rng(seed))
        # a power-of-two block keeps the Sobol balance; (m - 1).bit_length() = ceil(log2 m)
        points = sobol.random_base2((m - 1).bit_length())[:m]
        self.frequencies = ndtri(0.5 + (1.0 - 1e-10) * (points - 0.5))

    @property
    def n_params(self) -> int:
        return 2

    def layout(self):
        return (("log_u1", 0, (1,)), ("log_u2", 1, (1,)))

    def init_params(self, seed: int) -> FeatureMapParams:
        # the draw is fixed at construction; seed is unused here by design
        flat = np.array([np.log(self.init_u1), np.log(self.init_u2)])
        return FeatureMapParams(flat, self.layout())

    def forward(self, params, X):
        X = self._check_input(X)
        with np.errstate(over="ignore"):
            u1 = float(np.exp(params.flat[0]))
            u2 = float(np.exp(params.flat[1]))
        if not (0.0 < u1 < math.inf and 0.0 < u2 < math.inf):
            k = 0 if not 0.0 < u1 < math.inf else 1
            raise ValueError(
                "log u%d = %r puts the random-feature scale exp(log u%d) outside (0, inf)"
                % (k + 1, float(params.flat[k]), k + 1)
            )
        proj = X @ self.frequencies.T  # unit-scale projections, one per pair
        args = proj / u1
        amp = math.sqrt(2.0 * u2 / self.feature_count)
        m = proj.shape[1]
        Z = np.empty((proj.shape[0], 2 * m))
        cos_half, sin_half = Z[:, :m], Z[:, m:]
        np.cos(args, out=cos_half)
        cos_half *= amp
        np.sin(args, out=sin_half)
        sin_half *= amp
        cache = {"proj": proj, "u1": u1}
        return FeatureBatch(Z, cache, params.version)

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


def rff_init(q: int, D: int, u1: float, u2: float, seed: int) -> RFFMap:
    """Draw a frozen random Fourier map on R^q with D features, seeded."""
    return RFFMap(q, D, seed, init_u1=u1, init_u2=u2)


class ComposedMap(FeatureMap):
    """outer after inner; flat parameters are (inner params, outer params)."""

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

    @property
    def n_params(self) -> int:
        return self.inner.n_params + self.outer.n_params

    def layout(self):
        inner = tuple(
            ("inner." + name, off, shape) for name, off, shape in self.inner.layout()
        )
        shift = self.inner.n_params
        outer = tuple(
            ("outer." + name, off + shift, shape) for name, off, shape in self.outer.layout()
        )
        return inner + outer

    def init_params(self, seed: int) -> FeatureMapParams:
        inner = self.inner.init_params(seed)
        outer = self.outer.init_params(seed + 1)
        return FeatureMapParams(np.concatenate([inner.flat, outer.flat]), self.layout())

    def _split(self, params: FeatureMapParams):
        k = self.inner.n_params
        inner = self.inner.params_from_flat(params.flat[:k], params.version)
        outer = self.outer.params_from_flat(params.flat[k:], params.version)
        return inner, outer

    def forward(self, params, X):
        X = self._check_input(X)
        inner_p, outer_p = self._split(params)
        inner_batch = self.inner.forward(inner_p, X)
        outer_batch = self.outer.forward(outer_p, inner_batch.Z)
        cache = {"inner": inner_batch, "outer": outer_batch}
        return FeatureBatch(outer_batch.Z, cache, params.version)

    def backward_with_inputs(self, params, batch, upstream):
        _check_cache(params, batch)
        inner_p, outer_p = self._split(params)
        g_outer, up_inner = self.outer.backward_with_inputs(
            outer_p, batch.cache["outer"], upstream
        )
        g_inner, g_inputs = self.inner.backward_with_inputs(
            inner_p, batch.cache["inner"], up_inner
        )
        return np.concatenate([g_inner, g_outer]), g_inputs


def compose(outer: FeatureMap, inner: FeatureMap) -> ComposedMap:
    """Build the map x -> outer(inner(x))."""
    return ComposedMap(outer, inner)
