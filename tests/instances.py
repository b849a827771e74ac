"""The seeded problem instances the unit, property and acceptance tests share."""

import numpy as np

from stochgp._linalg import chol_lower
from stochgp.features import ComposedMap, LinearMap, MLPMap, MLPSpec, RFFMap
from stochgp.objective import HyperParams


def instance(seed, n, kind="mlp", p=2, hidden=3, d=2, sigma2=0.6, w_scale=0.5):
    """A map, a parameter point on it and n standard normal rows and targets, all from seed.

    ``kind`` "mlp" is an MLP p -> hidden -> d, "linear" the identity on p
    inputs, and "mlp+rff" that MLP under four random Fourier features.
    """
    rng = np.random.default_rng(seed)
    fmap = LinearMap(p) if kind == "linear" else MLPMap(MLPSpec(p, (hidden, d)))
    if kind == "mlp+rff":
        fmap = ComposedMap(RFFMap(d, 4, seed), fmap)
    weights = w_scale * rng.normal(size=fmap.output_dim)
    theta = HyperParams(weights, fmap.init_params(seed + 1), sigma2)
    return fmap, theta, rng.normal(size=(n, p)), rng.normal(size=n)


def feasible_surrogate(rng, d, sigma2, spread=1.0):
    """G G^T + (sigma2 + spread) I for a standard normal d x d G: inside the surrogate's cone."""
    G = rng.normal(size=(d, d))
    return G @ G.T + (sigma2 + spread) * np.eye(d)


def covariance_draw_csv(spec, directory):
    """Write spec's draw through the n x n covariance factor as a CSV; return its path.

    The inputs and map are those of ``gen_synthetic(spec)``, and the targets
    are y = L e, with L the Cholesky factor of Z Z^T + sigma2 I and e the
    stream's next n normals: bit for bit the draw that ``gen_synthetic``
    made before it drew in weight space. The tests whose stored records came
    from that draw read it through ``data_path``. It is O(n^2) in memory, so
    keep n at test scale (at most 200).
    """
    assert spec.n <= 200
    rng = np.random.default_rng(spec.seed)
    X = rng.normal(size=(spec.n, spec.p))
    if spec.map_kind == "linear":
        fmap = LinearMap(spec.p)
    else:
        fmap = MLPMap(MLPSpec(spec.p, (spec.mlp_hidden, spec.d)))
    Z = fmap.forward(fmap.init_params(spec.seed), X).Z
    L = chol_lower(Z @ Z.T + spec.sigma2 * np.eye(spec.n), "synthetic covariance")
    y = L @ rng.standard_normal(spec.n)
    path = directory / (spec.label() + ".csv")
    header = ",".join(["c%d" % j for j in range(spec.p)] + ["target"])
    table = np.column_stack([X, y])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")
    return str(path)
