"""The seeded problem instances the unit, property and acceptance tests share."""

import numpy as np

from stochgp.features import LinearMap, MLPMap, MLPSpec, compose, rff_init
from stochgp.objective import HyperParams


def instance(seed, n, kind="mlp", p=2, hidden=3, d=2, sigma2=0.6, w_scale=0.5):
    """A map, a parameter point on it and n standard normal rows and targets, all from seed.

    ``kind`` "mlp" is an MLP p -> hidden -> d, "linear" the identity on p
    inputs, and "mlp+rff" that MLP under four random Fourier features.
    """
    rng = np.random.default_rng(seed)
    fmap = LinearMap(p) if kind == "linear" else MLPMap(MLPSpec(p, (hidden, d)))
    if kind == "mlp+rff":
        fmap = compose(rff_init(q=d, D=4, u1=1.0, u2=1.0, seed=seed), fmap)
    weights = w_scale * rng.normal(size=fmap.output_dim)
    theta = HyperParams(weights, fmap.init_params(seed + 1), sigma2)
    return fmap, theta, rng.normal(size=(n, p)), rng.normal(size=n)


def feasible_surrogate(rng, d, sigma2, spread=1.0):
    """G G^T + (sigma2 + spread) I for a standard normal d x d G: inside the surrogate's cone."""
    G = rng.normal(size=(d, d))
    return G @ G.T + (sigma2 + spread) * np.eye(d)
