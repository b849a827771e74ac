"""Stochastic hyperparameter learning for GP regression with feature-map covariances.

The covariance is k(x, x') = phi(x)^T phi(x') for a parameterized feature map
phi: R^p -> R^d, so the n x n kernel-space negative log marginal likelihood
collapses to a d-dimensional ridge problem plus a d x d log-determinant. The
package provides three stochastic optimizers over the per-sample split of
that loss (a penalty-based minimax method, a compositional two-rate method,
and the biased batch baseline) and an experiment harness with a command-line
front end. A feature map's parameters are a plain float64 vector, and the
parameter point is one, ``HyperParams.flat``. The reference computations
that check them (per-sample terms, exact oracles) are in
:mod:`stochgp.oracles`, which only ``stochgp check`` and the tests import;
``posterior`` is library API that no run calls.
"""

from stochgp.data import Dataset, Scaler, load_csv, split, standardize
from stochgp.features import (
    ComposedMap,
    FeatureBatch,
    FeatureMap,
    LinearMap,
    MLPMap,
    MLPSpec,
    RFFMap,
)
from stochgp.objective import HyperParams, info_matrix
from stochgp.optim import (
    AugmentedState,
    MinimaxConfig,
    SCGDState,
    Schedule,
    bsgd_step,
    minimax_init,
    minimax_step,
    project_dual_ball,
    project_primal,
    scgd_init,
    scgd_step,
    schedule_at,
)
from stochgp.predict import Posterior, posterior, rmse

__version__ = "0.1.0"
