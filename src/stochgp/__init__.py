"""Stochastic hyperparameter learning for GP regression with feature-map covariances.

The covariance is k(x, x') = phi(x)^T phi(x') for a parameterized feature map
phi: R^p -> R^d, so the n x n kernel-space negative log marginal likelihood
collapses to a d-dimensional ridge problem plus a d x d log-determinant. The
package provides the per-sample decomposition of that loss, three stochastic
optimizers over it (a penalty-based minimax method, a compositional two-rate
method, and the biased batch baseline), exact oracles for validation, and an
experiment harness with a command-line front end.
"""

from stochgp.data import Dataset, Scaler, load_csv, split, standardize
from stochgp.features import (
    ComposedMap,
    FeatureBatch,
    FeatureMap,
    FeatureMapParams,
    LinearMap,
    MLPMap,
    MLPSpec,
    RFFMap,
    compose,
    rff_init,
)
from stochgp.objective import (
    HyperParams,
    ThetaGrad,
    exact_nll_oracle,
    full_loss,
    grad_theta_of_linearized,
    info_matrix,
    logdet_psd,
    ridge_closed_form,
    ridge_identity_check,
    sample_info_term,
    sample_loss_term,
)
from stochgp.optim import (
    AugmentedState,
    MinimaxConfig,
    SCGDState,
    Schedule,
    bsgd_step,
    minimax_batch_grads,
    minimax_init,
    minimax_sample_objective,
    minimax_step,
    project_dual_ball,
    project_primal,
    scgd_init,
    scgd_step,
    schedule_at,
)
from stochgp.predict import Posterior, posterior, rmse

__version__ = "0.1.0"
