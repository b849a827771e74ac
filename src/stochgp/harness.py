"""Experiment harness: configs, the epoch loop, grid search, and result files.

A run is fully determined by its config (seeds included) at a fixed BLAS
thread count: data loading or synthesis, the train/test split,
standardization, optimizer initialization, batch draws, per-epoch
evaluation, best-epoch selection, and test RMSE all derive from the three
seeds, so identical configs reproduce identical records on one thread
setting. A different thread count can change the last digits, because BLAS
then sums in another order.

Per-epoch negative log marginal likelihood is reported normalized,
(quadratic + logdet + n log 2pi) / (2n), always through the ridge form of the
loss minimized over the weights, which equals the kernel-space value at a
d x d cost. It is exact over every training row, so a record's ``nll_kind``
is ``"exact"``; records from earlier versions, which evaluated a fixed
2000-row subsample above 2000 training rows, may carry ``"subsample-2000"``.
One Cholesky factor of Z^T Z + s2 I gives the NLL, the gradient norm of the
divergence probe and the ridge weights of the best epoch's posterior-mean
test prediction.

Every pass over the data outside the steps (the start of ``minimax`` and
``scgd``, each evaluation and the final test prediction) runs over row blocks
of at most max(1, BLOCK_FLOATS // d) rows (``stochgp.objective``). So beyond
the data and a step's own arrays, a run holds O(block (hidden + d) + d^2)
floats, however many rows it has. A single block does the arithmetic of a
whole-matrix pass bit for bit; more blocks change only the summation order.

A run is marked diverged when a step errors out, the evaluated loss is
non-finite, or the gradient norm at evaluation exceeds 1e12; diverged runs
score +inf so a grid search skips them. The record says which of the three
happened (``diverge_reason``) and at which epoch and step count. Steps run
under np.errstate(over="raise", invalid="raise", divide="raise"), so a
floating-point overflow, invalid operation or division by zero in a step is
such an error and names itself; underflow stays silent. The evaluation runs
outside; when it raises, the reason is "non-finite NLL" followed by the
exception's class and message. When an ``scgd`` step raised, the reason
adds its tracker's extreme eigenvalues, and "so rounding decides its
factorization" when the smaller is <= 0 or their ratio exceeds 1/eps.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Literal, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from stochgp._linalg import chol_inverse, chol_lower, chol_solve, frobenius, logdet_from_chol
from stochgp.data import (
    Dataset,
    Scaler,
    load_csv,
    split,
    standardize,
)
from stochgp.features import ComposedMap, FeatureMap, LinearMap, MLPMap, MLPSpec, RFFMap
from stochgp.objective import HyperParams, _feature_blocks, _linearized_core, _ridge_system
from stochgp.optim import (
    MinimaxConfig,
    Schedule,
    bsgd_step,
    minimax_init,
    minimax_step,
    scgd_init,
    scgd_step,
    schedule_at,
)
from stochgp.predict import rmse

__all__ = [
    "DEFAULT_GRID",
    "ExperimentConfig",
    "RunRecord",
    "SynthSpec",
    "assemble_table",
    "build_feature_map",
    "config_from_dict",
    "default_results_dir",
    "divergence_reasons",
    "gen_synthetic",
    "grid_edge",
    "grid_search",
    "load_dataset",
    "run_experiment",
    "write_run",
]

DEFAULT_GRID = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
RESULTS_DIR_ENV = "STOCHGP_RESULTS_DIR"
GRAD_DIVERGENCE_NORM = 1e12
Optimizer = Literal["minimax", "scgd", "bsgd"]
OPTIMIZERS = get_args(Optimizer)


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic-data recipe: a zero-mean draw from the implied covariance."""

    n: int
    p: int
    d: int
    sigma2: float
    map_kind: str = "linear"
    seed: int = 0
    mlp_hidden: int = 32

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.p < 1 or self.d < 1:
            raise ValueError("dimensions must be positive")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.map_kind not in ("linear", "mlp"):
            raise ValueError("map_kind must be 'linear' or 'mlp'")
        if self.map_kind == "linear" and self.d != self.p:
            raise ValueError("identity features require d == p")

    def label(self) -> str:
        return "synth-%s-n%d-p%d-d%d" % (self.map_kind, self.n, self.p, self.d)


def gen_synthetic(spec: SynthSpec, draw_seed: int | None = None):
    """Sample (Dataset, truth dict) with y ~ N(0, Z Z^T + sigma2 I).

    Drawn in weight space, y = Z g + sqrt(sigma2) e with d normals g then n
    normals e: the law of a draw through the n x n covariance's factor, at
    O(n d) cost, though a seed gives other targets than that draw. Inputs and
    map derive from ``spec.seed``; g and e come from the same stream unless
    ``draw_seed`` pins an independent one (to redraw against a fixed covariance).
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.normal(size=(spec.n, spec.p))
    if spec.map_kind == "linear":
        fmap: FeatureMap = LinearMap(spec.p)
    else:
        fmap = MLPMap(MLPSpec(spec.p, (spec.mlp_hidden, spec.d)))
    params = fmap.init_params(spec.seed)
    Z = fmap.forward(params, X).Z
    y_rng = rng if draw_seed is None else np.random.default_rng(draw_seed)
    g = y_rng.standard_normal(spec.d)
    y = Z @ g + math.sqrt(spec.sigma2) * y_rng.standard_normal(spec.n)
    names = tuple("c%d" % j for j in range(spec.p))
    truth = {
        "map_kind": spec.map_kind,
        "sigma2": spec.sigma2,
        "seed": spec.seed,
        "feature_flat": params.tolist(),
    }
    return Dataset(X, y, names), truth


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; identical configs give identical records at one BLAS thread count.

    Every field is also a ``stochgp run``/``grid`` flag and config-file key,
    which ``stochgp.cli`` derives from the field's name, type and default.
    """

    data_path: str | None = None
    target: str = "target"
    synth: SynthSpec | None = None
    feature_map: Literal["linear", "mlp", "mlp+rff"] = "linear"
    mlp_hidden: int = 128
    mlp_out: int = 128
    rff_dim: int = 1000
    rff_u1: float = 1.0
    rff_u2: float = 1.0
    optimizer: Optimizer = "minimax"
    batch_size: int = 32
    epochs: int = 100
    learning_rate: float | None = None
    grid: tuple[float, ...] = DEFAULT_GRID
    schedule: Literal["constant", "polynomial"] = "constant"
    b0: float = 0.9
    dual_rate: float = 0.1
    penalty: float = 1.0
    sigma_min: float = 1e-3
    coord_bound: float = 1e6
    eig_bound: float = 1e6
    init_sigma2: float = 1.0
    share_batch: bool = False
    streaming_init: bool = False
    batch_mode: Literal["replacement", "shuffle"] = "replacement"
    train_fraction: float = 0.9
    split_seed: int = 0
    init_seed: int = 0
    batch_seed: int = 0
    name: str | None = None

    def __post_init__(self):
        if (self.data_path is None) == (self.synth is None):
            raise ValueError("exactly one of data_path and synth must be set")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError("%s must be one of %s" % (name, choices))
        if self.feature_map == "mlp+rff" and (self.rff_dim < 2 or self.rff_dim % 2):
            raise ValueError(
                "rff_dim must be a positive even number, got %d: random features"
                " come in cos/sin pairs sharing one frequency" % self.rff_dim
            )
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not self.grid:
            raise ValueError("learning-rate grid must be non-empty")
        scalars = [("learning_rate", self.learning_rate)] if self.learning_rate is not None else []
        scalars += [("grid rate", rate) for rate in self.grid]
        scalars += [(name, getattr(self, name)) for name in ("b0", "init_sigma2", "rff_u1", "rff_u2")]
        for name, value in scalars:
            if not 0.0 < value < math.inf:
                raise ValueError("%s must be finite and positive, got %r" % (name, value))
        if len(set(self.grid)) < len(self.grid):
            repeated = max(self.grid, key=self.grid.count)
            raise ValueError("learning-rate grid names %r more than once" % repeated)
        # the averaging weight's range under the schedule
        Schedule(self.schedule, 1.0, self.b0)
        if self.feature_map != "linear" and min(self.mlp_hidden, self.mlp_out) < 1:
            raise ValueError(
                "mlp_hidden and mlp_out must be at least 1, got %d and %d"
                % (self.mlp_hidden, self.mlp_out)
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                "train_fraction must lie strictly between 0 and 1, got %r" % self.train_fraction
            )
        if self.name and any(sep and sep in self.name for sep in ("/", os.sep, os.altsep)):
            raise ValueError(
                "name %r must not contain a path separator: it names files in the"
                " results directory" % self.name
            )
        # the projection settings; sigma_min also floors scgd and bsgd
        MinimaxConfig(
            0.0, self.dual_rate, self.penalty, self.sigma_min, self.coord_bound, self.eig_bound
        )

    def dataset_label(self) -> str:
        if self.synth is not None:
            return self.synth.label()
        return Path(self.data_path).stem

    def run_name(self, rate: float) -> str:
        if self.name:
            base = self.name
        else:
            base = "%s-%s" % (self.dataset_label(), self.feature_map)
        return "%s-%s-s%d-r%g-seed%d" % (
            base,
            self.optimizer,
            self.batch_size,
            rate,
            self.split_seed,
        )


# the Literal-typed fields and their values, from the hints stochgp.cli reads
_CHOICES = {
    k: get_args(t) for k, t in get_type_hints(ExperimentConfig).items() if get_origin(t) is Literal
}


@dataclass
class RunRecord:
    """One optimizer run: per-epoch trace plus the best-epoch snapshot."""

    config: dict
    rate: float
    epochs: list[dict] = field(default_factory=list)
    diverged: bool = False
    best_epoch: int = -1
    best_nll: float = math.inf
    test_rmse_marginal: float = math.nan
    test_rmse_learned_w: float = math.nan
    best_weights: list[float] = field(default_factory=list)
    best_feature_flat: list[float] = field(default_factory=list)
    best_noise_variance: float = math.nan
    # why, in which epoch, and after how many steps of the run it diverged;
    # a failed evaluation counts at the epoch's last step
    diverge_reason: str | None = None
    diverge_epoch: int | None = None
    diverge_step: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "format": "stochgp-run",
            "version": 1,
            "config": self.config,
            "rate": self.rate,
            "nll_kind": "exact",  # every evaluation covers every training row
            "diverged": self.diverged,
            "diverge_reason": self.diverge_reason,
            "diverge_epoch": self.diverge_epoch,
            "diverge_step": self.diverge_step,
            "best": {
                "epoch": self.best_epoch,
                "nll": self.best_nll,
                "test_rmse_marginal": self.test_rmse_marginal,
                "test_rmse_learned_w": self.test_rmse_learned_w,
                "weights": self.best_weights,
                "feature_flat": self.best_feature_flat,
                "noise_variance": self.best_noise_variance,
            },
            "epochs": self.epochs,
        }


def build_feature_map(cfg: ExperimentConfig, input_dim: int) -> FeatureMap:
    if cfg.feature_map == "linear":
        return LinearMap(input_dim)
    mlp = MLPMap(MLPSpec(input_dim, (cfg.mlp_hidden, cfg.mlp_out)))
    if cfg.feature_map == "mlp":
        return mlp
    outer = RFFMap(
        cfg.mlp_out, cfg.rff_dim, cfg.init_seed + 1000, init_u1=cfg.rff_u1, init_u2=cfg.rff_u2
    )
    return ComposedMap(outer, mlp)


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.synth is not None:
        return gen_synthetic(cfg.synth)[0]
    return load_csv(cfg.data_path, cfg.target)


def _config_echo(cfg: ExperimentConfig) -> dict:
    out = asdict(cfg)
    out["grid"] = list(cfg.grid)
    return out


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Rebuild a config from a record's echoed ``config`` dict."""
    doc = dict(doc)
    if doc.get("synth") is not None:
        doc["synth"] = SynthSpec(**doc["synth"])
    if doc.get("grid") is not None:
        doc["grid"] = tuple(doc["grid"])
    return ExperimentConfig(**doc)


class _Evaluator:
    """Per-epoch NLL, divergence probe and ridge weights over every training row."""

    def __init__(self, fmap, X, y):
        self.fmap, self.X, self.y = fmap, X, y

    def nll(self, theta: HyperParams) -> tuple[float, float, np.ndarray]:
        """(normalized NLL, gradient norm, ridge weights) at theta from one factorization.

        The NLL is the ridge-form loss minimized over the weights w = F^{-1}
        Z^T y, F = Z^T Z + s2 I, which equals the kernel-space value at
        O(n d^2 + d^3); the gradient norm is that of the linearized loss at
        theta's own weights with M = F^{-1}. A failure raises (ValueError or
        LinAlgError), and ``_train`` records its class and message.

        One pass over the row blocks accumulates F and Z^T y; a second
        computes the ridge residual and sums the probe's gradient over the
        blocks, each block's taken at the one M + M^T formed for the pass.
        When the rows make one block, the second pass reuses the first one's
        features instead of computing them again.
        """
        X, y, fmap = self.X, self.y, self.fmap
        n, d = X.shape[0], fmap.output_dim
        s2 = theta.noise_variance
        F, Zty, batch = _ridge_system(fmap, theta.feature_params, s2, X, y)
        L = chol_lower(F, "evaluation information matrix")
        w = chol_solve(L, Zty)
        logdet = logdet_from_chol(L)
        M = chol_inverse(L)  # overwrites L
        S = M + M.T  # formed once for every block
        if batch is None:
            blocks = _feature_blocks(fmap, theta.feature_params, X)
        else:
            blocks = [(slice(None), batch)]
        rr, g = 0.0, 0.0
        for rows, fb in blocks:
            r = fb.Z @ w - y[rows]
            rr += float(r @ r)
            g = g + _linearized_core(fmap, theta, fb, y[rows], S, n)
        raw = rr / s2 + float(w @ w) + logdet + (n - d) * math.log(s2)
        return (raw + n * math.log(2 * math.pi)) / (2 * n), frobenius(g), w


def _test_predictions(
    fmap: FeatureMap, theta: HyperParams, w: np.ndarray, X_test: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(posterior mean, prediction with theta's own weights) at the test rows.

    ``w`` are the ridge weights ``_Evaluator.nll`` solved for at theta, so the
    first is the mean of ``predict.posterior``; one pass over the test row
    blocks gives both.
    """
    marginal, learned = [], []
    for _, batch in _feature_blocks(fmap, theta.feature_params, X_test):
        marginal.append(batch.Z @ w)
        learned.append(batch.Z @ theta.weights)
    return np.concatenate(marginal), np.concatenate(learned)


def _draw_epoch(n: int, s: int, mode: str, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch of index batches, ceil(n/s) of them.

    "replacement" draws each batch uniformly with replacement, so per-sample
    gradient terms stay i.i.d.; "shuffle" cuts one permutation into chunks,
    so every index appears once and the last chunk may be short.
    """
    if mode == "replacement":
        return [rng.integers(0, n, size=s, dtype=np.int64) for _ in range(-(-n // s))]
    perm = rng.permutation(n)
    return [perm[start : start + s] for start in range(0, n, s)]


class _Prepared(NamedTuple):
    """What every rate of one config shares: the standardized split and the map."""

    X: np.ndarray
    y: np.ndarray
    X_test: np.ndarray
    test_targets: np.ndarray
    scaler: Scaler
    fmap: FeatureMap
    evaluator: _Evaluator


def _prepare(cfg: ExperimentConfig) -> _Prepared:
    """Load or synthesize, split and standardize the data; build the map."""
    data = load_dataset(cfg)
    train_raw, test_raw = split(data, cfg.train_fraction, cfg.split_seed)
    train, scaler = standardize(train_raw)
    X, y = train.features, train.targets
    fmap = build_feature_map(cfg, X.shape[1])
    return _Prepared(
        X,
        y,
        scaler.transform(test_raw).features,
        test_raw.targets,
        scaler,
        fmap,
        _Evaluator(fmap, X, y),
    )


def run_experiment(cfg: ExperimentConfig, rate: float | None = None) -> RunRecord:
    """Execute one full run; see the module docstring for the protocol."""
    if rate is None:
        rate = cfg.learning_rate
    if rate is None:
        raise ValueError("no learning rate: set cfg.learning_rate or pass one")
    return _train(cfg, _prepare(cfg), rate)


def _train(cfg: ExperimentConfig, prep: _Prepared, rate: float) -> RunRecord:
    """Train at one rate on prepared data; nothing in ``prep`` is modified."""
    X, y, fmap, evaluator = prep.X, prep.y, prep.fmap, prep.evaluator
    n, d = X.shape[0], fmap.output_dim
    theta = HyperParams(np.zeros(d), fmap.init_params(cfg.init_seed), cfg.init_sigma2)
    record = RunRecord(config=_config_echo(cfg), rate=rate)

    rng = np.random.default_rng(cfg.batch_seed)
    schedule = Schedule(cfg.schedule, rate, cfg.b0)

    mm_state = mm_dual = scgd_state = None
    if cfg.optimizer == "minimax":
        seed_idx = (
            rng.integers(0, n, size=min(cfg.batch_size, n), dtype=np.int64)
            if cfg.streaming_init
            else None
        )
        mm_state, mm_dual = minimax_init(fmap, theta, X, batch_indices=seed_idx)
        mm_cfg = MinimaxConfig(
            rate, cfg.dual_rate, cfg.penalty, cfg.sigma_min, cfg.coord_bound, cfg.eig_bound
        )
    elif cfg.optimizer == "scgd":
        scgd_state = scgd_init(fmap, theta, X)

    best = None
    t = 0
    for epoch in range(1, cfg.epochs + 1):
        start = time.perf_counter()
        reason = None
        # an overflow, 0/0 or x/0 in a step raises instead of spreading inf or
        # nan, so the record names it; underflow to zero stays silent
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for idx in _draw_epoch(n, cfg.batch_size, cfg.batch_mode, rng):
                t += 1
                a_t, b_t = schedule_at(schedule, t)
                try:
                    if cfg.optimizer == "minimax":
                        idx2 = (
                            idx
                            if cfg.share_batch
                            else rng.integers(0, n, size=idx.size, dtype=np.int64)
                        )
                        if a_t != mm_cfg.primal_rate:  # every step under "polynomial"
                            mm_cfg = replace(mm_cfg, primal_rate=a_t)
                        mm_state, mm_dual = minimax_step(
                            fmap, mm_state, mm_dual, X, y, idx, idx2, mm_cfg
                        )
                        theta = mm_state.theta
                    elif cfg.optimizer == "scgd":
                        scgd_state = scgd_step(
                            fmap, scgd_state, X, y, idx, a_t, b_t, cfg.sigma_min
                        )
                        theta = scgd_state.theta
                    else:
                        theta = bsgd_step(fmap, theta, X, y, idx, a_t, cfg.sigma_min)
                except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
                    reason = "%s: %s" % (type(exc).__name__, exc)
                    break
        wall_ms = (time.perf_counter() - start) * 1000.0

        nll = math.inf
        if reason is None:
            try:
                nll, grad_norm, w = evaluator.nll(theta)
            except (ValueError, np.linalg.LinAlgError) as exc:
                reason = "non-finite NLL: %s: %s" % (type(exc).__name__, exc)
            else:
                if not math.isfinite(nll):
                    reason = "non-finite NLL"
                elif grad_norm > GRAD_DIVERGENCE_NORM:
                    reason = "gradient norm %g above 1e12" % grad_norm
                    nll = math.inf
        elif cfg.optimizer == "scgd":
            # a step raised; hi / lo > 1/eps multiplied out, since lo / eps can overflow
            lo, hi = np.linalg.eigvalsh(scgd_state.tracked_info)[[0, -1]]
            reason += "; tracker eigenvalues %.3g to %.3g" % (lo, hi)
            if lo <= 0.0 or hi * np.finfo(np.float64).eps > lo:
                reason += ", so rounding decides its factorization"
        record.epochs.append({"epoch": epoch, "nll": nll, "wall_ms": wall_ms})
        if reason is not None:
            # counted once, here: the step loop never looks at the bound
            clamped = np.count_nonzero(np.abs(theta.flat) == cfg.coord_bound)
            if clamped:
                reason += "; %d parameters at coord_bound %g" % (clamped, cfg.coord_bound)
            record.diverged = True
            record.diverge_reason, record.diverge_epoch, record.diverge_step = reason, epoch, t
            break
        if best is None or nll < best[0]:
            best = (nll, epoch, theta, w)

    if record.diverged:
        return record

    record.best_nll, record.best_epoch, best_theta, best_w = best
    record.best_weights = best_theta.weights.tolist()
    record.best_feature_flat = best_theta.feature_params.tolist()
    record.best_noise_variance = best_theta.noise_variance

    marginal, learned = _test_predictions(fmap, best_theta, best_w, prep.X_test)
    record.test_rmse_marginal = rmse(prep.scaler.inverse_targets(marginal), prep.test_targets)
    record.test_rmse_learned_w = rmse(prep.scaler.inverse_targets(learned), prep.test_targets)
    return record


def grid_search(cfg: ExperimentConfig, on_record=None) -> tuple[float, RunRecord]:
    """Run every rate in the grid; return the best by best-epoch NLL.

    Ties go to the smaller rate (rates are swept in increasing order and a
    later rate must be strictly better to displace the incumbent). If every
    rate diverges the sweep fails loudly. ``on_record`` is called with each
    finished RunRecord, diverged ones included. The data are loaded, split
    and standardized and the map is built once, for every rate; each record
    equals that of ``run_experiment`` at its rate.
    """
    prep = _prepare(cfg)
    best_rate, best_record = None, None
    for rate in sorted(cfg.grid):
        record = _train(cfg, prep, rate)
        if on_record is not None:
            on_record(record)
        if best_record is None or record.best_nll < best_record.best_nll:
            best_rate, best_record = rate, record
    if best_record is None or not math.isfinite(best_record.best_nll):
        raise RuntimeError("all learning rates in the grid diverged")
    return best_rate, best_record


def grid_edge(grid, rate: float) -> str | None:
    """Which end of a grid of 2 or more rates ``rate`` is: "smallest", "largest" or None.

    A best rate at an end of its grid is bracketed from one side only: a
    rate beyond that end, which the sweep did not try, may do better.
    """
    ends = {min(grid): "smallest", max(grid): "largest"}
    return ends.get(rate) if len(ends) > 1 else None


def write_run(record: RunRecord, out_dir, name: str) -> tuple[Path, Path]:
    """Persist one run as {name}.json plus {name}_epochs.csv; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / (name + ".json")
    csv_path = out / (name + "_epochs.csv")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(record.to_json_dict(), fh, indent=2, allow_nan=True)
        fh.write("\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "nll", "wall_ms"])
        for row in record.epochs:
            writer.writerow([row["epoch"], repr(row["nll"]), "%.3f" % row["wall_ms"]])
    return json_path, csv_path


def default_results_dir() -> Path:
    return Path(os.environ.get(RESULTS_DIR_ENV, "results"))


def _cell_key(doc: dict) -> tuple[str, int, str]:
    """(dataset label, batch size, optimizer) of a run JSON dict: its table cell."""
    cfg = doc["config"]
    synth = cfg.get("synth")
    label = SynthSpec(**synth).label() if synth else Path(cfg["data_path"]).stem
    return label, int(cfg["batch_size"]), cfg["optimizer"]


def assemble_table(run_dicts: list[dict]) -> list[dict]:
    """Merge run JSON dicts into rows keyed by dataset and batch size.

    Runs sharing (dataset, batch size, optimizer, split seed) are collapsed
    to their best NLL first, so a saved rate sweep counts as one entry; the
    cell then shows mean±std of those entries across split seeds. Order of
    the inputs does not matter.
    """
    per_seed: dict[tuple[str, int, str, int], float] = {}
    for doc in run_dicts:
        key = _cell_key(doc) + (int(doc["config"]["split_seed"]),)
        nll = float(doc["best"]["nll"])
        per_seed[key] = min(per_seed.get(key, math.inf), nll)

    groups: dict[tuple[str, int], dict[str, list[float]]] = {}
    for (label, batch_size, opt, _seed), nll in per_seed.items():
        groups.setdefault((label, batch_size), {}).setdefault(opt, []).append(nll)

    rows = []
    for (label, batch_size) in sorted(groups):
        cells = {"dataset": label, "batch_size": batch_size}
        for opt in OPTIMIZERS:
            vals = [v for v in groups[(label, batch_size)].get(opt, []) if math.isfinite(v)]
            if not vals:
                cells[opt] = "" if opt not in groups[(label, batch_size)] else "diverged"
            else:
                arr = np.asarray(vals)
                cells[opt] = "%.4f±%.4f" % (float(arr.mean()), float(arr.std()))
        rows.append(cells)
    return rows


def divergence_reasons(run_dicts: list[dict]) -> list[tuple[str, int, str, dict[str, int]]]:
    """Why each cell that ``assemble_table`` shows as "diverged" diverged.

    One (dataset, batch size, optimizer, counts) entry per such cell, in
    table order; ``counts`` maps each distinct ``diverge_reason`` of the
    cell's runs to how many runs gave it, most frequent first. Records
    written before runs kept a reason count as "reason not recorded".
    """
    finished, reasons = set(), {}
    for doc in run_dicts:
        key = _cell_key(doc)
        if math.isfinite(float(doc["best"]["nll"])):
            finished.add(key)
            continue
        counts = reasons.setdefault(key, {})
        reason = doc.get("diverge_reason") or "reason not recorded"
        counts[reason] = counts.get(reason, 0) + 1
    return [
        key + (dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))),)
        for key, counts in sorted(
            reasons.items(), key=lambda kv: (kv[0][:2], OPTIMIZERS.index(kv[0][2]))
        )
        if key not in finished
    ]
