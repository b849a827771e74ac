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
d x d cost. It is exact on training sets of at most 2000 rows and otherwise
taken on a fixed 2000-row subsample (the record's ``nll_kind`` says which).
One Cholesky factor of Z^T Z + s2 I gives both the NLL and the gradient norm
of the divergence probe. A run is marked diverged when a step errors out,
the evaluated loss is non-finite, or the gradient norm at evaluation exceeds
1e12; diverged runs score +inf so a grid search skips them. The record says
which of the three happened (``diverge_reason``) and at which epoch and
step count. Steps run under np.errstate(over="raise", invalid="raise",
divide="raise"), so a floating-point overflow, invalid operation or division
by zero in a step is such an error and names itself; underflow stays
silent, and the evaluation, which reports any failure as +inf, runs outside.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Literal, NamedTuple, get_args

import numpy as np

from stochgp._linalg import chol_lower, chol_solve, gram, logdet_from_chol, tri_inverse_lower
from stochgp.data import (
    Dataset,
    Scaler,
    load_csv,
    split,
    standardize,
)
from stochgp.features import (
    FeatureMap,
    LinearMap,
    MLPMap,
    MLPSpec,
    compose,
    rff_init,
)
from stochgp.objective import HyperParams, _linearized_core
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
    "grid_search",
    "load_dataset",
    "run_experiment",
    "write_run",
]

DEFAULT_GRID = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
RESULTS_DIR_ENV = "STOCHGP_RESULTS_DIR"
EVAL_SUBSAMPLE = 2000
GRAD_DIVERGENCE_NORM = 1e12
Optimizer = Literal["minimax", "scgd", "bsgd"]
MapKind = Literal["linear", "mlp", "mlp+rff"]
OPTIMIZERS = get_args(Optimizer)
MAP_KINDS = get_args(MapKind)


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

    The inputs and the generating map derive from ``spec.seed``; the target
    draw uses the same stream unless ``draw_seed`` pins an independent one
    (useful for redrawing targets against a fixed covariance).
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.normal(size=(spec.n, spec.p))
    if spec.map_kind == "linear":
        fmap: FeatureMap = LinearMap(spec.p)
        params = fmap.init_params(spec.seed)
    else:
        fmap = MLPMap(MLPSpec(spec.p, (spec.mlp_hidden, spec.d)))
        params = fmap.init_params(spec.seed)
    Z = fmap.forward(params, X).Z
    C = Z @ Z.T + spec.sigma2 * np.eye(spec.n)
    L = chol_lower(C, "synthetic covariance")
    y_rng = rng if draw_seed is None else np.random.default_rng(draw_seed)
    y = L @ y_rng.standard_normal(spec.n)
    names = tuple("c%d" % j for j in range(spec.p))
    truth = {
        "map_kind": spec.map_kind,
        "sigma2": spec.sigma2,
        "seed": spec.seed,
        "feature_flat": params.flat.tolist(),
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
    feature_map: MapKind = "linear"
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
        if self.optimizer not in OPTIMIZERS:
            raise ValueError("optimizer must be one of %s" % (OPTIMIZERS,))
        if self.feature_map not in MAP_KINDS:
            raise ValueError("feature_map must be one of %s" % (MAP_KINDS,))
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
        if self.schedule not in ("constant", "polynomial"):
            raise ValueError("schedule must be 'constant' or 'polynomial'")
        if self.batch_mode not in ("replacement", "shuffle"):
            raise ValueError("batch_mode must be 'replacement' or 'shuffle'")
        scalars = [("learning_rate", self.learning_rate)] if self.learning_rate is not None else []
        scalars += [("grid rate", rate) for rate in self.grid]
        scalars += [(name, getattr(self, name)) for name in ("b0", "init_sigma2", "rff_u1", "rff_u2")]
        for name, value in scalars:
            if not 0.0 < value < math.inf:
                raise ValueError("%s must be finite and positive, got %r" % (name, value))
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


@dataclass
class RunRecord:
    """One optimizer run: per-epoch trace plus the best-epoch snapshot."""

    config: dict
    rate: float
    nll_kind: str
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
            "nll_kind": self.nll_kind,
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
    outer = rff_init(
        q=cfg.mlp_out,
        D=cfg.rff_dim,
        u1=cfg.rff_u1,
        u2=cfg.rff_u2,
        seed=cfg.init_seed + 1000,
    )
    return compose(outer, mlp)


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
    """Per-epoch NLL and divergence probe on a fixed evaluation view."""

    def __init__(self, fmap, X, y, split_seed):
        n = X.shape[0]
        if n <= EVAL_SUBSAMPLE:
            self.kind = "exact"
            self.X, self.y = X, y
        else:
            self.kind = "subsample-%d" % EVAL_SUBSAMPLE
            rows = np.sort(
                np.random.default_rng(split_seed + 1).choice(n, EVAL_SUBSAMPLE, replace=False)
            )
            self.X, self.y = X[rows], y[rows]
        self.fmap = fmap

    def nll(self, theta: HyperParams) -> tuple[float, float]:
        """(normalized NLL, gradient norm) at theta from one factorization.

        The NLL is the ridge-form loss minimized over the weights, which
        equals the kernel-space value at O(n d^2 + d^3); the gradient norm is
        that of the linearized loss at theta's own weights with M = F^{-1},
        F = Z^T Z + s2 I. Both read +inf when any step fails.
        """
        X, y = self.X, self.y
        n, d = X.shape[0], self.fmap.output_dim
        s2 = theta.noise_variance
        try:
            batch = self.fmap.forward(theta.feature_params, X)
            Z = batch.Z
            L = chol_lower(gram(Z, s2), "evaluation information matrix")
            w = chol_solve(L, Z.T @ y)
            r = Z @ w - y
            raw = (
                float(r @ r) / s2
                + float(w @ w)
                + logdet_from_chol(L)
                + (n - d) * math.log(s2)
            )
            Li = tri_inverse_lower(L)
            M = Li.T @ Li
            g = _linearized_core(
                self.fmap, theta, batch, y, Z @ (M + M.T), float(np.trace(M)), n
            )
        except (ValueError, np.linalg.LinAlgError):
            return math.inf, math.inf
        return (raw + n * math.log(2 * math.pi)) / (2 * n), g.norm()


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
        _Evaluator(fmap, X, y, cfg.split_seed),
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
    record = RunRecord(config=_config_echo(cfg), rate=rate, nll_kind=evaluator.kind)

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
            nll, grad_norm = evaluator.nll(theta)
            if not math.isfinite(nll):
                reason = "non-finite NLL"
            elif grad_norm > GRAD_DIVERGENCE_NORM:
                reason = "gradient norm %g above 1e12" % grad_norm
                nll = math.inf
        record.epochs.append({"epoch": epoch, "nll": nll, "wall_ms": wall_ms})
        if reason is not None:
            record.diverged = True
            record.diverge_reason, record.diverge_epoch, record.diverge_step = reason, epoch, t
            break
        if best is None or nll < best[0]:
            best = (nll, epoch, theta)

    if record.diverged or best is None:
        record.best_nll = math.inf
        return record

    record.best_nll, record.best_epoch, best_theta = best
    record.best_weights = best_theta.weights.tolist()
    record.best_feature_flat = best_theta.feature_params.flat.tolist()
    record.best_noise_variance = best_theta.noise_variance

    # the posterior mean at the test rows, from one factor of Z^T Z + s2 I
    Z = fmap.forward(best_theta.feature_params, X).Z
    Z_test = fmap.forward(best_theta.feature_params, prep.X_test).Z
    L = chol_lower(gram(Z, best_theta.noise_variance), "posterior information matrix")
    record.test_rmse_marginal = rmse(
        prep.scaler.inverse_targets(Z_test @ chol_solve(L, Z.T @ y)), prep.test_targets
    )
    record.test_rmse_learned_w = rmse(
        prep.scaler.inverse_targets(Z_test @ best_theta.weights), prep.test_targets
    )
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
