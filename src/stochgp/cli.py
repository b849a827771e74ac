"""Command-line front end: run, grid, synth, table, check.

``run`` executes one experiment at a fixed learning rate, ``grid`` sweeps a
rate grid and keeps the best run, ``synth`` writes a synthetic dataset to
CSV, ``table`` merges saved run files into a comparison table (and says why
each cell that reads "diverged" diverged), and ``check`` exercises the
library's internal consistency identities after a line naming the LAPACK and
BLAS extension files and BLAS thread settings they run on.

Every experiment flag can instead come from a ``key = value`` config file
(``--config``); explicit command-line flags win over file values. Results go
to --out, else the directory named by the STOCHGP_RESULTS_DIR environment
variable, else ./results.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from stochgp import _linalg, harness
from stochgp._linalg import symmetrize
from stochgp.features import MLPMap, MLPSpec
from stochgp.objective import (
    HyperParams,
    exact_nll_oracle,
    full_loss,
    logdet_psd,
    ridge_closed_form,
    ridge_identity_check,
    sample_info_term,
    sample_loss_term,
)
from stochgp.optim import (
    AugmentedState,
    bsgd_step,
    minimax_batch_grads,
    minimax_sample_objective,
    project_dual_ball,
    project_primal,
    scgd_init,
    scgd_step,
)

# flag destinations the key=value config file may set, with their parsers
_CONFIG_COERCERS = {
    "data": str,
    "target": str,
    "synth": str,
    "map": str,
    "mlp_hidden": int,
    "mlp_out": int,
    "rff_dim": int,
    "rff_u1": float,
    "rff_u2": float,
    "optimizer": str,
    "batch_size": int,
    "epochs": int,
    "rate": float,
    "grid": str,
    "schedule": str,
    "b0": float,
    "dual_rate": float,
    "penalty": float,
    "sigma_min": float,
    "coord_bound": float,
    "eig_bound": float,
    "init_sigma2": float,
    "share_batch": lambda s: _parse_bool(s),
    "streaming_init": lambda s: _parse_bool(s),
    "batch_mode": str,
    "train_fraction": float,
    "split_seed": int,
    "init_seed": int,
    "batch_seed": int,
    "name": str,
    "out": str,
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % text)


def _parse_grid(text: str) -> tuple[float, ...]:
    vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise ValueError("empty learning-rate grid: %r" % text)
    return vals


def _parse_synth(text: str) -> harness.SynthSpec:
    """Parse 'n=2048,p=16,d=16,sigma2=0.5,kind=linear,seed=0[,hidden=32]'."""
    fields: dict = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" not in tok:
            raise ValueError("synth spec entries must be key=value, got %r" % tok)
        key, val = (part.strip() for part in tok.split("=", 1))
        if key in ("n", "p", "d", "seed", "hidden"):
            fields["mlp_hidden" if key == "hidden" else key] = int(val)
        elif key == "sigma2":
            fields[key] = float(val)
        elif key == "kind":
            fields["map_kind"] = val
        else:
            raise ValueError("unknown synth spec key: %r" % key)
    for required in ("n", "p", "d", "sigma2"):
        if required not in fields:
            raise ValueError("synth spec is missing %s" % required)
    return harness.SynthSpec(**fields)


def read_config_file(path) -> dict:
    """Parse a key=value config file into flag defaults.

    Blank lines and lines starting with # are skipped. Keys use the flag
    names with underscores (e.g. ``batch_size = 64``).
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("%s line %d: expected key = value" % (path, lineno))
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_COERCERS:
                raise ValueError("%s line %d: unknown key %r" % (path, lineno, key))
            try:
                out[key] = _CONFIG_COERCERS[key](val)
            except ValueError as exc:
                raise ValueError("%s line %d: %s" % (path, lineno, exc)) from None
    return out


def _add_experiment_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file; flags override it")
    src = p.add_argument_group("data source (exactly one)")
    src.add_argument("--data", help="CSV file with a header row")
    src.add_argument("--target", default="target", help="target column name or index")
    src.add_argument(
        "--synth",
        help="synthetic spec, e.g. n=2048,p=16,d=16,sigma2=0.5,kind=linear,seed=0",
    )
    model = p.add_argument_group("model")
    model.add_argument("--map", default="linear", choices=list(harness.MAP_KINDS))
    model.add_argument("--mlp-hidden", type=int, default=128)
    model.add_argument("--mlp-out", type=int, default=128)
    model.add_argument("--rff-dim", type=int, default=1000)
    model.add_argument("--rff-u1", type=float, default=1.0)
    model.add_argument("--rff-u2", type=float, default=1.0)
    model.add_argument("--init-sigma2", type=float, default=1.0)
    opt = p.add_argument_group("optimizer")
    opt.add_argument("--optimizer", default="minimax", choices=list(harness.OPTIMIZERS))
    opt.add_argument("--batch-size", type=int, default=32)
    opt.add_argument("--epochs", type=int, default=100)
    opt.add_argument("--schedule", default="constant", choices=["constant", "polynomial"])
    opt.add_argument("--b0", type=float, default=0.9, help="averaging weight scale")
    opt.add_argument("--dual-rate", type=float, default=0.1)
    opt.add_argument("--penalty", type=float, default=1.0)
    opt.add_argument("--sigma-min", type=float, default=1e-3)
    opt.add_argument("--coord-bound", type=float, default=1e6)
    opt.add_argument("--eig-bound", type=float, default=1e6)
    opt.add_argument("--share-batch", action="store_true", default=False)
    opt.add_argument("--streaming-init", action="store_true", default=False)
    opt.add_argument(
        "--batch-mode", default="replacement", choices=["replacement", "shuffle"]
    )
    proto = p.add_argument_group("protocol")
    proto.add_argument("--train-fraction", type=float, default=0.9)
    proto.add_argument("--split-seed", type=int, default=0)
    proto.add_argument("--init-seed", type=int, default=0)
    proto.add_argument("--batch-seed", type=int, default=0)
    proto.add_argument("--name", help="base name for result files")
    proto.add_argument(
        "--out",
        help="results directory (default: $%s or ./results)" % harness.RESULTS_DIR_ENV,
    )


def _config_from_args(args) -> harness.ExperimentConfig:
    synth = None
    if args.synth:
        spec = args.synth
        synth = spec if isinstance(spec, harness.SynthSpec) else _parse_synth(spec)
    grid_text = getattr(args, "grid", None)
    return harness.ExperimentConfig(
        data_path=args.data,
        target=args.target,
        synth=synth,
        feature_map=args.map,
        mlp_hidden=args.mlp_hidden,
        mlp_out=args.mlp_out,
        rff_dim=args.rff_dim,
        rff_u1=args.rff_u1,
        rff_u2=args.rff_u2,
        optimizer=args.optimizer,
        batch_size=args.batch_size,
        epochs=args.epochs,
        learning_rate=getattr(args, "rate", None),
        grid=_parse_grid(grid_text) if grid_text else harness.DEFAULT_GRID,
        schedule=args.schedule,
        b0=args.b0,
        dual_rate=args.dual_rate,
        penalty=args.penalty,
        sigma_min=args.sigma_min,
        coord_bound=args.coord_bound,
        eig_bound=args.eig_bound,
        init_sigma2=args.init_sigma2,
        share_batch=args.share_batch,
        streaming_init=args.streaming_init,
        batch_mode=args.batch_mode,
        train_fraction=args.train_fraction,
        split_seed=args.split_seed,
        init_seed=args.init_seed,
        batch_seed=args.batch_seed,
        name=args.name,
    )


def _out_dir(args) -> Path:
    return Path(args.out) if args.out else harness.default_results_dir()


def _print_record(record: harness.RunRecord):
    if record.diverged:
        print(
            "rate %g: diverged (NLL = inf) in epoch %d at step %d: %s"
            % (record.rate, record.diverge_epoch, record.diverge_step, record.diverge_reason)
        )
    else:
        print(
            "rate %g: best epoch %d, NLL %.6f, test RMSE %.6f (marginal) / %.6f (learned-w)"
            % (
                record.rate,
                record.best_epoch,
                record.best_nll,
                record.test_rmse_marginal,
                record.test_rmse_learned_w,
            )
        )


def cmd_run(args) -> int:
    cfg = args.experiment
    if cfg.learning_rate is None:
        print("error: run requires --rate (or rate= in the config file)", file=sys.stderr)
        return 2
    record = harness.run_experiment(cfg)
    paths = harness.write_run(record, _out_dir(args), cfg.run_name(record.rate))
    _print_record(record)
    for path in paths:
        print("wrote %s" % path)
    return 0


def cmd_grid(args) -> int:
    cfg = args.experiment
    out = _out_dir(args)
    written = []

    def save(record: harness.RunRecord):
        written.extend(harness.write_run(record, out, cfg.run_name(record.rate)))
        _print_record(record)

    try:
        best_rate, best = harness.grid_search(cfg, on_record=save)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("best rate %g (best-epoch NLL %.6f)" % (best_rate, best.best_nll))
    for path in written:
        print("wrote %s" % path)
    return 0


def cmd_synth(args) -> int:
    data, truth = harness.gen_synthetic(args.spec)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.names) + ["target"])
        for i in range(data.n):
            writer.writerow(
                [repr(float(v)) for v in data.features[i]]
                + [repr(float(data.targets[i]))]
            )
    truth_path = out.with_suffix(".truth.json")
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")
    print("wrote %s (%d rows) and %s" % (out, data.n, truth_path))
    return 0


def cmd_table(args) -> int:
    run_dir = Path(args.dir) if args.dir else harness.default_results_dir()
    docs = []
    for path in sorted(run_dir.glob("*.json")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if doc.get("format") == "stochgp-run":
            docs.append(doc)
    if not docs:
        print("error: no run files found in %s" % run_dir, file=sys.stderr)
        return 1
    rows = harness.assemble_table(docs)
    header = ["dataset", "batch_size"] + list(harness.OPTIMIZERS)
    widths = [max(len(col), max(len(str(row[col])) for row in rows)) for col in header]
    print("  ".join(col.ljust(w) for col, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(row[col]).ljust(w) for col, w in zip(header, widths)))
    for label, batch_size, opt, counts in harness.divergence_reasons(docs):
        why = "; ".join(
            "%s (%d run%s)" % (reason, k, "" if k == 1 else "s") for reason, k in counts.items()
        )
        print("%s, batch %d, %s diverged: %s" % (label, batch_size, opt, why))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print("wrote %s" % args.out)
    return 0


def _self_checks():
    """Yield (name, passed, detail) for the built-in consistency identities."""
    rng = np.random.default_rng(7)

    worst = 0.0
    for _ in range(20):
        m, k = int(rng.integers(2, 30)), int(rng.integers(1, 12))
        V = rng.normal(size=(m, k))
        b = rng.normal(size=m)
        lam = float(rng.uniform(0.1, 2.0))
        lhs, rhs = ridge_identity_check(V, b, lam)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    yield "matrix-determinant ridge identity (20 instances)", worst < 1e-8, (
        "worst relative error %.2e" % worst
    )

    fmap = MLPMap(MLPSpec(3, (4, 2)))
    params = fmap.init_params(0)
    n = 6
    X = rng.normal(size=(n, 3))
    y = rng.normal(size=n)
    theta = HyperParams(rng.normal(size=2) * 0.5, params, 0.7)

    total = sum(sample_loss_term(fmap, theta, X[i], y[i], n) for i in range(n))
    F = sum(sample_info_term(fmap, theta, X[i], n) for i in range(n))
    err = abs(total + logdet_psd(F) - full_loss(fmap, theta, X, y))
    yield "per-sample loss decomposition", err < 1e-10, "absolute error %.2e" % err

    Z = fmap.forward(params, X).Z
    w_hat = ridge_closed_form(Z, y, theta.noise_variance)
    at_min = full_loss(fmap, HyperParams(w_hat, params, theta.noise_variance), X, y)
    oracle = exact_nll_oracle(fmap, params, theta.noise_variance, X, y)
    rel = abs(at_min - oracle) / max(abs(oracle), 1.0)
    yield "ridge minimum equals covariance-form NLL", rel < 1e-8, (
        "relative error %.2e" % rel
    )

    G = rng.normal(size=(2, 2))
    A = G @ G.T + 1.5 * np.eye(2)
    B = rng.normal(size=(2, 2)) * 0.3
    zeta = AugmentedState(theta, A)
    penalty = 0.8

    def theta_objective(w):
        z = AugmentedState(HyperParams(w, params, theta.noise_variance), A)
        return sum(
            minimax_sample_objective(fmap, z, B, X[i], y[i], n, penalty)
            for i in range(n)
        )

    g_theta, _, _ = minimax_batch_grads(fmap, zeta, B, X, y, n, penalty)
    h = 1e-6
    rel_worst = 0.0
    for j in range(theta.weights.shape[0]):
        w_plus = theta.weights.copy()
        w_plus[j] += h
        w_minus = theta.weights.copy()
        w_minus[j] -= h
        fd = (theta_objective(w_plus) - theta_objective(w_minus)) / (2 * h)
        rel_worst = max(rel_worst, abs(g_theta.weights[j] - fd) / max(abs(fd), 1e-8))
    yield "penalized objective gradient spot check", rel_worst < 1e-4, (
        "worst relative error %.2e" % rel_worst
    )

    ok = True
    for _ in range(200):
        raw = AugmentedState(
            HyperParams(
                rng.normal(size=2) * 10,
                params,
                float(rng.uniform(1e-9, 2.0)),
            ),
            symmetrize(rng.normal(size=(2, 2)) * 2.0),
        )
        proj = project_primal(raw, 1e-2, 1e3, 1e3)
        again = project_primal(proj, 1e-2, 1e3, 1e3)
        eigs = np.linalg.eigvalsh(proj.info_surrogate)
        feas = (
            proj.theta.noise_variance >= 1e-4 - 1e-12
            and eigs.min() >= proj.theta.noise_variance - 1e-9
            and bool(np.all(np.abs(proj.theta.weights) <= 1e3 + 1e-9))
        )
        same = (
            np.linalg.norm(again.theta.weights - proj.theta.weights) < 1e-12
            and abs(again.theta.noise_variance - proj.theta.noise_variance) < 1e-12
            and np.linalg.norm(again.info_surrogate - proj.info_surrogate) < 1e-12
        )
        Braw = rng.normal(size=(2, 2)) * 3
        Bp = project_dual_ball(Braw)
        in_ball = np.linalg.norm(Bp, "fro") <= 1.0 + 1e-12
        fixed = np.linalg.norm(project_dual_ball(Bp) - Bp) < 1e-12
        ok = ok and feas and same and in_ball and fixed
    yield "projection feasibility and idempotence (200 states)", ok, ""

    state = scgd_init(fmap, theta, X)
    full = np.arange(n)
    s_next = scgd_step(fmap, state, X, y, full, 1e-3, 1.0)
    b_next = bsgd_step(fmap, theta, X, y, full, 1e-3)
    gap = (
        np.linalg.norm(s_next.theta.weights - b_next.weights)
        + np.linalg.norm(s_next.theta.feature_params.flat - b_next.feature_params.flat)
        + abs(s_next.theta.noise_variance - b_next.noise_variance)
    )
    yield "full-batch optimizer coincidence", gap < 1e-12, "parameter gap %.2e" % gap


def cmd_check(args) -> int:
    del args
    # which LAPACK/BLAS build and thread setting the numbers below come from
    threads = (
        "%s=%s" % (var, os.environ.get(var, "unset"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )
    print(
        "linalg: LAPACK %s, BLAS %s; %s"
        % (_linalg._flapack.__file__, _linalg._fblas.__file__, ", ".join(threads))
    )
    failures = 0
    for name, passed, detail in _self_checks():
        tag = "ok" if passed else "FAIL"
        suffix = (" - " + detail) if detail else ""
        print("[%s] %s%s" % (tag, name, suffix))
        if not passed:
            failures += 1
    if failures:
        print("%d check(s) failed" % failures, file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="stochgp",
        description=(
            "Stochastic hyperparameter learning for feature-map Gaussian "
            "process regression."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one experiment at a fixed learning rate")
    _add_experiment_flags(p_run)
    p_run.add_argument("--rate", type=float, help="learning rate")
    p_run.set_defaults(func=cmd_run)

    p_grid = sub.add_parser("grid", help="sweep a learning-rate grid, keep the best")
    _add_experiment_flags(p_grid)
    p_grid.add_argument(
        "--grid", help="comma-separated rates (default %s)" % (harness.DEFAULT_GRID,)
    )
    p_grid.set_defaults(func=cmd_grid)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset to CSV")
    p_synth.add_argument(
        "--spec",
        required=True,
        help="n=...,p=...,d=...,sigma2=...,kind=linear|mlp[,seed=...,hidden=...]",
    )
    p_synth.add_argument("--out", required=True, help="CSV output path")
    p_synth.set_defaults(func=cmd_synth)

    p_table = sub.add_parser("table", help="merge saved runs into a comparison table")
    p_table.add_argument("--dir", help="directory of run JSON files")
    p_table.add_argument("--out", help="also write the table as CSV here")
    p_table.set_defaults(func=cmd_table)

    p_check = sub.add_parser("check", help="run built-in consistency checks")
    p_check.set_defaults(func=cmd_check)

    return parser, {"run": p_run, "grid": p_grid}


def main(argv=None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    probe, _ = parser.parse_known_args(args_list)
    try:
        if getattr(probe, "config", None) and probe.command in subparsers:
            # install the file's values as defaults on the chosen subcommand so
            # an explicit flag still overrides them (the subcommand re-applies
            # its own defaults while parsing, so the top-level parser's defaults
            # would be clobbered)
            parser, subparsers = build_parser()
            subparsers[probe.command].set_defaults(**read_config_file(probe.config))
        args = parser.parse_args(args_list)
        # a bad value is a usage error like a missing flag, not a crash
        if args.command in subparsers:
            args.experiment = _config_from_args(args)
        elif args.command == "synth":
            args.spec = _parse_synth(args.spec)
    except (ValueError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        # a missing --data file, which only the run itself opens
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
