"""Command-line front end: run, grid, synth, table, check.

``run`` executes one experiment at a fixed learning rate, ``grid`` sweeps a
rate grid and keeps the best run, ``synth`` writes a synthetic dataset to
CSV, ``table`` merges saved run files into a comparison table (and says why
each cell that reads "diverged" diverged), and ``check`` runs the
consistency identities of :mod:`stochgp.oracles` (imported only then) after a
line naming the LAPACK and BLAS extension files and BLAS thread settings they
run on.

The experiment flags of ``run`` and ``grid`` are the fields of
``harness.ExperimentConfig``, which declares each setting's name, type,
default and checks once; this module derives the flags, their parsers and
the config-file keys from it. Every experiment flag can instead come from a
``key = value`` config file (``--config``); explicit command-line flags win
over file values. Results go
to --out, else the directory named by the STOCHGP_RESULTS_DIR environment
variable, else ./results.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import Field, fields
from pathlib import Path
from types import UnionType
from typing import Callable, Literal, NamedTuple, get_args, get_origin, get_type_hints

from stochgp import _linalg, harness


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
    kw: dict = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" not in tok:
            raise ValueError("synth spec entries must be key=value, got %r" % tok)
        key, val = (part.strip() for part in tok.split("=", 1))
        if key in ("n", "p", "d", "seed", "hidden"):
            kw["mlp_hidden" if key == "hidden" else key] = int(val)
        elif key == "sigma2":
            kw[key] = float(val)
        elif key == "kind":
            kw["map_kind"] = val
        else:
            raise ValueError("unknown synth spec key: %r" % key)
    for required in ("n", "p", "d", "sigma2"):
        if required not in kw:
            raise ValueError("synth spec is missing %s" % required)
    return harness.SynthSpec(**kw)


# fields whose flag is not the field name in kebab-case
_FLAG_NAMES = {"data_path": "data", "feature_map": "map", "learning_rate": "rate"}


class _Setting(NamedTuple):
    field: Field
    parse: Callable[[str], object]
    choices: tuple[str, ...] | None


def _settings() -> dict[str, _Setting]:
    """Each ExperimentConfig field, keyed by its flag name with underscores."""
    hints = get_type_hints(harness.ExperimentConfig)
    parsers = {bool: _parse_bool, tuple[float, ...]: _parse_grid, harness.SynthSpec: _parse_synth}
    out = {}
    for f in fields(harness.ExperimentConfig):
        hint = hints[f.name]
        if isinstance(hint, UnionType):  # X | None
            (hint,) = set(get_args(hint)) - {type(None)}
        choices = get_args(hint) if get_origin(hint) is Literal else None
        parse = str if choices else parsers.get(hint, hint)
        out[_FLAG_NAMES.get(f.name, f.name)] = _Setting(f, parse, choices)
    return out


_SETTINGS = _settings()


def read_config_file(path) -> dict:
    """Parse a key=value config file into flag defaults.

    Blank lines and lines starting with # are skipped. Keys are the flag
    names with underscores (e.g. ``batch_size = 64``), ``out`` included.
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
            if key not in _SETTINGS and key != "out":
                raise ValueError("%s line %d: unknown key %r" % (path, lineno, key))
            try:
                out[key] = _SETTINGS[key].parse(val) if key in _SETTINGS else val
            except ValueError as exc:
                raise ValueError("%s line %d: %s" % (path, lineno, exc)) from None
    return out


_EXPERIMENT_HELP = (
    "Each flag sets the harness.ExperimentConfig field of its name in kebab-case"
    " (--data sets data_path, --map feature_map, --rate learning_rate); exactly one"
    " of --data and --synth is required, and --synth takes the spec of 'synth --spec'."
    " A --config file sets the same settings (and --out) as 'key = value' lines,"
    " keyed by the flag name with underscores."
)


def _add_experiment_flags(p: argparse.ArgumentParser, omit: str):
    """One flag per setting but ``omit``; an unset flag leaves no attribute."""
    p.add_argument("--config", help="key=value config file; flags override it")
    for key, (f, parse, choices) in _SETTINGS.items():
        if key == omit:
            continue
        flag = "--" + key.replace("_", "-")
        doc = None if f.default is None else "default: %s" % (f.default,)
        if parse is _parse_bool:
            p.add_argument(flag, action="store_true", default=argparse.SUPPRESS, help=doc)
        else:
            # argparse's own error for a bad number names the flag; the other
            # parsers run in _config_from_args, so their message is printed as is
            p.add_argument(
                flag,
                type=parse if parse in (int, float) else None,
                choices=choices,
                default=argparse.SUPPRESS,
                help=doc,
            )
    p.add_argument(
        "--out",
        help="results directory (default: $%s or ./results)" % harness.RESULTS_DIR_ENV,
    )


def _config_from_args(args) -> harness.ExperimentConfig:
    given = vars(args)
    return harness.ExperimentConfig(
        **{
            f.name: parse(given[key]) if isinstance(given[key], str) else given[key]
            for key, (f, parse, _) in _SETTINGS.items()
            if key in given
        }
    )


def _out_dir(args) -> Path:
    """The results directory, checked before training; write_run makes it after."""
    out = Path(args.out) if args.out else harness.default_results_dir()
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise NotADirectoryError("results directory %s: %s is not a directory" % (out, nearest))
    return out


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
    out = _out_dir(args)
    record = harness.run_experiment(cfg)
    paths = harness.write_run(record, out, cfg.run_name(record.rate))
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
    edge = harness.grid_edge(cfg.grid, best_rate)
    if edge:
        print("best rate is the %s in the grid: a rate beyond it may do better" % edge)
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
        if not isinstance(doc, dict) or doc.get("format") != "stochgp-run":
            continue
        try:
            harness.assemble_table([doc])  # reads every key the table reads
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("%s: incomplete run file (%r)" % (path, exc)) from None
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


def cmd_check(args) -> int:
    del args
    from stochgp.oracles import self_checks

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
    for name, passed, detail in self_checks():
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochgp",
        description=(
            "Stochastic hyperparameter learning for feature-map Gaussian "
            "process regression."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="one experiment at a fixed learning rate", description=_EXPERIMENT_HELP
    )
    _add_experiment_flags(p_run, omit="grid")
    p_run.set_defaults(func=cmd_run)

    p_grid = sub.add_parser(
        "grid", help="sweep a learning-rate grid, keep the best", description=_EXPERIMENT_HELP
    )
    _add_experiment_flags(p_grid, omit="rate")
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

    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse a command line; ``run`` and ``grid`` get ``args.experiment``.

    A ``--config`` file's values go under the flags given: an experiment
    flag left unset leaves no attribute, and ``--out`` is None.
    """
    args = build_parser().parse_args(argv)
    if args.command in ("run", "grid"):
        if args.config:
            for key, value in read_config_file(args.config).items():
                if getattr(args, key, None) is None:
                    setattr(args, key, value)
        args.experiment = _config_from_args(args)
    elif args.command == "synth":
        args.spec = _parse_synth(args.spec)
    return args


def main(argv=None) -> int:
    # bad input is a usage error, not a crash: a bad flag or config value, a
    # path that cannot be read or written, data that do not load (an unknown
    # target column, a bad cell, a ragged row). Past loading, a run records a
    # failing step as a divergence instead of raising, so a ValueError or
    # OSError here names an input.
    try:
        args = parse_args(list(sys.argv[1:] if argv is None else argv))
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``stochgp check | head -3``); point stdout at
        # devnull so the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
