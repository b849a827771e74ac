"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import stochgp
from stochgp import harness
from stochgp.cli import (
    _parse_bool,
    _parse_grid,
    _parse_synth,
    main,
    parse_args,
    read_config_file,
)
from stochgp.data import load_csv
from stochgp.harness import ExperimentConfig


SYNTH = "n=100,p=3,d=3,sigma2=0.4,kind=linear,seed=5"

# a non-default value for every ExperimentConfig field: (text, parsed value);
# text None marks a switch, set by its bare flag or "key = true" in a file
FIELD_VALUES = {
    "data_path": ("d.csv", "d.csv"),
    "target": ("y", "y"),
    "synth": (SYNTH, _parse_synth(SYNTH)),
    "feature_map": ("mlp", "mlp"),
    "mlp_hidden": ("7", 7),
    "mlp_out": ("5", 5),
    "rff_dim": ("10", 10),
    "rff_u1": ("2.5", 2.5),
    "rff_u2": ("3.5", 3.5),
    "optimizer": ("scgd", "scgd"),
    "batch_size": ("4", 4),
    "epochs": ("3", 3),
    "learning_rate": ("0.01", 0.01),
    "grid": ("0.1,0.2", (0.1, 0.2)),
    "schedule": ("polynomial", "polynomial"),
    "b0": ("0.5", 0.5),
    "dual_rate": ("0.2", 0.2),
    "penalty": ("2.0", 2.0),
    "sigma_min": ("0.01", 0.01),
    "coord_bound": ("10.0", 10.0),
    "eig_bound": ("100.0", 100.0),
    "init_sigma2": ("0.5", 0.5),
    "share_batch": (None, True),
    "streaming_init": (None, True),
    "batch_mode": ("shuffle", "shuffle"),
    "train_fraction": ("0.5", 0.5),
    "split_seed": ("1", 1),
    "init_seed": ("2", 2),
    "batch_seed": ("3", 3),
    "name": ("x", "x"),
}
# the fields whose flag is not the field name in kebab-case
RENAMED = {"data_path": "data", "feature_map": "map", "learning_rate": "rate"}


def _run_json(out_dir):
    files = sorted(out_dir.glob("*.json"))
    assert files, "no run JSON written"
    return json.loads(files[0].read_text())


class TestParsers:
    def test_parse_bool(self):
        assert _parse_bool("true") and _parse_bool("1") and _parse_bool("Yes")
        assert not _parse_bool("false") and not _parse_bool("off")
        with pytest.raises(ValueError, match="boolean"):
            _parse_bool("maybe")

    def test_parse_grid(self):
        assert _parse_grid("1e-3, 1e-2") == (1e-3, 1e-2)
        with pytest.raises(ValueError, match="grid"):
            _parse_grid(" , ")

    def test_parse_synth(self):
        spec = _parse_synth("n=10,p=2,d=4,sigma2=0.5,kind=mlp,seed=7,hidden=6")
        assert (spec.n, spec.p, spec.d) == (10, 2, 4)
        assert spec.map_kind == "mlp"
        assert spec.mlp_hidden == 6

    def test_parse_synth_rejects_bad_input(self):
        with pytest.raises(ValueError, match="missing"):
            _parse_synth("n=10,p=2,d=2")
        with pytest.raises(ValueError, match="unknown synth spec key"):
            _parse_synth("n=10,p=2,d=2,sigma2=1,bogus=3")
        with pytest.raises(ValueError, match="key=value"):
            _parse_synth("n=10,p=2,d=2,sigma2")


class TestConfigFile:
    def test_reads_keys_and_skips_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "\n"
            "batch_size = 4\n"
            "rate = 1e-3\n"
            "share_batch = true\n"
            "optimizer = bsgd\n"
        )
        vals = read_config_file(cfg)
        assert vals == {
            "batch_size": 4,
            "rate": 1e-3,
            "share_batch": True,
            "optimizer": "bsgd",
        }

    def test_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("momentum = 0.9\n")
        with pytest.raises(ValueError, match="unknown key"):
            read_config_file(cfg)

    def test_rejects_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            read_config_file(cfg)


class TestFlagsFromConfigFields:
    def test_table_covers_every_field_with_a_non_default_value(self):
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        assert set(FIELD_VALUES) == set(defaults)
        for name, (_, value) in FIELD_VALUES.items():
            assert value != defaults[name], name

    @pytest.mark.parametrize("name", list(FIELD_VALUES))
    def test_field_is_set_by_its_flag_and_its_config_key(self, tmp_path, name):
        text, value = FIELD_VALUES[name]
        key = RENAMED.get(name, name)
        command = "grid" if name == "grid" else "run"
        source = [] if name in ("data_path", "synth") else ["--synth", SYNTH]
        flag = ["--" + key.replace("_", "-")] + ([] if text is None else [text])
        by_flag = parse_args([command] + source + flag).experiment
        cfg = tmp_path / "one.cfg"
        cfg.write_text("%s = %s\n" % (key, "true" if text is None else text))
        by_file = parse_args([command, "--config", str(cfg)] + source).experiment
        assert getattr(by_flag, name) == value
        assert getattr(by_file, name) == value

    def test_unset_flags_leave_the_dataclass_defaults(self):
        args = parse_args(["run", "--synth", SYNTH, "--rate", "0.003"])
        assert args.experiment == ExperimentConfig(synth=_parse_synth(SYNTH), learning_rate=0.003)


class TestSynthCommand:
    def test_writes_loadable_csv_and_truth(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        code = main(["synth", "--spec", SYNTH, "--out", str(out)])
        assert code == 0
        data = load_csv(out, "target")
        assert data.features.shape == (100, 3)
        truth = json.loads(out.with_suffix(".truth.json").read_text())
        assert truth["sigma2"] == 0.4
        assert "wrote" in capsys.readouterr().out


class TestRunCommand:
    def test_synthetic_run_writes_results(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(
            [
                "run",
                "--synth", SYNTH,
                "--optimizer", "scgd",
                "--batch-size", "8",
                "--epochs", "2",
                "--rate", "1e-3",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = _run_json(out)
        assert doc["config"]["optimizer"] == "scgd"
        assert doc["rate"] == 1e-3
        assert len(list(out.glob("*_epochs.csv"))) == 1
        assert "best epoch" in capsys.readouterr().out

    def test_csv_dataset_run(self, tmp_path):
        data_csv = tmp_path / "toy.csv"
        main(["synth", "--spec", SYNTH, "--out", str(data_csv)])
        out = tmp_path / "res"
        code = main(
            [
                "run",
                "--data", str(data_csv),
                "--target", "target",
                "--optimizer", "bsgd",
                "--batch-size", "16",
                "--epochs", "2",
                "--rate", "1e-3",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = _run_json(out)
        assert doc["config"]["data_path"] == str(data_csv)

    def test_missing_rate_fails(self, tmp_path, capsys):
        code = main(["run", "--synth", SYNTH, "--out", str(tmp_path)])
        assert code == 2
        assert "requires --rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--synth", SYNTH, "--map", "mlp+rff", "--rff-dim", "999"],
                "rff_dim must be a positive even",
            ),
            (["--synth", SYNTH, "--epochs", "0"], "epochs must be at least 1"),
            (["--synth", SYNTH, "--config", "{tmp}/bad.cfg"], "unknown key 'momentum'"),
            (["--synth", SYNTH, "--config", "{tmp}/missing.cfg"], "missing.cfg"),
            (["--data", "{tmp}/missing.csv"], "no such CSV file"),
            (
                ["--synth", SYNTH, "--sigma-min", "1.0", "--eig-bound", "0.5"],
                "eig_bound = 0.5 is below sigma_min**2 = 1",
            ),
            (["--synth", SYNTH, "--rate", "-0.01"], "learning_rate must be finite and positive"),
            (["--synth", SYNTH, "--rate", "nan"], "learning_rate must be finite and positive"),
            (
                ["--synth", SYNTH, "--optimizer", "scgd", "--init-sigma2", "-1"],
                "init_sigma2 must be finite and positive",
            ),
            (
                ["--synth", SYNTH, "--optimizer", "bsgd", "--init-sigma2", "-1"],
                "init_sigma2 must be finite and positive",
            ),
            (
                ["--synth", SYNTH, "--map", "mlp+rff", "--rff-dim", "4", "--rff-u1", "-1"],
                "rff_u1 must be finite and positive",
            ),
            (
                ["--synth", SYNTH, "--map", "mlp", "--mlp-hidden", "0"],
                "mlp_hidden and mlp_out must be at least 1",
            ),
            (
                ["--synth", SYNTH, "--train-fraction", "nan"],
                "train_fraction must lie strictly between 0 and 1",
            ),
            (["--synth", "n=10,p=2,d=2"], "synth spec is missing sigma2"),
            (["--synth", SYNTH, "--batch-size", "0"], "batch_size must be at least 1"),
            (["--synth", SYNTH, "--grid", " , "], "empty learning-rate grid: ' , '"),
            (["--data", "{tmp}"], "Is a directory"),
            (["--synth", SYNTH, "--config", "{tmp}"], "Is a directory"),
            (["--synth", SYNTH, "--name", "sub/dir"], "must not contain a path separator"),
            (
                ["--synth", SYNTH, "--grid", "1e-3,1e-2", "--name", "../escape"],
                "must not contain a path separator",
            ),
            (["--synth", SYNTH, "--grid", "1e-3,1e-3,3e-3"], "grid names 0.001 more than once"),
        ],
    )
    def test_invalid_config_is_a_usage_error(self, tmp_path, capsys, argv, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("momentum = 0.9\n")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        out = tmp_path / "res"
        command = ["grid"] if "--grid" in argv else ["run", "--rate", "1e-3"]
        code = main(command + ["--out", str(out)] + argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, target, message",
        [
            ("a,target\n1,2\n3,4\n", "z", "target column 'z' absent from header"),
            ("a,target\n1,2\n3,x\n", "target", "non-numeric cell at line 3, column 'target'"),
            ("a,target\n1,2\n3\n", "target", "line 3 has 1 cells, header has 2"),
            ("a,target\n1,2\n3,4\n", "2", "target column index 2 out of range for 2 columns"),
            ("target\n1\n2\n3\n4\n5\n", "target", "dataset has no feature columns, only the target"),
        ],
    )
    def test_data_that_do_not_load_are_a_usage_error(self, tmp_path, capsys, body, target, message):
        data_csv = tmp_path / "bad.csv"
        data_csv.write_text(body)
        out = tmp_path / "res"
        code = main(
            ["run", "--data", str(data_csv), "--target", target, "--rate", "1e-3", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_that_is_a_file_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args):
            raise AssertionError("trained before the results directory was checked")

        monkeypatch.setattr(harness, "_train", no_training)
        taken = tmp_path / "taken"
        taken.write_text("")
        for command in (["run", "--rate", "1e-3"], ["grid"]):
            for out in (taken, taken / "res"):
                code = main(command + ["--synth", SYNTH, "--out", str(out)])
                assert code == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "is not a directory" in err
                assert "Traceback" not in err
        assert taken.read_text() == ""

    def test_target_by_position(self, tmp_path):
        data_csv = tmp_path / "toy.csv"
        main(["synth", "--spec", SYNTH, "--out", str(data_csv)])
        out = tmp_path / "res"
        argv = ["run", "--data", str(data_csv), "--epochs", "1", "--rate", "1e-3", "--out", str(out)]
        assert main(argv + ["--target", "3"]) == 0
        by_position = _run_json(out)
        assert by_position["config"]["target"] == "3"
        assert main(argv + ["--target", "target", "--name", "by-name"]) == 0
        by_name = json.loads(next(out.glob("by-name*.json")).read_text())
        assert by_position["best"] == by_name["best"]

    def test_invalid_synth_spec_is_a_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--spec", "n=10,p=2,d=2", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "synth spec is missing sigma2" in capsys.readouterr().err

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("STOCHGP_RESULTS_DIR", str(target))
        code = main(
            [
                "run",
                "--synth", SYNTH,
                "--epochs", "1",
                "--batch-size", "32",
                "--rate", "1e-3",
            ]
        )
        assert code == 0
        assert list(target.glob("*.json"))

    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "synth = %s\noptimizer = bsgd\nbatch_size = 4\nepochs = 2\nrate = 1e-3\n"
            % SYNTH
        )
        out = tmp_path / "res"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        doc = _run_json(out)
        assert doc["config"]["optimizer"] == "bsgd"
        assert doc["config"]["batch_size"] == 4

    def test_explicit_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "synth = %s\nbatch_size = 4\nepochs = 2\nrate = 1e-3\n" % SYNTH
        )
        out = tmp_path / "res"
        code = main(
            ["run", "--config", str(cfg), "--batch-size", "2", "--out", str(out)]
        )
        assert code == 0
        doc = _run_json(out)
        assert doc["config"]["batch_size"] == 2


class TestGridCommand:
    def test_sweep_writes_all_rates_and_reports_best(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(
            [
                "grid",
                "--synth", SYNTH,
                "--optimizer", "scgd",
                "--batch-size", "8",
                "--epochs", "2",
                "--grid", "1e-3,1e-2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(list(out.glob("*.json"))) == 2
        out = capsys.readouterr().out
        assert "best rate" in out
        # of two rates, the best is always one end of the grid
        assert "best rate is the " in out

    @pytest.mark.parametrize(
        "grid, chosen, edge",
        [
            ("1e-3,1e-2,1e-1", 1e-3, "smallest"),
            ("1e-3,1e-2,1e-1", 1e-1, "largest"),
            ("1e-3,1e-2,1e-1", 1e-2, None),
            ("1e-2", 1e-2, None),
        ],
        ids=["smallest", "largest", "interior", "single"],
    )
    def test_best_rate_at_an_end_of_its_grid_is_flagged(
        self, tmp_path, capsys, monkeypatch, grid, chosen, edge
    ):
        # a best rate at an end is bracketed from one side only
        def sweep(cfg, on_record=None):
            return chosen, harness.RunRecord(config={}, rate=chosen, best_nll=1.0)

        monkeypatch.setattr(harness, "grid_search", sweep)
        args = ["grid", "--synth", SYNTH, "--grid", grid, "--out", str(tmp_path)]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "best rate %g (best-epoch NLL 1.000000)" % chosen
        flag = "best rate is the %s in the grid: a rate beyond it may do better" % edge
        assert lines[1:] == ([flag] if edge else [])

    def test_all_diverged_exits_nonzero(self, tmp_path, capsys):
        code = main(
            [
                "grid",
                "--synth", SYNTH,
                "--optimizer", "scgd",
                "--batch-size", "8",
                "--epochs", "2",
                "--grid", "1e8,1e9",
                "--out", str(tmp_path / "res"),
            ]
        )
        assert code == 1
        assert "diverged" in capsys.readouterr().err


class TestTableCommand:
    def test_merges_runs(self, tmp_path, capsys):
        out = tmp_path / "res"
        for opt in ("scgd", "bsgd"):
            main(
                [
                    "run",
                    "--synth", SYNTH,
                    "--optimizer", opt,
                    "--batch-size", "8",
                    "--epochs", "1",
                    "--rate", "1e-3",
                    "--out", str(out),
                ]
            )
        capsys.readouterr()
        table_csv = tmp_path / "table.csv"
        code = main(["table", "--dir", str(out), "--out", str(table_csv)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "scgd" in printed and "bsgd" in printed
        lines = table_csv.read_text().strip().splitlines()
        assert lines[0] == "dataset,batch_size,minimax,scgd,bsgd"
        assert len(lines) == 2

    def test_says_why_a_cell_diverged(self, tmp_path, capsys):
        out = tmp_path / "res"
        for opt, rate in (("scgd", "1e30"), ("bsgd", "1e-3")):
            code = main(
                [
                    "run",
                    "--synth", SYNTH,
                    "--optimizer", opt,
                    "--batch-size", "8",
                    "--epochs", "1",
                    "--rate", rate,
                    "--out", str(out),
                ]
            )
            assert code == 0
        diverged = json.loads(next(out.glob("*scgd*.json")).read_text())
        reason = diverged["diverge_reason"]
        assert reason.startswith("FloatingPointError: ")
        # the same cell at another split seed, saved before runs kept a reason
        old = {k: v for k, v in diverged.items() if not k.startswith("diverge_")}
        old["config"] = dict(old["config"], split_seed=1)
        (out / "old.json").write_text(json.dumps(old))
        capsys.readouterr()
        table_csv = tmp_path / "table.csv"
        assert main(["table", "--dir", str(out), "--out", str(table_csv)]) == 0
        printed = capsys.readouterr().out.splitlines()
        label = "synth-linear-n100-p3-d3"
        assert "%s, batch 8, scgd diverged: %s (1 run); reason not recorded (1 run)" % (
            label,
            reason,
        ) in printed
        assert not [line for line in printed if "bsgd diverged" in line]
        lines = table_csv.read_text().strip().splitlines()
        assert lines[1].startswith("%s,8,,diverged," % label)

    def _one_run(self, out):
        argv = ["run", "--synth", SYNTH, "--epochs", "1", "--rate", "1e-3", "--out", str(out)]
        assert main(argv) == 0

    def test_skips_json_that_is_not_an_object(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._one_run(out)
        (out / "list.json").write_text("[1, 2]")
        (out / "number.json").write_text("3")
        capsys.readouterr()
        assert main(["table", "--dir", str(out)]) == 0
        assert "synth-linear-n100-p3-d3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "drop, message",
        [(("best",), "KeyError('best')"), (("config", "optimizer"), "KeyError('optimizer')")],
    )
    def test_incomplete_run_file_is_a_usage_error(self, tmp_path, capsys, drop, message):
        out = tmp_path / "res"
        self._one_run(out)
        doc = _run_json(out)
        owner = doc
        for key in drop[:-1]:
            owner = owner[key]
        del owner[drop[-1]]
        bad = out / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["table", "--dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % bad) and message in err
        assert "Traceback" not in err

    def test_empty_dir_exits_nonzero(self, tmp_path, capsys):
        code = main(["table", "--dir", str(tmp_path)])
        assert code == 1
        assert "no run files" in capsys.readouterr().err


class TestClosedStdout:
    def test_reader_closing_early_ends_without_traceback(self):
        # as in `stochgp check | head -1`: the lines after the first go to a
        # pipe whose reader is gone
        src = str(Path(stochgp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "stochgp.cli", "check"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first.startswith(b"linalg: ")
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


class TestCheckCommand:
    def test_all_checks_pass(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        code = main(["check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "[FAIL]" not in out
        # the first line names the bound extensions and the thread setting
        lapack = sys.modules["scipy.linalg._flapack"].__file__
        blas = sys.modules["scipy.linalg._fblas"].__file__
        assert out.splitlines()[0] == (
            "linalg: LAPACK %s, BLAS %s; OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=unset"
            % (lapack, blas)
        )

    def test_check_names(self, capsys):
        assert main(["check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split("] ", 1)[1].split(" - ", 1)[0] for line in lines if line[:1] == "["]
        assert names == [
            "matrix-determinant ridge identity (20 instances)",
            "per-sample loss decomposition",
            "ridge minimum equals covariance-form NLL",
            "penalized objective gradient spot check",
            "projection feasibility and idempotence (200 states)",
            "full-batch optimizer coincidence",
            "random Fourier frequencies equal the scipy.stats.qmc draw",
            "random Fourier features agree with libm cos/sin within 4 eps",
        ]
