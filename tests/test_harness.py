"""Tests for the experiment harness: synthesis, runs, grids, and tables."""

import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import stochgp.objective
from instances import covariance_draw_csv
from stochgp._linalg import spd_inverse
from stochgp.data import load_csv, split, standardize
from stochgp.features import ComposedMap, LinearMap, MLPMap, MLPSpec, RFFMap
from stochgp.harness import (
    DEFAULT_GRID,
    ExperimentConfig,
    SynthSpec,
    _draw_epoch,
    _Evaluator,
    _test_predictions,
    assemble_table,
    build_feature_map,
    config_from_dict,
    divergence_reasons,
    gen_synthetic,
    grid_search,
    run_experiment,
    write_run,
)
from stochgp.objective import HyperParams, _row_blocks, info_matrix
from stochgp.oracles import exact_nll_oracle, grad_theta_of_linearized
from stochgp.predict import posterior, rmse


class TestSynthSpec:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="at least 1"):
            SynthSpec(n=0, p=2, d=2, sigma2=1.0)
        with pytest.raises(ValueError, match="positive"):
            SynthSpec(n=4, p=0, d=2, sigma2=1.0)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError, match="sigma2"):
            SynthSpec(n=4, p=2, d=2, sigma2=0.0)

    def test_identity_features_need_matching_dims(self):
        with pytest.raises(ValueError, match="d == p"):
            SynthSpec(n=4, p=2, d=3, sigma2=1.0, map_kind="linear")

    def test_rejects_unknown_map(self):
        with pytest.raises(ValueError, match="map_kind"):
            SynthSpec(n=4, p=2, d=2, sigma2=1.0, map_kind="rff")


class TestGenSynthetic:
    def test_deterministic_per_seed(self):
        spec = SynthSpec(n=50, p=3, d=3, sigma2=0.5, seed=9)
        a, truth_a = gen_synthetic(spec)
        b, truth_b = gen_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)
        assert truth_a == truth_b

    def test_draw_seed_redraws_targets_only(self):
        spec = SynthSpec(n=30, p=2, d=2, sigma2=0.5, seed=4)
        a, _ = gen_synthetic(spec, draw_seed=1)
        b, _ = gen_synthetic(spec, draw_seed=2)
        np.testing.assert_array_equal(a.features, b.features)
        assert np.linalg.norm(a.targets - b.targets) > 1e-6

    def test_mlp_kind_shapes_and_truth(self):
        spec = SynthSpec(n=40, p=3, d=5, sigma2=0.7, map_kind="mlp", seed=2, mlp_hidden=4)
        data, truth = gen_synthetic(spec)
        assert data.features.shape == (40, 3)
        assert truth["map_kind"] == "mlp"
        # the recorded parameters must be the ones that generated the draw
        assert len(truth["feature_flat"]) == 3 * 4 + 4 + 4 * 5 + 5

    def test_dominant_noise_sets_the_variance(self):
        # with sigma2 >> z.z the marginal variance is sigma2 + E z.z,
        # so the empirical variance should land within a few percent
        spec = SynthSpec(n=4096, p=2, d=2, sigma2=400.0, seed=0)
        data, _ = gen_synthetic(spec)
        expected = 400.0 + float(np.mean(np.sum(data.features**2, axis=1)))
        got = float(data.targets.var())
        assert abs(got - expected) / expected < 0.05

    def test_covariance_matches_monte_carlo(self):
        # small fixed covariance, many independent target redraws
        spec = SynthSpec(n=3, p=2, d=2, sigma2=0.8, seed=6)
        data, _ = gen_synthetic(spec)
        Z = data.features  # identity feature map
        C = Z @ Z.T + 0.8 * np.eye(3)
        reps = 50_000
        draws = np.empty((reps, 3))
        for r in range(reps):
            draws[r] = gen_synthetic(spec, draw_seed=r)[0].targets
        emp = (draws.T @ draws) / reps
        se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / reps)
        assert np.all(np.abs(emp - C) <= 3.0 * se)

    @settings(max_examples=60)
    @given(
        mlp=st.booleans(),
        n=st.integers(1, 40),
        p=st.integers(1, 5),
        hidden=st.integers(1, 6),
        d=st.integers(1, 8),
        sigma2=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
        draw_seed=st.none() | st.integers(0, 2**32 - 1),
    )
    def test_targets_are_the_weight_space_draw(self, mlp, n, p, hidden, d, sigma2, seed, draw_seed):
        # y = Z g + sqrt(sigma2) e, with g the first d and e the next n normals
        # of the target stream: spec.seed's after the inputs, or draw_seed's
        kind = "mlp" if mlp else "linear"
        d = d if mlp else p
        spec = SynthSpec(n=n, p=p, d=d, sigma2=sigma2, map_kind=kind, seed=seed, mlp_hidden=hidden)
        data, truth = gen_synthetic(spec, draw_seed)
        fmap = MLPMap(MLPSpec(p, (hidden, d))) if mlp else LinearMap(p)
        params = np.asarray(truth["feature_flat"])
        Z = fmap.forward(params, data.features).Z
        if draw_seed is None:
            stream = np.random.default_rng(seed)
            stream.normal(size=(n, p))  # the inputs
        else:
            stream = np.random.default_rng(draw_seed)
        g = stream.standard_normal(d)
        e = stream.standard_normal(n)
        np.testing.assert_array_equal(data.targets, Z @ g + math.sqrt(sigma2) * e)


class TestExperimentConfig:
    def test_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(
                data_path="x.csv", synth=SynthSpec(n=4, p=2, d=2, sigma2=1.0)
            )

    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            ExperimentConfig(
                synth=SynthSpec(n=4, p=2, d=2, sigma2=1.0), epochs=0
            )

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="grid"):
            ExperimentConfig(
                synth=SynthSpec(n=4, p=2, d=2, sigma2=1.0), grid=()
            )

    def test_rejects_a_repeated_grid_rate(self):
        spec = SynthSpec(n=4, p=2, d=2, sigma2=1.0)
        # 1e-3 and 0.001 are one float: a grid naming it twice would train it twice
        for grid in ((1e-3, 1e-3, 3e-3), (3e-3, 1e-3, 0.001)):
            with pytest.raises(ValueError, match="grid names 0.001 more than once"):
                ExperimentConfig(synth=spec, grid=grid)
        assert ExperimentConfig(synth=spec, grid=(3e-3, 1e-3)).grid == (3e-3, 1e-3)

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError, match="optimizer"):
            ExperimentConfig(
                synth=SynthSpec(n=4, p=2, d=2, sigma2=1.0), optimizer="adam"
            )

    def test_rejects_unknown_schedule_and_batch_mode(self):
        spec = SynthSpec(n=4, p=2, d=2, sigma2=1.0)
        with pytest.raises(ValueError, match="schedule"):
            ExperimentConfig(synth=spec, schedule="cosine")
        with pytest.raises(ValueError, match="batch_mode"):
            ExperimentConfig(synth=spec, batch_mode="sorted")

    def test_rejects_odd_or_zero_rff_dim(self):
        spec = SynthSpec(n=4, p=2, d=2, sigma2=1.0)
        for dim in (999, 0):
            with pytest.raises(ValueError, match="cos/sin"):
                ExperimentConfig(synth=spec, feature_map="mlp+rff", rff_dim=dim)
        # the width is only checked when random features are in use
        ExperimentConfig(synth=spec, feature_map="mlp", rff_dim=999)

    @pytest.mark.parametrize("name", ["eig_bound", "coord_bound"])
    def test_rejects_bound_below_noise_floor(self, name):
        spec = SynthSpec(n=4, p=2, d=2, sigma2=1.0)
        with pytest.raises(ValueError, match=r"%s = 0.5 is below sigma_min\*\*2 = 1" % name):
            ExperimentConfig(synth=spec, sigma_min=1.0, **{name: 0.5})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"learning_rate": -0.01}, "learning_rate must be finite and positive, got -0.01"),
            ({"learning_rate": 0.0}, "learning_rate must be finite and positive"),
            ({"learning_rate": math.nan}, "learning_rate must be finite and positive, got nan"),
            ({"learning_rate": math.inf}, "learning_rate must be finite and positive"),
            ({"grid": (math.nan, 1e-3)}, "grid rate must be finite and positive, got nan"),
            ({"grid": (1e-3, -1e-3)}, "grid rate must be finite and positive"),
            ({"b0": 0.0}, "b0 must be finite and positive"),
            ({"b0": math.nan}, "b0 must be finite and positive"),
            ({"b0": 1.5}, r"constant averaging weight must lie in \(0, 1\]"),
            ({"init_sigma2": -1.0}, "init_sigma2 must be finite and positive, got -1.0"),
            ({"init_sigma2": math.inf}, "init_sigma2 must be finite and positive"),
            ({"rff_u1": -1.0, "feature_map": "mlp+rff", "rff_dim": 4}, "rff_u1 must be"),
            ({"rff_u2": math.nan, "feature_map": "mlp+rff", "rff_dim": 4}, "rff_u2 must be"),
            ({"mlp_hidden": 0, "feature_map": "mlp"}, "mlp_hidden and mlp_out must be at least 1"),
            ({"mlp_out": 0, "feature_map": "mlp+rff", "rff_dim": 4}, "at least 1, got 128 and 0"),
            ({"train_fraction": 0.0}, "train_fraction must lie strictly between 0 and 1"),
            ({"train_fraction": 1.0}, "train_fraction must lie strictly between 0 and 1"),
            ({"train_fraction": math.nan}, "train_fraction must lie strictly between 0 and 1"),
            ({"name": "sub/dir"}, "name 'sub/dir' must not contain a path separator"),
            ({"name": "../escape"}, "must not contain a path separator"),
        ],
    )
    def test_rejects_bad_values(self, fields, message):
        spec = SynthSpec(n=4, p=2, d=2, sigma2=1.0)
        for optimizer in ("minimax", "scgd", "bsgd"):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(synth=spec, optimizer=optimizer, **fields)

    def test_accepts_values_their_setting_ignores(self):
        spec = SynthSpec(n=4, p=2, d=2, sigma2=1.0)
        # the MLP widths are read only by an MLP map, and the polynomial
        # schedule caps the averaging weight at 1 itself
        ExperimentConfig(synth=spec, feature_map="linear", mlp_hidden=0, mlp_out=0)
        ExperimentConfig(synth=spec, schedule="polynomial", b0=1.5)

    def test_default_grid(self):
        cfg = ExperimentConfig(synth=SynthSpec(n=4, p=2, d=2, sigma2=1.0))
        assert cfg.grid == DEFAULT_GRID


class TestDrawEpoch:
    def test_shuffle_covers_every_index_once(self):
        batches = _draw_epoch(23, 5, "shuffle", np.random.default_rng(8))
        assert len(batches) == 5  # ceil(23/5)
        np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(23))

    @pytest.mark.parametrize("mode", ["shuffle", "replacement"])
    def test_deterministic(self, mode):
        a = _draw_epoch(12, 4, mode, np.random.default_rng(1))
        b = _draw_epoch(12, 4, mode, np.random.default_rng(1))
        for x, y in zip(a, b, strict=True):
            assert np.array_equal(x, y)

    @settings(max_examples=200)
    @given(
        n=st.integers(1, 300),
        s=st.integers(1, 400),
        mode=st.sampled_from(["shuffle", "replacement"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batches_cover_the_epoch_in_range(self, n, s, mode, seed):
        batches = _draw_epoch(n, s, mode, np.random.default_rng(seed))
        assert len(batches) == -(-n // s)
        flat = np.concatenate(batches)
        assert flat.min() >= 0 and flat.max() < n
        assert all(1 <= batch.size <= s for batch in batches)
        if mode == "shuffle":
            np.testing.assert_array_equal(np.sort(flat), np.arange(n))

    def test_replacement_draws_are_sample_batch_draws(self):
        # each batch is one rng.integers(0, n, size=s, dtype=np.int64) call;
        # stored records depend on the generator being consumed exactly so
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        batches = _draw_epoch(50, 8, "replacement", rng_a)
        assert len(batches) == 7
        for batch in batches:
            assert batch.dtype == np.int64
            np.testing.assert_array_equal(batch, rng_b.integers(0, 50, size=8, dtype=np.int64))
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)

    def test_single_row_population_is_forced(self):
        batches = _draw_epoch(1, 3, "replacement", np.random.default_rng(0))
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], [0, 0, 0])

    def test_uniform_frequencies(self):
        # n=4, s=1, 40k draws: each index within 3 standard errors of 1/4
        rng = np.random.default_rng(2024)
        draws = np.concatenate(
            [batch for _ in range(10000) for batch in _draw_epoch(4, 1, "replacement", rng)]
        )
        freq = np.bincount(draws, minlength=4) / 40000.0
        se = np.sqrt(0.25 * 0.75 / 40000.0)
        assert np.all(np.abs(freq - 0.25) < 3 * se), freq


# the log-u1 overflow recipe's data, read as its covariance-factor draw
RECIPE_SPEC = SynthSpec(n=200, p=3, d=3, sigma2=0.3, seed=5)
# a diverged scgd run's reason when its step could not factor the tracker
TRACKER_NPD = (
    "NotPositiveDefiniteError: tracked information matrix at iteration %d:"
    " not positive definite (failing pivot %d)"
)
# scgd on the blow-up recipe: (draw, rate, reason before the tracker's
# eigenvalues, diverge_step), or a run that finishes its 3 epochs
SCGD_RECIPE = [
    ("weight", 1e-3, None, None),
    ("weight", 1e-2, None, None),
    ("weight", 0.1, TRACKER_NPD % (4, 3), 5),
    ("weight", 1.0, TRACKER_NPD % (4, 3), 5),
    ("weight", 1e2, TRACKER_NPD % (3, 3), 4),
    ("covariance", 1e-3, None, None),
    ("covariance", 1e-2, None, None),
    ("covariance", 0.1, TRACKER_NPD % (5, 3), 6),
    ("covariance", 1.0, TRACKER_NPD % (4, 2), 5),
    ("covariance", 1e2, TRACKER_NPD % (3, 2), 4),
]


def _small_cfg(**overrides):
    base = dict(
        synth=SynthSpec(n=120, p=4, d=4, sigma2=0.5, seed=3),
        optimizer="scgd",
        batch_size=8,
        epochs=3,
        learning_rate=1e-3,
        split_seed=1,
        init_seed=2,
        batch_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _record_signature(rec):
    return (
        rec.rate,
        rec.diverged,
        rec.best_epoch,
        rec.best_nll,
        rec.test_rmse_marginal,
        rec.test_rmse_learned_w,
        tuple(rec.best_weights),
        tuple(rec.best_feature_flat),
        rec.best_noise_variance,
        tuple((e["epoch"], e["nll"]) for e in rec.epochs),
    )


class TestRunExperiment:
    def test_requires_a_rate(self):
        cfg = _small_cfg(learning_rate=None)
        with pytest.raises(ValueError, match="learning rate"):
            run_experiment(cfg)

    def test_epoch_trace_structure(self):
        rec = run_experiment(_small_cfg())
        assert [e["epoch"] for e in rec.epochs] == [1, 2, 3]
        assert all(e["wall_ms"] >= 0.0 for e in rec.epochs)
        assert all(math.isfinite(e["nll"]) for e in rec.epochs)
        assert rec.to_json_dict()["nll_kind"] == "exact"

    def test_best_epoch_is_argmin_of_trace(self):
        rec = run_experiment(_small_cfg(epochs=5))
        nlls = [e["nll"] for e in rec.epochs]
        assert rec.best_nll == min(nlls)
        assert rec.best_epoch == int(np.argmin(nlls)) + 1

    @pytest.mark.parametrize("opt", ["minimax", "scgd", "bsgd"])
    def test_bitwise_deterministic(self, opt):
        cfg = _small_cfg(optimizer=opt)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert _record_signature(a) == _record_signature(b)

    def test_config_echo_round_trips(self):
        cfg = _small_cfg(optimizer="minimax", share_batch=True)
        rec = run_experiment(cfg)
        rebuilt = config_from_dict(rec.config)
        assert rebuilt == cfg
        again = run_experiment(rebuilt)
        assert _record_signature(again) == _record_signature(rec)

    def test_shuffle_mode_runs_and_differs(self):
        a = run_experiment(_small_cfg())
        b = run_experiment(_small_cfg(batch_mode="shuffle"))
        assert a.best_nll != b.best_nll

    def test_minimax_streaming_and_shared_batch(self):
        rec = run_experiment(
            _small_cfg(optimizer="minimax", streaming_init=True, share_batch=True)
        )
        assert math.isfinite(rec.best_nll)

    def test_huge_rate_is_recorded_as_diverged(self):
        rec = run_experiment(_small_cfg(learning_rate=1e8, epochs=4))
        assert rec.diverged
        assert rec.best_nll == math.inf
        assert rec.epochs[-1]["nll"] == math.inf
        assert math.isnan(rec.test_rmse_marginal)

    def test_rff_scale_overflow_is_recorded_as_diverged(self, tmp_path):
        # minimax at this rate steps log u1 past ~709, where exp overflows
        cfg = ExperimentConfig(
            data_path=covariance_draw_csv(RECIPE_SPEC, tmp_path),
            feature_map="mlp+rff",
            mlp_hidden=4,
            mlp_out=3,
            rff_dim=20,
            batch_mode="shuffle",
            batch_size=16,
            optimizer="minimax",
            learning_rate=0.1,
            epochs=3,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run_experiment(cfg)
        assert rec.diverged
        assert rec.best_nll == math.inf

    def test_diverge_reason_names_the_failing_step(self, tmp_path):
        # the log-u1 overflow recipe above: the step that raises says why
        cfg = ExperimentConfig(
            data_path=covariance_draw_csv(RECIPE_SPEC, tmp_path),
            feature_map="mlp+rff",
            mlp_hidden=4,
            mlp_out=3,
            rff_dim=20,
            batch_mode="shuffle",
            batch_size=16,
            optimizer="minimax",
            learning_rate=0.1,
            epochs=3,
        )
        rec = run_experiment(cfg)
        assert rec.diverge_reason.startswith("ValueError: ")
        assert "log u1" in rec.diverge_reason
        assert rec.diverge_epoch == len(rec.epochs)
        # shuffle mode: ceil(180 / 16) = 12 steps an epoch
        assert 12 * (rec.diverge_epoch - 1) < rec.diverge_step <= 12 * rec.diverge_epoch

    def test_diverge_reason_for_exploding_gradient(self):
        rec = run_experiment(_small_cfg(learning_rate=1e8, epochs=4))
        assert rec.diverge_reason.startswith("gradient norm ")
        assert rec.diverge_reason.endswith(" above 1e12")
        assert float(rec.diverge_reason.split()[2]) > 1e12
        # an evaluation failure counts at the epoch's last step: 108 rows, batch 8
        assert rec.diverge_step == 14 * rec.diverge_epoch

    def test_scgd_blow_up_names_its_overflow(self, tmp_path):
        # scgd has no coordinate box: past the recipe's rates its step
        # overflows under the step loop's errstate, and the reason is that
        # overflow, not a later symptom
        cfg = ExperimentConfig(
            data_path=covariance_draw_csv(SynthSpec(n=60, p=2, d=2, sigma2=0.5, seed=0), tmp_path),
            feature_map="mlp",
            mlp_hidden=3,
            mlp_out=3,
            batch_size=8,
            optimizer="scgd",
            learning_rate=1e12,
            epochs=3,
        )
        rec = run_experiment(cfg)
        assert rec.diverged
        assert rec.diverge_reason == (
            "FloatingPointError: overflow encountered in matmul; tracker eigenvalues"
            " -4.93e+27 to 1.65e+45, so rounding decides its factorization"
        )
        assert (rec.diverge_epoch, rec.diverge_step) == (1, 3)

    @pytest.mark.parametrize(
        "draw, rate, head, step", SCGD_RECIPE, ids=["%s-%g" % case[:2] for case in SCGD_RECIPE]
    )
    def test_scgd_blow_up_names_the_trackers_conditioning(self, draw, rate, head, step, tmp_path):
        # the blow-up recipe on both draws: the tracker is factored once, and
        # a step that raises leaves a reason ending in the last tracker's
        # extreme eigenvalues, here always past where rounding decides
        spec = SynthSpec(n=60, p=2, d=2, sigma2=0.5, seed=0)
        if draw == "weight":
            data = {"synth": spec}
        else:
            data = {"data_path": covariance_draw_csv(spec, tmp_path)}
        cfg = ExperimentConfig(
            **data,
            feature_map="mlp",
            mlp_hidden=3,
            mlp_out=3,
            batch_size=8,
            optimizer="scgd",
            learning_rate=rate,
            epochs=3,
        )
        rec = run_experiment(cfg)
        if head is None:
            assert not rec.diverged and len(rec.epochs) == 3
            return
        found = re.fullmatch(
            re.escape(head) + r"; tracker eigenvalues (\S+) to (\S+),"
            r" so rounding decides its factorization",
            rec.diverge_reason,
        )
        assert found, rec.diverge_reason
        lo, hi = map(float, found.groups())
        assert lo <= 0.0 or hi * np.finfo(np.float64).eps > lo
        assert (rec.diverge_epoch, rec.diverge_step) == (1, step)

    @pytest.mark.parametrize("rate", [1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    def test_bsgd_blow_up_names_the_swamped_shift(self, rate):
        # bsgd inverts Z^T Z + (s s2/n) I; once the parameters grow, rounding
        # of order eps max|Z|^2 swamps that shift and the factorization fails
        cfg = ExperimentConfig(
            synth=SynthSpec(n=60, p=2, d=2, sigma2=0.5, seed=0),
            feature_map="mlp",
            mlp_hidden=3,
            mlp_out=3,
            batch_size=8,
            optimizer="bsgd",
            learning_rate=rate,
            epochs=3,
        )
        reason = run_experiment(cfg).diverge_reason
        found = re.fullmatch(
            r"NotPositiveDefiniteError: batch information matrix: not positive definite"
            r" \(failing pivot \d\); largest \|feature\| (\S+), diagonal shift s\*s2/n (\S+)",
            reason,
        )
        assert found, reason
        feature, shift = map(float, found.groups())
        assert np.finfo(np.float64).eps * feature * feature > shift

    def test_diverge_reason_for_non_finite_nll(self, monkeypatch):
        monkeypatch.setattr(_Evaluator, "nll", lambda self, theta: (math.nan, 0.0, None))
        rec = run_experiment(_small_cfg())
        assert rec.diverged
        assert (rec.diverge_reason, rec.diverge_epoch, rec.diverge_step) == (
            "non-finite NLL",
            1,
            14,
        )

    def test_scgd_evaluation_failure_names_no_tracker(self, monkeypatch):
        # the tracker clause is scgd_step's own, so an evaluation that raises
        # after a clean scgd epoch keeps its class and message bare
        def raising(self, theta):
            raise np.linalg.LinAlgError("evaluation information matrix is singular")

        monkeypatch.setattr(_Evaluator, "nll", raising)
        rec = run_experiment(_small_cfg())
        assert (rec.diverge_reason, rec.diverge_epoch, rec.diverge_step) == (
            "non-finite NLL: LinAlgError: evaluation information matrix is singular",
            1,
            14,
        )

    @pytest.mark.parametrize(
        "optimizer, reason, step",
        [
            # the steps pin the weights and MLP parameters at coord_bound 1e6,
            # where Z^T Z + s2 I is numerically singular at evaluation
            (
                "minimax",
                "non-finite NLL: NotPositiveDefiniteError: evaluation information matrix:"
                " not positive definite",
                34,
            ),
            # bsgd inverts its batch information sum inside the step
            (
                "bsgd",
                "NotPositiveDefiniteError: batch information matrix: not positive definite",
                3,
            ),
        ],
        ids=["minimax", "bsgd"],
    )
    def test_failed_factorization_names_its_matrix(self, optimizer, reason, step):
        cfg = ExperimentConfig(
            synth=SynthSpec(n=300, p=3, d=4, sigma2=0.5, map_kind="mlp", mlp_hidden=4),
            feature_map="mlp",
            mlp_hidden=8,
            mlp_out=4,
            optimizer=optimizer,
            learning_rate=10.0,
            epochs=3,
            batch_size=8,
        )
        rec = run_experiment(cfg)
        assert rec.diverge_reason.startswith(reason + " (failing pivot ")
        assert (rec.diverge_epoch, rec.diverge_step) == (1, step)
        assert rec.epochs[-1]["nll"] == math.inf

    def test_minimax_blow_up_names_the_box(self):
        # test_05's minimax/s8 cell at rate 1e-4: the projection holds every
        # weight, MLP parameter and the noise variance at coord_bound, and
        # the first evaluation cannot factor; the reason says so, once
        cfg = ExperimentConfig(
            synth=SynthSpec(n=2048, p=16, d=16, sigma2=16.0, seed=42),
            feature_map="mlp",
            mlp_hidden=4,
            mlp_out=16,
            optimizer="minimax",
            batch_size=8,
            epochs=2,
            learning_rate=1e-4,
            train_fraction=0.99,
        )
        rec = run_experiment(cfg)
        # all 165: 16 weights, 16*4 + 4 + 4*16 + 16 MLP parameters, the noise variance
        assert rec.diverge_reason == (
            "non-finite NLL: NotPositiveDefiniteError: evaluation information matrix:"
            " not positive definite (failing pivot 2); 165 parameters at coord_bound 1e+06"
        )
        assert (rec.diverge_epoch, rec.diverge_step) == (1, 254)

    def test_overflowing_step_names_the_floating_point_fault(self):
        # scgd at this rate overflows a matmul in the seventh step; the step
        # raises instead of warning and handing an inf to the next check
        before = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = run_experiment(_small_cfg(learning_rate=1e30))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert rec.diverged
        assert rec.diverge_reason.startswith("FloatingPointError: overflow")
        assert (rec.diverge_epoch, rec.diverge_step) == (1, 7)
        assert np.geterr() == before

    def test_finished_run_has_no_diverge_reason(self):
        doc = run_experiment(_small_cfg()).to_json_dict()
        assert not doc["diverged"]
        assert doc["diverge_reason"] is doc["diverge_epoch"] is doc["diverge_step"] is None

    def test_large_train_set_is_evaluated_on_every_row(self):
        # 2250 training rows: the best NLL is the kernel-form value over all
        # of them, and the marginal test RMSE is that of the posterior mean,
        # both at the record's best parameters
        cfg = ExperimentConfig(
            synth=SynthSpec(n=2500, p=3, d=3, sigma2=0.5, seed=1),
            optimizer="bsgd",
            batch_size=64,
            epochs=1,
            learning_rate=1e-3,
        )
        rec = run_experiment(cfg)
        assert rec.to_json_dict()["nll_kind"] == "exact"
        train_raw, test_raw = split(gen_synthetic(cfg.synth)[0], cfg.train_fraction, cfg.split_seed)
        train, scaler = standardize(train_raw)
        X, y, n = train.features, train.targets, train.n
        assert n > 2000
        fmap = build_feature_map(cfg, X.shape[1])
        params = np.asarray(rec.best_feature_flat)
        s2 = rec.best_noise_variance
        raw = exact_nll_oracle(fmap, params, s2, X, y)
        assert rec.best_nll == pytest.approx((raw + n * math.log(2 * math.pi)) / (2 * n), rel=1e-10)
        mean = posterior(fmap, params, s2, X, y, scaler.transform(test_raw).features).mean
        expected = rmse(scaler.inverse_targets(mean), test_raw.targets)
        assert rec.test_rmse_marginal == pytest.approx(expected, rel=1e-12, abs=0)

    def test_rmse_is_computed_on_raw_target_scale(self):
        # targets scaled by 100: a run on the scaled copy must report
        # RMSE roughly 100x the unscaled one, since records unstandardize
        spec = SynthSpec(n=120, p=4, d=4, sigma2=0.5, seed=3)
        rec = run_experiment(_small_cfg())
        data, _ = gen_synthetic(spec)
        assert rec.test_rmse_marginal > 0.0
        # sanity: the marginal prediction cannot be worse than predicting 0
        # by more than the target spread itself
        _, test_raw = split(data, 0.9, 1)
        spread = float(np.sqrt(np.mean(test_raw.targets**2)))
        assert rec.test_rmse_marginal < 3.0 * spread

    def test_small_batch_scgd_matches_full_batch_reference(self):
        # compositional updates at s=8 should reach the same optimum that
        # the plain full-batch method finds with every row per step
        spec = SynthSpec(n=512, p=8, d=8, sigma2=8.0, seed=11)
        scgd_best = math.inf
        for rate in (1e-2, 3e-2):
            cfg = ExperimentConfig(
                synth=spec,
                optimizer="scgd",
                batch_size=8,
                epochs=100,
                learning_rate=rate,
                schedule="polynomial",
            )
            scgd_best = min(scgd_best, run_experiment(cfg).best_nll)
        full_best = math.inf
        for rate in (1e-3, 3e-3):
            cfg = ExperimentConfig(
                synth=spec,
                optimizer="bsgd",
                batch_size=512,
                epochs=100,
                learning_rate=rate,
                schedule="polynomial",
            )
            full_best = min(full_best, run_experiment(cfg).best_nll)
        assert abs(scgd_best - full_best) <= 0.05


# best_nll and best weights of five two-epoch runs. They pin the arithmetic of
# the step rules: a change that keeps it reproduces them to rounding, and one
# that alters it must say how the records moved and record them again. Their
# data is GOLDEN_SPEC's covariance-factor draw (instances.covariance_draw_csv)
GOLDEN_SPEC = SynthSpec(n=40, p=2, d=3, sigma2=0.5, map_kind="mlp", mlp_hidden=4, seed=11)
GOLDEN = {
    "minimax": (
        dict(optimizer="minimax", learning_rate=1e-3),
        1.4267318954979302,
        [0.019446655624223787, 0.16361459488596514, 0.09320435373882026, -0.10728156568346277],
    ),
    "scgd": (
        dict(optimizer="scgd", learning_rate=1e-2),
        1.3883244384545794,
        [0.04197728394762015, -0.1044223820442155, 0.31952060253504594, -0.15598958557470935],
    ),
    "bsgd": (
        dict(optimizer="bsgd", learning_rate=1e-2),
        1.3401169101310375,
        [0.032231765915163496, -0.12240821421173759, 0.3325062237535988, -0.16516042756120763],
    ),
    "scgd-mlp+rff": (
        dict(optimizer="scgd", learning_rate=1e-2, feature_map="mlp+rff", rff_dim=4),
        1.4247737088764565,
        [-0.11980552221633975, 0.03585521101437786, -0.24383484570729513, 0.20175118251789922],
    ),
    # the primal rate decays every step, the surrogate starts from one batch
    # and batches come from per-epoch shuffles
    "minimax-polynomial-streaming-shuffle": (
        dict(
            optimizer="minimax",
            learning_rate=1e-2,
            schedule="polynomial",
            streaming_init=True,
            batch_mode="shuffle",
        ),
        1.6003676729102843,
        [1.3290658440102785, 0.9640389995957478, -1.1767146870562215, 1.352931021447196],
    ),
}


class TestGoldenRecords:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_records_are_unchanged(self, case, tmp_path):
        overrides, nll, weights = GOLDEN[case]
        base = dict(
            data_path=covariance_draw_csv(GOLDEN_SPEC, tmp_path),
            feature_map="mlp",
            mlp_hidden=3,
            mlp_out=4,
            batch_size=8,
            epochs=2,
        )
        rec = run_experiment(ExperimentConfig(**{**base, **overrides}))
        assert not rec.diverged
        assert rec.best_nll == pytest.approx(nll, rel=1e-12, abs=0)
        np.testing.assert_allclose(rec.best_weights, weights, rtol=1e-12, atol=0)


class TestNllNormalization:
    def test_reported_value_matches_direct_formula(self):
        cfg = _small_cfg(epochs=1, learning_rate=1e-300, optimizer="bsgd")
        rec = run_experiment(cfg)
        # a vanishing rate leaves parameters at initialization, so the trace
        # holds the NLL of the initial model; recompute it independently
        data, _ = gen_synthetic(cfg.synth)
        train_raw, _ = split(data, cfg.train_fraction, cfg.split_seed)
        train, _ = standardize(train_raw)
        fmap = build_feature_map(cfg, train.features.shape[1])
        params = fmap.init_params(cfg.init_seed)
        n = train.n
        raw = exact_nll_oracle(
            fmap, params, cfg.init_sigma2, train.features, train.targets
        )
        expected = (raw + n * math.log(2 * math.pi)) / (2 * n)
        assert rec.epochs[0]["nll"] == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=60)
    @given(
        mlp=st.booleans(),
        n=st.integers(1, 30),
        p=st.integers(1, 6),
        hidden=st.integers(1, 6),
        d=st.integers(1, 40),
        s2=st.floats(0.2, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fused_pass_matches_kernel_oracle(self, mlp, n, p, hidden, d, s2, seed):
        # one d x d factorization gives both numbers, d > n included; s2 >= 0.2
        # keeps the normalized NLL away from zero so a relative bound is fair
        rng = np.random.default_rng(seed)
        fmap = MLPMap(MLPSpec(p, (hidden, d))) if mlp else LinearMap(p)
        d = fmap.output_dim
        theta = HyperParams(rng.normal(size=d), fmap.init_params(seed), s2)
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        nll, grad_norm, w = _Evaluator(fmap, X, y).nll(theta)

        raw = exact_nll_oracle(fmap, theta.feature_params, s2, X, y)
        assert nll == pytest.approx((raw + n * math.log(2 * math.pi)) / (2 * n), rel=1e-10)
        F = info_matrix(fmap, theta, X)
        Zty = fmap.forward(theta.feature_params, X).Z.T @ y
        scale = np.linalg.norm(F) * np.linalg.norm(w) + np.linalg.norm(Zty)
        assert np.linalg.norm(F @ w - Zty) <= 1e-11 * scale
        M = spd_inverse(F)
        expected = np.linalg.norm(grad_theta_of_linearized(fmap, theta, X, y, M, n))
        assert grad_norm == pytest.approx(expected, rel=1e-10)


def _blocked_passes(fmap, theta, X, y, X_test, y_test):
    """info_matrix, (NLL, probe norm) and the two test RMSEs at theta."""
    nll, probe, w = _Evaluator(fmap, X, y).nll(theta)
    marginal, learned = _test_predictions(fmap, theta, w, X_test)
    return info_matrix(fmap, theta, X), nll, probe, rmse(marginal, y_test), rmse(learned, y_test)


class TestBlockedPasses:
    @staticmethod
    def _peak_bytes(n):
        # d = 64 MLP: 1024-row blocks, so 2048 rows make 2 blocks and 16384 make 16
        rng = np.random.default_rng(0)
        fmap = MLPMap(MLPSpec(8, (64, 64)))
        X, y = rng.normal(size=(n, 8)), rng.normal(size=n)
        X_test = rng.normal(size=(256, 8))
        theta = HyperParams(rng.normal(size=64), fmap.init_params(0), 0.5)
        evaluator = _Evaluator(fmap, X, y)
        tracemalloc.start()
        try:
            info_matrix(fmap, theta, X)
            w = evaluator.nll(theta)[2]
            _test_predictions(fmap, theta, w, X_test)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_the_rows(self):
        # whole-matrix passes peak at about 8x more on 8x the rows
        small, large = self._peak_bytes(2048), self._peak_bytes(16384)
        assert large <= 1.3 * small, (small, large)

    def test_whole_run_peak_grows_as_the_data(self):
        # one epoch of scgd on test_05's data and map shape; the first run
        # warms one-time allocations. From 1024 to 4096 rows the peak grew by
        # 4.9x the growth of the data's own bytes (n (p + 1) float64s); a draw
        # through the n x n covariance and its factor made that about 600x
        def peak(n):
            cfg = ExperimentConfig(
                synth=SynthSpec(n=n, p=16, d=16, sigma2=16.0),
                feature_map="mlp",
                mlp_hidden=4,
                mlp_out=16,
                optimizer="scgd",
                epochs=1,
                learning_rate=1e-3,
            )
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)
        small, large = peak(1024), peak(4096)
        assert large - small <= 6 * (4096 - 1024) * 17 * 8, (small, large)

    @settings(max_examples=60)
    @given(
        kind=st.sampled_from(["linear", "mlp", "mlp+rff"]),
        rows=st.integers(1, 8),
        blocks=st.floats(0.1, 4.0),
        p=st.integers(1, 6),
        hidden=st.integers(1, 6),
        d=st.integers(1, 24),
        s2=st.floats(0.2, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_small_blocks_match_one_block(self, kind, rows, blocks, p, hidden, d, s2, seed):
        # n runs from one row to about four blocks, d > n included; s2 >= 0.2
        # keeps the normalized NLL away from zero so a relative bound is fair
        n = max(1, round(blocks * rows))
        rng = np.random.default_rng(seed)
        if kind == "linear":
            fmap = LinearMap(p)
        elif kind == "mlp":
            fmap = MLPMap(MLPSpec(p, (hidden, d)))
        else:
            outer = RFFMap(hidden, 2 * d, seed % 1000)
            fmap = ComposedMap(outer, MLPMap(MLPSpec(p, (hidden, hidden))))
        d = fmap.output_dim
        theta = HyperParams(rng.normal(size=d), fmap.init_params(seed), s2)
        X, y = rng.normal(size=(n, p)), rng.normal(size=n)
        X_test, y_test = rng.normal(size=(n + 3, p)), rng.normal(size=n + 3)

        assert len(_row_blocks(n, d)) == 1
        whole = _blocked_passes(fmap, theta, X, y, X_test, y_test)
        counts = []

        def forced(n, d, rows=None, _rows=rows):
            out = _row_blocks(n, d, _rows)
            counts.append(len(out))
            return out

        with mock.patch.object(stochgp.objective, "_row_blocks", forced):
            blocked = _blocked_passes(fmap, theta, X, y, X_test, y_test)
        assert -(-n // rows) in counts and -(-(n + 3) // rows) in counts

        F, F_whole = blocked[0], whole[0]
        assert np.linalg.norm(F - F_whole) <= 1e-12 * np.linalg.norm(F_whole)
        for value, reference in zip(blocked[1:], whole[1:]):
            assert value == pytest.approx(reference, rel=1e-12, abs=0)
        raw = exact_nll_oracle(fmap, theta.feature_params, s2, X, y)
        assert blocked[1] == pytest.approx((raw + n * math.log(2 * math.pi)) / (2 * n), rel=1e-10)


class TestGridSearch:
    def test_singleton_grid(self):
        cfg = _small_cfg(grid=(1e-3,), learning_rate=None)
        rate, rec = grid_search(cfg)
        assert rate == 1e-3
        assert rec.rate == 1e-3

    def test_diverging_rate_is_skipped(self):
        cfg = _small_cfg(grid=(1e8, 1e-3), learning_rate=None, epochs=2)
        rate, rec = grid_search(cfg)
        assert rate == 1e-3
        assert not rec.diverged

    def test_all_diverged_raises(self):
        cfg = _small_cfg(grid=(1e8, 1e9), learning_rate=None, epochs=2)
        with pytest.raises(RuntimeError, match="diverged"):
            grid_search(cfg)

    def test_ties_go_to_the_smaller_rate(self, monkeypatch):
        import stochgp.harness as hmod

        calls = []

        def fake_train(cfg, prep, rate):
            calls.append(rate)
            rec = hmod.RunRecord(config={}, rate=rate)
            rec.best_nll = 1.0
            rec.best_epoch = 1
            return rec

        # every rate of a grid goes through the per-rate trainer
        monkeypatch.setattr(hmod, "_train", fake_train)
        cfg = _small_cfg(grid=(3e-2, 1e-3, 1e-2), learning_rate=None)
        rate, rec = hmod.grid_search(cfg)
        assert calls == [1e-3, 1e-2, 3e-2]
        assert rate == 1e-3

    def test_grid_loads_once_and_matches_single_runs(self, tmp_path, monkeypatch):
        import stochgp.harness as hmod

        data, _ = gen_synthetic(SynthSpec(n=90, p=3, d=3, sigma2=0.5, seed=4))
        path = tmp_path / "grid.csv"
        rows = ["c0,c1,c2,target"] + [
            ",".join(repr(float(v)) for v in (*x, t))
            for x, t in zip(data.features, data.targets)
        ]
        path.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig(
            data_path=str(path),
            optimizer="minimax",
            feature_map="mlp",
            mlp_hidden=4,
            mlp_out=3,
            batch_size=8,
            epochs=2,
            grid=(1e-3, 1e-2, 1e8),
            split_seed=1,
            init_seed=2,
            batch_seed=3,
        )
        loads = []

        def counting_load(*args, **kwargs):
            loads.append(args)
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(hmod, "load_csv", counting_load)
        seen = []
        grid_search(cfg, on_record=seen.append)
        assert len(loads) == 1

        def comparable(rec):
            doc = rec.to_json_dict()
            doc["epochs"] = [{k: v for k, v in e.items() if k != "wall_ms"} for e in doc["epochs"]]
            return json.dumps(doc, sort_keys=True)

        singles = [run_experiment(cfg, rate=rate) for rate in cfg.grid]
        assert len(loads) == 1 + len(cfg.grid)
        assert [comparable(r) for r in seen] == [comparable(r) for r in singles]

    def test_on_record_sees_every_rate(self):
        seen = []
        cfg = _small_cfg(grid=(1e-3, 1e-2), learning_rate=None, epochs=1)
        grid_search(cfg, on_record=seen.append)
        assert [r.rate for r in seen] == [1e-3, 1e-2]


class TestWriteRun:
    def test_writes_json_and_csv(self, tmp_path):
        rec = run_experiment(_small_cfg())
        json_path, csv_path = write_run(rec, tmp_path, "demo")
        doc = json.loads(json_path.read_text())
        assert doc["format"] == "stochgp-run"
        assert doc["best"]["nll"] == rec.best_nll
        assert doc["config"]["batch_size"] == 8
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "epoch,nll,wall_ms"
        assert len(lines) == 1 + len(rec.epochs)
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == rec.epochs[0]["nll"]

    def test_diverged_record_round_trips(self, tmp_path):
        rec = run_experiment(_small_cfg(learning_rate=1e8, epochs=2))
        json_path, _ = write_run(rec, tmp_path, "boom")
        doc = json.loads(json_path.read_text())
        assert doc["diverged"] is True
        assert doc["best"]["nll"] == math.inf
        assert doc["diverge_reason"] == rec.diverge_reason
        assert (doc["diverge_epoch"], doc["diverge_step"]) == (rec.diverge_epoch, rec.diverge_step)


def _fake_doc(dataset, batch, opt, seed, nll, rate=1e-3):
    synth = None
    data_path = None
    if dataset.startswith("synth"):
        synth = {"map_kind": "linear", "n": 100, "p": 3, "d": 3,
                 "sigma2": 0.5, "seed": 0, "mlp_hidden": 32}
    else:
        data_path = dataset + ".csv"
    return {
        "format": "stochgp-run",
        "config": {
            "data_path": data_path,
            "synth": synth,
            "batch_size": batch,
            "optimizer": opt,
            "split_seed": seed,
        },
        "rate": rate,
        "best": {"nll": nll},
    }


class TestAssembleTable:
    def test_groups_and_aggregates_over_seeds(self):
        docs = [
            _fake_doc("abalone", 8, "scgd", 0, 1.0),
            _fake_doc("abalone", 8, "scgd", 1, 2.0),
            _fake_doc("abalone", 8, "bsgd", 0, 3.0),
            _fake_doc("abalone", 64, "scgd", 0, 5.0),
        ]
        rows = assemble_table(docs)
        assert len(rows) == 2
        row8 = rows[0]
        assert row8["dataset"] == "abalone"
        assert row8["batch_size"] == 8
        assert row8["scgd"] == "1.5000±0.5000"
        assert row8["bsgd"] == "3.0000±0.0000"
        assert row8["minimax"] == ""

    def test_rate_sweeps_collapse_to_the_best(self):
        docs = [
            _fake_doc("abalone", 8, "scgd", 0, 4.0, rate=1e-3),
            _fake_doc("abalone", 8, "scgd", 0, 2.0, rate=1e-2),
        ]
        rows = assemble_table(docs)
        assert rows[0]["scgd"] == "2.0000±0.0000"

    def test_all_diverged_cell_is_labeled(self):
        docs = [_fake_doc("abalone", 8, "scgd", 0, math.inf)]
        rows = assemble_table(docs)
        assert rows[0]["scgd"] == "diverged"

    def test_divergence_reasons_cover_only_diverged_cells(self):
        def diverged(opt, seed, reason):
            doc = _fake_doc("abalone", 8, opt, seed, math.inf)
            if reason is not None:
                doc["diverge_reason"] = reason
            return doc

        docs = [
            diverged("scgd", 0, "non-finite NLL"),
            diverged("scgd", 1, "FloatingPointError: overflow encountered in matmul"),
            diverged("scgd", 2, "non-finite NLL"),
            diverged("minimax", 0, None),  # written before runs kept a reason
            # a diverged rate in a cell with a finished run is not a diverged cell
            diverged("bsgd", 0, "non-finite NLL"),
            _fake_doc("abalone", 8, "bsgd", 0, 1.0, rate=1e-2),
        ]
        assert divergence_reasons(docs) == [
            ("abalone", 8, "minimax", {"reason not recorded": 1}),
            (
                "abalone",
                8,
                "scgd",
                {"non-finite NLL": 2, "FloatingPointError: overflow encountered in matmul": 1},
            ),
        ]
        cells = assemble_table(docs)[0]
        assert (cells["minimax"], cells["scgd"]) == ("diverged", "diverged")
        assert cells["bsgd"] == "1.0000±0.0000"

    def test_synthetic_dataset_label(self):
        rows = assemble_table([_fake_doc("synth", 8, "scgd", 0, 1.0)])
        assert rows[0]["dataset"] == "synth-linear-n100-p3-d3"
