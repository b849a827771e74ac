"""End-to-end acceptance scorecard.

Every test prints exactly one [PASS]/[FAIL] line carrying its measured
quantities and then asserts the stated thresholds, so a verbose run reads
as a checklist. Two checks measure quantities this build is known not to
meet (per-step cost-scaling exponents on a single-core box, single-draw
random-feature coverage at width 1000); they run the honest measurement
and fail with the numbers rather than being skipped or loosened.
"""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from fdcheck import fd_grad, fd_grad_matrix, fd_grad_matrix_sym
from stochgp.features import LinearMap, MLPMap, MLPSpec, rff_init
from stochgp.harness import ExperimentConfig, SynthSpec, grid_search
from stochgp.objective import HyperParams, info_matrix
from stochgp.optim import (
    AugmentedState,
    MinimaxConfig,
    bsgd_step,
    minimax_init,
    minimax_step,
    project_dual_ball,
    project_primal,
    scgd_init,
    scgd_step,
)
from stochgp.oracles import (
    exact_nll_oracle,
    full_loss,
    logdet_psd,
    minimax_batch_grads,
    minimax_sample_objective,
    ridge_closed_form,
    ridge_identity_check,
    sample_info_term,
    sample_loss_term,
)


def _report(ok, label, detail):
    line = "[%s] %s: %s" % ("PASS" if ok else "FAIL", label, detail)
    print(line)
    return line


def _max_rel(analytic, numeric, floor=1e-8):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


def _mlp_instance(seed, n, p, hidden, d, sigma2, w_scale=0.5):
    rng = np.random.default_rng(seed)
    fmap = MLPMap(MLPSpec(p, (hidden, d)))
    theta = HyperParams(w_scale * rng.normal(size=d), fmap.init_params(seed + 1), sigma2)
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    return fmap, theta, X, y


def _direction(theta_before, theta_after, a_t):
    return np.concatenate(
        [
            (theta_before.weights - theta_after.weights) / a_t,
            (theta_before.feature_params.flat - theta_after.feature_params.flat) / a_t,
            [(theta_before.noise_variance - theta_after.noise_variance) / a_t],
        ]
    )


def test_01_ridge_and_kernel_forms_agree():
    # dual/primal ridge identity plus the d x d vs n x n objective identity,
    # 200 random instances spanning three decades of regularizer
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    worst_ridge = 0.0
    worst_nll = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 201))
        d = int(rng.integers(1, 51))
        lam = float(10.0 ** rng.uniform(-3.0, 2.0))
        V = rng.normal(size=(n, d))
        b = rng.normal(size=n)

        lhs, rhs = ridge_identity_check(V, b, lam)
        worst_ridge = max(worst_ridge, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

        fmap = LinearMap(d)
        w_hat = ridge_closed_form(V, b, lam)
        theta = HyperParams(w_hat, fmap.init_params(0), lam)
        ridge_min = full_loss(fmap, theta, V, b)
        kernel = exact_nll_oracle(fmap, theta.feature_params, lam, V, b)
        worst_nll = max(worst_nll, abs(ridge_min - kernel) / max(1.0, abs(kernel)))
    elapsed = time.perf_counter() - t0
    ok = worst_ridge <= 1e-8 and worst_nll <= 1e-8 and elapsed < 10.0
    line = _report(
        ok,
        "01 ridge/kernel equivalence",
        "max rel err: dual-primal %.2e, min-vs-kernel %.2e over 200 instances "
        "(%.1fs, budget 10s)" % (worst_ridge, worst_nll, elapsed),
    )
    assert ok, line


def test_02_analytic_gradients_match_finite_differences():
    # every analytic gradient block against central differences on one small
    # instance: penalized-objective blocks, tracker-linearized batch loss,
    # plain batch loss, and both parameterized feature-map backwards
    t0 = time.perf_counter()
    fmap, theta, X, y = _mlp_instance(9, n=5, p=2, hidden=4, d=3, sigma2=0.7)
    rng = np.random.default_rng(10)
    G = rng.normal(size=(3, 3))
    A = G @ G.T + (theta.noise_variance + 1.0) * np.eye(3)
    B = 0.4 * rng.normal(size=(3, 3))
    mu = 1.3
    n = X.shape[0]
    d = fmap.output_dim
    m = theta.feature_params.n_params
    idx = [0, 2, 4]
    rels = {}

    # penalized objective: parameter blocks, surrogate block, dual block
    zeta = AugmentedState(theta, A)
    g_theta, g_A, g_B = minimax_batch_grads(fmap, zeta, B, X[idx], y[idx], n, mu)
    scale = n / len(idx)

    def penalized_of_theta(v):
        th = HyperParams(v[:d], theta.feature_params.with_flat(v[d : d + m]), float(v[-1]))
        z = AugmentedState(th, A)
        return scale * sum(
            minimax_sample_objective(fmap, z, B, X[i], y[i], n, mu) for i in idx
        )

    def penalized_of_A(A_):
        z = AugmentedState(theta, A_)
        return scale * sum(
            minimax_sample_objective(fmap, z, B, X[i], y[i], n, mu) for i in idx
        )

    def penalized_of_B(B_):
        return scale * sum(
            minimax_sample_objective(fmap, zeta, B_, X[i], y[i], n, mu) for i in idx
        )

    flat0 = np.concatenate([theta.weights, theta.feature_params.flat, [theta.noise_variance]])
    analytic = np.concatenate([g_theta.weights, g_theta.feature_params, [g_theta.noise_variance]])
    rels["penalized theta"] = _max_rel(analytic, fd_grad(penalized_of_theta, flat0))
    rels["penalized surrogate"] = _max_rel(g_A, fd_grad_matrix_sym(penalized_of_A, A))
    rels["penalized dual"] = _max_rel(g_B, fd_grad_matrix(penalized_of_B, B))

    # tracker-linearized batch loss: the parameter step must be its gradient
    state = scgd_init(fmap, theta, X)
    M0 = np.linalg.inv(state.tracked_info)
    a = 1e-4
    out = scgd_step(fmap, state, X, y, np.array(idx), a_t=a, b_t=0.5)

    def linearized_loss(v):
        th = HyperParams(v[:d], theta.feature_params.with_flat(v[d : d + m]), float(v[-1]))
        return sum(
            sample_loss_term(fmap, th, X[i], y[i], n)
            + float(np.sum(M0 * sample_info_term(fmap, th, X[i], n)))
            for i in idx
        )

    rels["linearized batch loss"] = _max_rel(
        _direction(theta, out.theta, a), fd_grad(linearized_loss, flat0)
    )

    # plain batch-restricted loss for the biased baseline
    out_b = bsgd_step(fmap, theta, X, y, np.array(idx), a_t=a)

    def batch_loss(v):
        th = HyperParams(v[:d], theta.feature_params.with_flat(v[d : d + m]), float(v[-1]))
        g = sum(sample_loss_term(fmap, th, X[i], y[i], n) for i in idx)
        F = sum(sample_info_term(fmap, th, X[i], n) for i in idx)
        return g + logdet_psd(F)

    rels["batch loss"] = _max_rel(_direction(theta, out_b, a), fd_grad(batch_loss, flat0))

    # feature-map backwards through a fixed random upstream contraction
    for name, fm in (
        ("mlp backward", fmap),
        ("rff backward", rff_init(q=2, D=8, u1=0.9, u2=1.1, seed=4)),
    ):
        params = fm.init_params(3)
        Xi = np.random.default_rng(5).normal(size=(4, fm.input_dim))
        W_up = np.random.default_rng(6).normal(size=(4, fm.output_dim))
        fb = fm.forward(params, Xi)
        analytic = fm.backward(params, fb, W_up)

        def contraction(flat, fm=fm, params=params, Xi=Xi, W_up=W_up):
            return float(np.sum(fm.forward(params.with_flat(flat), Xi).Z * W_up))

        rels[name] = _max_rel(analytic, fd_grad(contraction, params.flat))

    elapsed = time.perf_counter() - t0
    worst = max(rels.values())
    ok = worst < 1e-5 and elapsed < 30.0
    line = _report(
        ok,
        "02 gradient exactness",
        "max rel err %.2e across %d blocks, worst block '%s' (%.1fs, budget 30s)"
        % (worst, len(rels), max(rels, key=rels.get), elapsed),
    )
    assert ok, line


def test_03_batch_average_unbiasedness_and_baseline_bias():
    # averaging the stochastic gradients over every size-2 batch of a 4-point
    # instance recovers the full gradient exactly for the penalized objective,
    # in both batching modes; the same average for the biased baseline does not
    t0 = time.perf_counter()
    fmap, theta, X, y = _mlp_instance(11, n=4, p=2, hidden=3, d=2, sigma2=0.6)
    rng = np.random.default_rng(12)
    G = rng.normal(size=(2, 2))
    A = G @ G.T + (theta.noise_variance + 1.0) * np.eye(2)
    B = 0.3 * rng.normal(size=(2, 2))
    mu = 1.1
    zeta = AugmentedState(theta, A)

    def flatten(g):
        return np.concatenate(
            [g[0].weights, g[0].feature_params, [g[0].noise_variance], g[1].ravel(), g[2].ravel()]
        )

    full = flatten(minimax_batch_grads(fmap, zeta, B, X, y, 4, mu))
    gaps = []
    for batches in (
        list(itertools.product(range(4), repeat=2)),  # ordered, with replacement
        list(itertools.combinations(range(4), 2)),  # unordered, without replacement
    ):
        acc = np.zeros_like(full)
        for pair in batches:
            idx = list(pair)
            acc += flatten(minimax_batch_grads(fmap, zeta, B, X[idx], y[idx], 4, mu))
        mean = acc / len(batches)
        gaps.append(float(np.max(np.abs(mean - full)) / max(1.0, float(np.max(np.abs(full))))))

    # biased baseline on a proven instance: enumerate the same ordered batches
    fmap_b, theta_b, X_b, y_b = _mlp_instance(37, n=4, p=2, hidden=3, d=2, sigma2=0.6)
    a = 1e-6
    M_full = np.linalg.inv(info_matrix(fmap_b, theta_b, X_b))
    out_full = bsgd_step(fmap_b, theta_b, X_b, y_b, np.arange(4), a_t=a)
    dirs = [
        _direction(theta_b, bsgd_step(fmap_b, theta_b, X_b, y_b, np.array(pair), a_t=a), a)
        for pair in itertools.product(range(4), repeat=2)
    ]
    bias = float(np.linalg.norm(np.mean(dirs, axis=0) - _direction(theta_b, out_full, a)))

    elapsed = time.perf_counter() - t0
    ok = gaps[0] <= 1e-10 and gaps[1] <= 1e-10 and bias > 1e-6 and elapsed < 5.0
    line = _report(
        ok,
        "03 batch-average unbiasedness",
        "avg-vs-full rel gap: ordered %.1e, unordered %.1e (need <= 1e-10); "
        "baseline bias norm %.2e (need > 1e-6) (%.1fs, budget 5s)"
        % (gaps[0], gaps[1], bias, elapsed),
    )
    assert ok, line


def test_04_full_batch_coincidence():
    # with the tracker pinned at the exact information matrix, unit averaging
    # weight, and the whole dataset as the batch, the compositional update and
    # the plain batch update are the same rule
    worst = 0.0
    a = 1e-3
    for seed in range(5):
        fmap, theta, X, y = _mlp_instance(60 + seed, n=9, p=2, hidden=3, d=2, sigma2=0.6)
        n = X.shape[0]
        state = scgd_init(fmap, theta, X)
        out_s = scgd_step(fmap, state, X, y, np.arange(n), a_t=a, b_t=1.0)
        out_b = bsgd_step(fmap, theta, X, y, np.arange(n), a_t=a)
        dir_s = _direction(theta, out_s.theta, a)
        dir_b = _direction(theta, out_b, a)
        gap = float(np.max(np.abs(dir_s - dir_b)) / max(1.0, float(np.max(np.abs(dir_b)))))
        worst = max(worst, gap)
    ok = worst <= 1e-12
    line = _report(
        ok,
        "04 full-batch coincidence",
        "max direction gap %.2e over 5 seeds (need <= 1e-12)" % worst,
    )
    assert ok, line


@pytest.mark.slow
def test_05_small_batch_robustness_benchmark():
    # fixed 400-epoch budget on one synthetic linear-generator dataset
    # (n = 2048, 16 features, known noise), grid-searched constant rates:
    # the two debiased optimizers must hold their full-batch quality at
    # batch size 8 while the biased baseline must degrade
    t0 = time.perf_counter()
    spec = SynthSpec(n=2048, p=16, d=16, sigma2=16.0, seed=42)
    grids = {
        ("scgd", 8): (3e-4, 1e-3, 3e-3),
        ("scgd", 2048): (3e-5, 1e-4, 3e-4),
        ("minimax", 8): (3e-5, 1e-4),
        ("minimax", 2048): (3e-5, 1e-4, 3e-4),
        ("bsgd", 8): (3e-4, 1e-3, 3e-3),
        ("bsgd", 2048): (3e-5, 1e-4, 3e-4),
    }
    best = {}
    rates = {}
    for (opt, s), grid in grids.items():
        cfg = ExperimentConfig(
            synth=spec,
            feature_map="mlp",
            mlp_hidden=4,
            mlp_out=16,
            optimizer=opt,
            batch_size=s,
            epochs=400,
            grid=grid,
            schedule="constant",
            train_fraction=0.99,
            split_seed=0,
            init_seed=0,
            batch_seed=0,
        )
        rate, record = grid_search(cfg)
        best[(opt, s)] = record.best_nll
        rates[(opt, s)] = rate

    gap_scgd = abs(best[("scgd", 8)] - best[("scgd", 2048)])
    gap_minimax = abs(best[("minimax", 8)] - best[("minimax", 2048)])
    margin_bsgd = best[("bsgd", 8)] - best[("bsgd", 2048)]
    elapsed = time.perf_counter() - t0
    ok = gap_scgd <= 0.05 and gap_minimax <= 0.05 and margin_bsgd > 0.0 and elapsed < 600.0
    line = _report(
        ok,
        "05 small-batch robustness",
        "scgd |%.4f - %.4f| = %.4f, minimax |%.4f - %.4f| = %.4f (need <= 0.05); "
        "bsgd margin %+.4f (need > 0); best rates %s (%.0fs, budget 600s)"
        % (
            best[("scgd", 8)],
            best[("scgd", 2048)],
            gap_scgd,
            best[("minimax", 8)],
            best[("minimax", 2048)],
            gap_minimax,
            margin_bsgd,
            {"%s/s%d" % k: v for k, v in sorted(rates.items())},
            elapsed,
        ),
    )
    assert ok, line


def test_06_projection_and_feasibility_suite():
    # 1000 random states: projected output is feasible and re-projecting is a
    # no-op; each projection stage is non-expansive on 300 random pairs; and
    # every state an optimizer step produces is feasible
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    fmap = MLPMap(MLPSpec(2, (3, 4)))
    d = 4
    n_flat = fmap.init_params(0).flat.size
    sig_min, coord, eig = 3e-2, 10.0, 25.0

    def random_state():
        scale = float(rng.choice([0.3, 5.0, 40.0]))
        w = scale * rng.normal(size=d)
        flat = scale * rng.normal(size=n_flat)
        s2 = float(10.0 ** rng.uniform(-5.0, 1.8))
        G = rng.normal(size=(d, d)) * float(rng.choice([0.3, 8.0]))
        A = G + G.T + float(rng.choice([-2.0, 0.0, 6.0])) * np.eye(d)
        return AugmentedState(HyperParams(w, fmap.init_params(0).with_flat(flat), s2), A)

    def check_feasible(zeta, tol=1e-8):
        s2 = zeta.theta.noise_variance
        assert sig_min**2 - 1e-15 <= s2 <= coord + 1e-15
        assert np.all(np.abs(zeta.theta.weights) <= coord + tol)
        assert np.all(np.abs(zeta.theta.feature_params.flat) <= coord + tol)
        A = zeta.info_surrogate
        assert np.array_equal(A, A.T)
        vals = np.linalg.eigvalsh(A)
        assert vals[0] >= s2 - tol
        assert vals[-1] <= eig + tol

    for _ in range(1000):
        z = random_state()
        p1 = project_primal(z, sig_min, coord, eig)
        check_feasible(p1)
        p2 = project_primal(p1, sig_min, coord, eig)
        assert abs(p2.theta.noise_variance - p1.theta.noise_variance) <= 1e-12 * (
            1.0 + p1.theta.noise_variance
        )
        assert np.max(np.abs(p2.theta.weights - p1.theta.weights)) <= 1e-11
        assert np.max(np.abs(p2.theta.feature_params.flat - p1.theta.feature_params.flat)) <= 1e-11
        assert np.max(np.abs(p2.info_surrogate - p1.info_surrogate)) <= 1e-11 * (
            1.0 + float(np.linalg.norm(p1.info_surrogate))
        )

    # stage-wise non-expansiveness on pairs: noise clamp, coordinate clip,
    # eigenvalue clamp at a shared noise level, and the dual radial projection
    for _ in range(300):
        z1, z2 = random_state(), random_state()
        p1 = project_primal(z1, sig_min, coord, eig)
        p2 = project_primal(z2, sig_min, coord, eig)
        assert abs(p1.theta.noise_variance - p2.theta.noise_variance) <= abs(
            z1.theta.noise_variance - z2.theta.noise_variance
        ) + 1e-15
        din = math.hypot(
            float(np.linalg.norm(z1.theta.weights - z2.theta.weights)),
            float(np.linalg.norm(z1.theta.feature_params.flat - z2.theta.feature_params.flat)),
        )
        dout = math.hypot(
            float(np.linalg.norm(p1.theta.weights - p2.theta.weights)),
            float(np.linalg.norm(p1.theta.feature_params.flat - p2.theta.feature_params.flat)),
        )
        assert dout <= din * (1.0 + 1e-12) + 1e-15

        z3 = AugmentedState(z1.theta, random_state().info_surrogate)  # same noise as z1
        p3 = project_primal(z3, sig_min, coord, eig)
        assert float(np.linalg.norm(p1.info_surrogate - p3.info_surrogate)) <= float(
            np.linalg.norm(z1.info_surrogate - z3.info_surrogate)
        ) * (1.0 + 1e-10) + 1e-9

        B1 = rng.normal(size=(d, d)) * float(rng.choice([0.2, 3.0]))
        B2 = rng.normal(size=(d, d)) * float(rng.choice([0.2, 3.0]))
        q1, q2 = project_dual_ball(B1), project_dual_ball(B2)
        assert float(np.linalg.norm(q1)) <= 1.0 + 1e-12
        assert float(np.linalg.norm(q1 - q2)) <= float(np.linalg.norm(B1 - B2)) + 1e-12
        assert np.max(np.abs(project_dual_ball(q1) - q1)) <= 1e-12

    # post-step feasibility along short optimizer trajectories
    steps = 0
    for chain in range(30):
        fm, theta, X, y = _mlp_instance(200 + chain, n=12, p=2, hidden=2, d=3, sigma2=0.5)
        cfg = MinimaxConfig(
            primal_rate=float(10.0 ** rng.uniform(-4.0, -1.0)),
            dual_rate=float(10.0 ** rng.uniform(-2.0, 0.0)),
            penalty=1.0,
            sigma_min=sig_min,
            coord_bound=coord,
            eig_bound=eig,
        )
        zeta, dual = minimax_init(fm, theta, X)
        zeta = project_primal(zeta, sig_min, coord, eig)
        for _ in range(5):
            idx = rng.integers(0, 12, size=4)
            zeta, dual = minimax_step(fm, zeta, dual, X, y, idx, idx, cfg)
            s2 = zeta.theta.noise_variance
            assert sig_min**2 - 1e-15 <= s2 <= coord + 1e-15
            assert np.all(np.abs(zeta.theta.weights) <= coord + 1e-8)
            assert np.all(np.abs(zeta.theta.feature_params.flat) <= coord + 1e-8)
            vals = np.linalg.eigvalsh(zeta.info_surrogate)
            assert vals[0] >= s2 - 1e-8 and vals[-1] <= eig + 1e-8
            assert float(np.linalg.norm(dual)) <= 1.0 + 1e-12
            steps += 1

    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    line = _report(
        ok,
        "06 projection suite",
        "1000 states feasible and idempotent, 300 pairs stage-wise non-expansive, "
        "%d optimizer steps feasible (%.1fs, budget 10s)" % (steps, elapsed),
    )
    assert ok, line


@pytest.mark.slow
def test_07_step_cost_scaling():
    # per-step wall time against feature dimension at batch size 32, plus
    # per-step peak allocation against the d^2 working-set model
    dims = (64, 128, 256, 512)
    s = 32

    def make_step(d, opt):
        rng = np.random.default_rng(0)
        n = 1024
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        fmap = LinearMap(d)
        theta = HyperParams(np.zeros(d), fmap.init_params(0), 1.0)
        idx = rng.integers(0, n, size=s)
        if opt == "minimax":
            zeta, dual = minimax_init(fmap, theta, X)
            cfg = MinimaxConfig(
                primal_rate=1e-6,
                dual_rate=1e-6,
                penalty=1.0,
                sigma_min=1e-3,
                coord_bound=1e6,
                eig_bound=1e6,
            )

            def step(state):
                return minimax_step(fmap, state[0], state[1], X, y, idx, idx, cfg)

            return step, (zeta, dual)

        def step(state):
            return scgd_step(fmap, state, X, y, idx, 1e-6, 0.5)

        return step, scgd_init(fmap, theta, X)

    def per_step_seconds(step, state):
        for _ in range(3):
            state = step(state)
        fastest = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(3):
                state = step(state)
            fastest = min(fastest, (time.perf_counter() - t0) / 3.0)
        return fastest

    def per_step_peak_bytes(step, state):
        state = step(state)
        tracemalloc.start()
        step(state)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    slopes = {}
    spreads = {}
    for opt in ("minimax", "scgd"):
        times = [per_step_seconds(*make_step(d, opt)) for d in dims]
        slopes[opt] = float(np.polyfit(np.log(dims), np.log(times), 1)[0])
        ratios = [per_step_peak_bytes(*make_step(d, opt)) / d**2 for d in dims]
        spreads[opt] = max(ratios) / min(ratios)

    ok = all(2.5 <= slopes[o] <= 3.5 for o in slopes) and all(
        spreads[o] <= 2.0 for o in spreads
    )
    line = _report(
        ok,
        "07 step cost scaling",
        "time slope minimax %.2f, scgd %.2f (need within [2.5, 3.5]); "
        "peak-alloc/d^2 spread minimax x%.2f, scgd x%.2f (need <= 2)"
        % (slopes["minimax"], slopes["scgd"], spreads["minimax"], spreads["scgd"]),
    )
    assert ok, line


def test_08_random_feature_fidelity():
    # single-draw width-1000 feature inner products against the target kernel
    # over 1000 pairs with separations spanning (0, 3] length-scales
    rng = np.random.default_rng(20260401)
    q, D, u1, u2 = 3, 1000, 1.0, 1.0
    fmap = rff_init(q=q, D=D, u1=u1, u2=u2, seed=77)
    params = fmap.init_params(0)
    m = 1000
    r = 3.0 * u1 * (1.0 - rng.random(m))
    z = rng.normal(size=(m, q))
    direction = rng.normal(size=(m, q))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    Z1 = fmap.forward(params, z).Z
    Z2 = fmap.forward(params, z + r[:, None] * direction).Z
    dots = np.einsum("ij,ij->i", Z1, Z2)
    target = u2 * np.exp(-(r * r) / (2.0 * u1 * u1))
    frac = float(np.mean(np.abs(dots - target) <= 0.05 * u2))
    ok = frac >= 0.95
    line = _report(
        ok,
        "08 random-feature fidelity",
        "%.1f%% of 1000 pairs within 0.05*u2 of the target kernel (need >= 95%%)"
        % (100.0 * frac),
    )
    assert ok, line
