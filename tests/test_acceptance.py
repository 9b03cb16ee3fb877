"""End-to-end acceptance suite.

Each test is one acceptance criterion; the pytest -v line for each test
is the criterion's pass/fail line. Tolerances are pinned here and must
not be loosened.
"""

import json
import math

import numpy as np
import pytest

from probfas import cli, data, experiments, inference, kernels, losses, metrics, model, training
from conftest import (
    fd_gradient, ref_dq_gaussian_nll, ref_live_spoof_ce, ref_semantic_ce, ref_semantic_ce_probabilistic, rel_err,
    train_one, with_grads,
)

GRAD_TOL = 1e-4
EXACT_TOL = 1e-12


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_oracle_suite():
    rng_master = np.random.default_rng(12345)
    for trial in range(10):
        rng = np.random.default_rng(rng_master.integers(1 << 30))
        n, B, A = int(rng.integers(3, 8)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        mu = rng.standard_normal((n, B))
        omega = rng.standard_normal((A, B))
        omega_c = rng.standard_normal((2, B))
        labels = rng.integers(0, A, n)
        c = rng.integers(0, 2, n)
        s2 = rng.uniform(0.3, 2.0, n)
        sigma = rng.uniform(0.2, 1.5, (n, B))
        eps = rng.standard_normal((n, B))

        # deterministic semantic cross-entropy: d/dmu
        loss, dmu, _ = losses.semantic_ce_with_grads(mu, omega, labels)
        f = lambda v: ref_semantic_ce(v.reshape(mu.shape), omega, labels)
        assert rel_err(dmu.ravel(), fd_gradient(f, mu.ravel())) < GRAD_TOL

        # probabilistic semantic cross-entropy: d/dmu and d/dsigma via z
        z = losses.sample_z(mu, sigma, eps)
        _, dz, _ = losses.semantic_ce_with_grads(z, omega, labels)
        f_mu = lambda v: ref_semantic_ce_probabilistic(v.reshape(mu.shape), sigma, omega, labels, eps)
        f_sg = lambda v: ref_semantic_ce_probabilistic(mu, v.reshape(sigma.shape), omega, labels, eps)
        assert rel_err(dz.ravel(), fd_gradient(f_mu, mu.ravel())) < GRAD_TOL
        assert rel_err((dz * eps).ravel(), fd_gradient(f_sg, sigma.ravel())) < GRAD_TOL

        # live/spoof cross-entropy: d/domega
        _, dlogits = losses.softmax_ce_with_grads(mu @ omega_c.T, c)
        domega_c = dlogits.T @ mu
        f_oc = lambda v: ref_live_spoof_ce(mu, v.reshape(omega_c.shape), c)
        assert rel_err(domega_c.ravel(), fd_gradient(f_oc, omega_c.ravel())) < GRAD_TOL

        # data-quality Gaussian NLL: d/dmu, d/domega, d/dsigma^2
        _, (g_mu, g_om, g_s2), _ = losses.dq_gaussian_nll_with_grads(mu, omega_c, c, s2)
        f1 = lambda v: ref_dq_gaussian_nll(v.reshape(mu.shape), omega_c, c, s2)
        f2 = lambda v: ref_dq_gaussian_nll(mu, v.reshape(omega_c.shape), c, s2)
        f3 = lambda v: ref_dq_gaussian_nll(mu, omega_c, c, v)
        assert rel_err(g_mu.ravel(), fd_gradient(f1, mu.ravel())) < GRAD_TOL
        assert rel_err(g_om.ravel(), fd_gradient(f2, omega_c.ravel())) < GRAD_TOL
        assert rel_err(g_s2, fd_gradient(f3, s2.copy())) < GRAD_TOL

        # variance heads through their weights
        params = model.init_params(4, {"cat": A}, B=B, hidden=(5,), seed=trial)
        params.w_lq[...] = rng.standard_normal((B, B)) * 0.2
        params.b_lq[...] = rng.standard_normal(B) * 0.2
        params.w_dq[...] = rng.standard_normal(B) * 0.2
        params.b_dq[...] = 0.1
        R = rng.standard_normal((n, B))
        sig = model.lq_variance(params, mu)
        dw, db, _ = model.lq_variance_backward(params, mu, sig, R)

        def f_wlq(v):
            q = params.copy()
            q.w_lq[...] = v.reshape(q.w_lq.shape)
            return float((model.lq_variance(q, mu) * R).sum())

        assert rel_err(dw.ravel(), fd_gradient(f_wlq, params.w_lq.ravel())) < GRAD_TOL
        r = rng.standard_normal(n)
        s2h = model.dq_variance(params, mu)
        dwd, dbd, _ = model.dq_variance_backward(params, mu, s2h, r)

        def f_wdq(v):
            q = params.copy()
            q.w_dq[...] = v
            return float((model.dq_variance(q, mu) * r).sum())

        assert rel_err(dwd, fd_gradient(f_wdq, params.w_dq.copy())) < GRAD_TOL

        # normalized stage-2 objective over its trainable tensors
        X = rng.standard_normal((n, 4))
        _, grads, _ = with_grads(losses.stage2_objective, params, model.embed(params, X), c)

        def f_s2obj(v):
            q = params.copy()
            k = q.omega_c.size
            q.omega_c[...] = v[:k].reshape(q.omega_c.shape)
            q.w_dq[...] = v[k : k + q.w_dq.size]
            q.b_dq[...] = v[-1]
            return with_grads(losses.stage2_objective, q, model.embed(q, X), c)[0].total

        v0 = np.concatenate([params.omega_c.ravel(), params.w_dq, [float(params.b_dq)]])
        analytic = np.concatenate([grads.omega_c.ravel(), grads.w_dq, [float(grads.b_dq)]])
        assert rel_err(analytic, fd_gradient(f_s2obj, v0)) < GRAD_TOL


# ---------------------------------------------------------------------------
# criterion 2: reduction identities
# ---------------------------------------------------------------------------

def test_criterion_2_reduction_identities():
    rng = np.random.default_rng(0)
    mu = rng.standard_normal((6, 4))
    omega = rng.standard_normal((3, 4))
    labels = rng.integers(0, 3, 6)
    sigma = rng.uniform(0.2, 1.5, (6, 4))
    eps = rng.standard_normal((6, 4))
    det, _, _ = losses.semantic_ce_with_grads(mu, omega, labels)

    at_sigma0, _, _ = losses.semantic_ce_with_grads(losses.sample_z(mu, np.zeros_like(mu), eps), omega, labels)
    assert abs(at_sigma0.total - det.total) <= EXACT_TOL
    at_eps0, _, _ = losses.semantic_ce_with_grads(losses.sample_z(mu, sigma, np.zeros_like(eps)), omega, labels)
    assert abs(at_eps0.total - det.total) <= EXACT_TOL

    # corrected confidence at sigma^2 = 1/2 is the plain distance softmax
    for _ in range(5):
        m = rng.standard_normal(4)
        oc = rng.standard_normal((2, 4))
        probs = inference.corrected_confidence(m[None], oc, np.array([0.5]))[0]
        d2 = ((oc - m) ** 2).sum(axis=1)
        e = np.exp(-(d2 - d2.min()))
        assert np.max(np.abs(probs - e / e.sum())) <= EXACT_TOL

    a, b = 7.25, 3.75
    assert abs(metrics.acer(a, b) - (a + b) / 2) <= EXACT_TOL


# ---------------------------------------------------------------------------
# criterion 3: variance-minimizer property
# ---------------------------------------------------------------------------

def test_criterion_3_dq_minimizer_property():
    rng = np.random.default_rng(1)
    grid = np.linspace(0.005, 15.0, 3000)
    step = grid[1] - grid[0]
    for _ in range(20):
        d2 = float(rng.uniform(0.05, 12.0))
        vals = kernels.gaussian_nll(np.full_like(grid, d2), grid)
        assert abs(grid[np.argmin(vals)] - d2) <= step + 1e-12


# ---------------------------------------------------------------------------
# criterion 4: Monte-Carlo consistency
# ---------------------------------------------------------------------------

def test_criterion_4_monte_carlo_matches_quadrature():
    mu = np.array([[0.4, -0.7]])
    sigma = np.array([[0.8, 1.3]])
    omega = np.array([[1.2, -0.5], [-0.9, 0.7]])
    label = np.array([0])

    n_draws = 100_000
    rng = np.random.default_rng(7)
    eps = rng.standard_normal((n_draws, 2))
    z = mu + eps * sigma
    per, _, _ = kernels.softmax_xent(z @ omega.T, np.zeros(n_draws, dtype=np.int64))
    mc_mean = per.mean()
    mc_se = per.std(ddof=1) / math.sqrt(n_draws)

    # tensor-product Gauss-Hermite quadrature of the expectation
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    e1 = math.sqrt(2.0) * nodes
    w = weights / math.sqrt(math.pi)
    E1, E2 = np.meshgrid(e1, e1, indexing="ij")
    W = np.outer(w, w).ravel()
    zs = mu + np.stack([E1.ravel(), E2.ravel()], axis=1) * sigma
    per_q, _, _ = kernels.softmax_xent(zs @ omega.T, np.zeros(len(zs), dtype=np.int64))
    quad = float((per_q * W).sum())

    assert abs(mc_mean - quad) <= 3.0 * mc_se


# ---------------------------------------------------------------------------
# criteria 5-7: directional mechanism studies on the default benchmark
# ---------------------------------------------------------------------------

BENCH_SEEDS = (0, 1, 2, 3, 4)


def _mean_acer(arm, seeds, semantic=0.0, data_frac=0.0):
    out = []
    for seed in seeds:
        cfg = training.TrainConfig(seed=seed)
        train, test = experiments.make_benchmark_data(seed)
        if semantic:
            train = data.inject_semantic_label_noise(train, semantic, seed)
        if data_frac:
            train = data.inject_data_noise(train, data_frac, 2.0, seed)
            test = data.inject_data_noise(test, data_frac, 2.0, seed + 1)
        [(_, _, _, (report,))] = experiments.run_arms([(train, test)], [arm], [cfg])
        out.append(report.acer)
    return float(np.mean(out))


def test_criterion_5_label_noise_robustness_ordering():
    for fraction in (0.2, 0.5):
        with_lq = _mean_acer("s-lq", BENCH_SEEDS, semantic=fraction)
        without_lq = _mean_acer("s", BENCH_SEEDS, semantic=fraction)
        assert with_lq <= without_lq, (
            f"at {fraction:.0%} semantic noise: ACER with LQ {with_lq:.3f} "
            f"> without {without_lq:.3f}"
        )


def test_criterion_6_data_noise_quality_separation_and_damping():
    separation_wins = 0
    cand_corrected, cand_uncorrected = [], []
    for seed in BENCH_SEEDS:
        cfg = training.TrainConfig(seed=seed)
        train, test = experiments.make_benchmark_data(seed)
        train = data.inject_data_noise(train, 0.3, 2.0, seed)
        test = data.inject_data_noise(test, 0.3, 2.0, seed + 1)
        params, _ = train_one(train, cfg, "s-lq-dq")

        mu = model.embed(params, test.X())
        s2 = model.dq_variance(params, mu)
        corrupted = test.flag_mask("data_corrupted")
        separation_wins += s2[corrupted].mean() > s2[~corrupted].mean()

        p_u = inference.predict_batch(params, test.X(), corrected=False)[0][:, 1]
        p_c = inference.predict_batch(params, test.X(), corrected=True)[0][:, 1]
        # corrupted live samples still accepted: the ones at risk of a
        # false rejection, whose confidence the correction should damp
        cand = corrupted & (test.c_labels() == data.LIVE) & (p_u >= 0.5)
        cand_corrected.extend(p_c[cand])
        cand_uncorrected.extend(p_u[cand])

    assert separation_wins >= 4, f"quality separation held in only {separation_wins}/5 seeds"
    assert len(cand_uncorrected) > 0
    assert np.mean(cand_corrected) < np.mean(cand_uncorrected), "confidence was not damped"


def test_criterion_7_ablation_ordering():
    acers = {
        arm: _mean_acer(arm, BENCH_SEEDS, semantic=0.2, data_frac=0.2)
        for arm in training.ARMS
    }
    chain = [acers[a] for a in ("baseline", "s", "s-lq", "s-lq-dq")]
    assert all(a >= b for a, b in zip(chain, chain[1:])), f"ordering violated: {acers}"


# ---------------------------------------------------------------------------
# criterion 8: metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_8_metric_oracle_equivalence():
    from test_metrics import brute_force_tpr_at_fpr, pairwise_auc

    rng = np.random.default_rng(2)
    for trial in range(100):
        n = int(rng.integers(10, 1000))
        scores = np.round(rng.uniform(0, 1, n), 2)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        target = float(rng.uniform(0.005, 0.9))
        got, _ = metrics.tpr_at_fpr(scores, labels, target)
        assert got == pytest.approx(brute_force_tpr_at_fpr(scores, labels, target), abs=1e-12)
        if trial % 10 == 0:
            assert metrics.auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)

    assert metrics.acer(2.29, 0.96) == pytest.approx(1.625, abs=1e-15)
    assert metrics.round_half_up(metrics.acer(2.29, 0.96), 2) == 1.63


# ---------------------------------------------------------------------------
# criterion 9: full-pipeline determinism
# ---------------------------------------------------------------------------

def test_criterion_9_full_pipeline_determinism(tmp_path):
    cfg = training.TrainConfig(seed=0)
    cfg.stage1.epochs = 5
    cfg.stage2.epochs = 5
    cfg.hidden = (16,)
    cfg.embedding_dim = 8
    cfg_path = tmp_path / "cfg.txt"
    training.save_config(cfg, cfg_path)

    outputs = []
    for tag in ("run_a", "run_b"):
        root = tmp_path / tag
        d = root / "data"
        t = root / "train"
        e = root / "eval"
        assert cli.main(["gen-data", "--n", "30", "--dim", "8", "--seed", "11",
                         "--semantic-noise", "0.2", "--out", str(d)]) == 0
        assert cli.main(["train", "--data", str(d / "dataset.txt"),
                         "--config", str(cfg_path), "--arm", "s-lq-dq",
                         "--out", str(t)]) == 0
        assert cli.main(["eval", "--data", str(d / "dataset.txt"),
                         "--checkpoint", str(t / "checkpoint.ckpt"),
                         "--out", str(e)]) == 0
        outputs.append({
            "dataset": (d / "dataset.txt").read_bytes(),
            "checkpoint": (t / "checkpoint.ckpt").read_bytes(),
            "trainlog": (t / "trainlog.jsonl").read_bytes(),
            "report_u": (e / "report_uncorrected.json").read_bytes(),
            "report_c": (e / "report_corrected.json").read_bytes(),
            "preds_c": (e / "predictions_corrected.csv").read_bytes(),
        })

    a, b = outputs
    for key in a:
        assert a[key] == b[key], f"{key} differs between identical runs"
