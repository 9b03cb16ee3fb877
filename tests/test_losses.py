"""Loss definitions: frozen value oracles, reduction identities, the
variance-minimizer property, and finite-difference gradient checks of the
full stage objectives."""

import math

import numpy as np
import pytest

from probfas import data, losses, model
from conftest import check_param_gradients, ref_dq_gaussian_nll, selection_mask, rel_err, with_grads

LOG_3 = 1.0986122886681098
NEG_LOG_SIGMOID_20 = 2.0611536203143807e-09
HALF_LOG_2PI = 0.9189385332046727
ONE_PLUS_HALF_LOG_2PI = 1.9189385332046727


def semantic_ce(z, omega, labels):
    return losses.semantic_ce_with_grads(z, omega, labels)[0]


def dq_nll(mu, omega, labels, s2):
    return losses.dq_gaussian_nll_with_grads(mu, omega, labels, s2)[0]


def random_case(seed, n=6, B=4, A=3):
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal((n, B))
    omega = rng.standard_normal((A, B))
    labels = rng.integers(0, A, n)
    return rng, mu, omega, labels


class TestSemanticCe:
    def test_uniform_logits(self):
        mu = np.zeros((4, 3))
        omega = np.random.default_rng(0).standard_normal((3, 3))
        loss = semantic_ce(mu, omega, np.array([0, 1, 2, 1]))
        assert np.allclose(loss.per_sample, LOG_3, atol=1e-12)

    def test_confident_pair_frozen_value(self):
        mu = np.array([[1.0]])
        omega = np.array([[10.0], [-10.0]])
        loss = semantic_ce(mu, omega, np.array([0]))
        assert loss.total == pytest.approx(NEG_LOG_SIGMOID_20, rel=1e-12)

    def test_total_is_mean_of_per_sample(self):
        _, mu, omega, labels = random_case(1)
        loss = semantic_ce(mu, omega, labels)
        assert loss.total == pytest.approx(loss.per_sample.mean(), rel=1e-12)

    def test_out_of_range_label_rejected(self):
        _, mu, omega, _ = random_case(2)
        with pytest.raises(ValueError):
            semantic_ce(mu, omega, np.array([0, 1, 3, 0, 0, 0]))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_softmax_ce_rejects_a_label_outside_the_classes(self, bad):
        _, mu, omega, labels = random_case(3)
        labels[2] = bad
        with pytest.raises(ValueError, match=r"labels out of range \[0, 3\)"):
            losses.softmax_ce_with_grads(mu @ omega.T, labels)

    def test_nonnegative_and_stable_at_1e3(self):
        mu = np.array([[1e3, -1e3], [-1e3, 1e3]])
        omega = np.eye(2)
        loss = semantic_ce(mu, omega, np.array([0, 0]))
        assert np.all(np.isfinite(loss.per_sample))
        assert np.all(loss.per_sample >= 0)

    def test_permutation_invariance(self):
        rng, mu, omega, labels = random_case(3)
        perm = rng.permutation(len(labels))
        a = semantic_ce(mu, omega, labels)
        b = semantic_ce(mu[perm], omega, labels[perm])
        assert a.total == pytest.approx(b.total, rel=1e-12)


class TestSampleZ:
    def test_arithmetic(self):
        mu = np.array([[1.0, 2.0]])
        sigma = np.array([[0.5, 0.5]])
        eps = np.array([[2.0, -2.0]])
        assert np.array_equal(losses.sample_z(mu, sigma, eps), np.array([[2.0, 1.0]]))

    def test_zero_eps_and_zero_sigma(self):
        rng, mu, _, _ = random_case(4)
        sigma = np.abs(rng.standard_normal(mu.shape))
        assert np.array_equal(losses.sample_z(mu, sigma, np.zeros_like(mu)), mu)
        assert np.array_equal(losses.sample_z(mu, np.zeros_like(mu), sigma), mu)

    def test_shape_mismatch_rejected(self):
        mu = np.zeros((2, 3))
        with pytest.raises(ValueError):
            losses.sample_z(mu, np.zeros((2, 2)), np.zeros((2, 3)))


class TestProbabilisticReduction:
    def test_reduces_exactly_at_sigma_zero(self):
        rng, mu, omega, labels = random_case(5)
        eps = rng.standard_normal(mu.shape)
        prob = semantic_ce(losses.sample_z(mu, np.zeros_like(mu), eps), omega, labels)
        det = semantic_ce(mu, omega, labels)
        assert np.array_equal(prob.per_sample, det.per_sample)

    def test_reduces_exactly_at_eps_zero(self):
        rng, mu, omega, labels = random_case(6)
        sigma = np.abs(rng.standard_normal(mu.shape)) + 0.1
        prob = semantic_ce(losses.sample_z(mu, sigma, np.zeros_like(mu)), omega, labels)
        det = semantic_ce(mu, omega, labels)
        assert np.array_equal(prob.per_sample, det.per_sample)

    def test_equals_deterministic_at_sampled_point(self):
        rng, mu, omega, labels = random_case(7)
        sigma = np.abs(rng.standard_normal(mu.shape)) + 0.1
        eps = rng.standard_normal(mu.shape)
        prob = semantic_ce(losses.sample_z(mu, sigma, eps), omega, labels)
        det = semantic_ce(mu + eps * sigma, omega, labels)
        assert np.array_equal(prob.per_sample, det.per_sample)


class TestGaussianNll:
    def test_frozen_values(self):
        mu = np.zeros((1, 2))
        omega = np.zeros((2, 2))
        loss = dq_nll(mu, omega, np.array([0]), np.array([1.0]))
        assert loss.total == pytest.approx(HALF_LOG_2PI, rel=1e-15)

        omega_e = np.array([[math.sqrt(math.e), 0.0], [0.0, 0.0]])
        loss = dq_nll(mu, omega_e, np.array([0]), np.array([math.e]))
        assert loss.total == pytest.approx(ONE_PLUS_HALF_LOG_2PI, rel=1e-12)

    def test_nonpositive_variance_rejected(self):
        mu = np.zeros((1, 2))
        omega = np.ones((2, 2))
        with pytest.raises(ValueError):
            dq_nll(mu, omega, np.array([0]), np.array([0.0]))
        with pytest.raises(ValueError):
            dq_nll(mu, omega, np.array([0]), np.array([-1.0]))

    def test_minimized_at_squared_distance(self):
        # for fixed d2 the per-sample loss over a s2 grid bottoms out at s2 = d2
        rng = np.random.default_rng(8)
        for _ in range(20):
            d2 = float(rng.uniform(0.05, 9.0))
            grid = np.linspace(0.01, 12.0, 2000)
            vals = 0.5 * (np.log(grid) + d2 / grid) + HALF_LOG_2PI
            best = grid[np.argmin(vals)]
            step = grid[1] - grid[0]
            assert abs(best - d2) <= step + 1e-12

    def test_lower_bound_over_variance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d2 = float(rng.uniform(0.05, 9.0))
            bound = 0.5 * (1.0 + math.log(d2)) + HALF_LOG_2PI
            grid = np.linspace(0.01, 50.0, 5000)
            vals = 0.5 * (np.log(grid) + d2 / grid) + HALF_LOG_2PI
            assert np.all(vals >= bound - 1e-9)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_label_rejected(self, bad):
        labels = np.array([0, 1, bad, 0])
        with pytest.raises(ValueError, match=r"labels out of range \[0, 2\)"):
            dq_nll(np.ones((4, 3)), np.ones((2, 3)), labels, np.ones(4))

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(10)
        mu = rng.standard_normal((4, 3))
        omega = rng.standard_normal((2, 3))
        labels = rng.integers(0, 2, 4)
        s2 = rng.uniform(0.3, 2.0, 4)
        _, (dmu, domega, ds2), _ = losses.dq_gaussian_nll_with_grads(mu, omega, labels, s2)

        from conftest import fd_gradient, FD_TOL

        f_mu = lambda v: ref_dq_gaussian_nll(v.reshape(mu.shape), omega, labels, s2)
        f_om = lambda v: ref_dq_gaussian_nll(mu, v.reshape(omega.shape), labels, s2)
        f_s2 = lambda v: ref_dq_gaussian_nll(mu, omega, labels, v)
        assert rel_err(dmu.ravel(), fd_gradient(f_mu, mu.ravel())) < FD_TOL
        assert rel_err(domega.ravel(), fd_gradient(f_om, omega.ravel())) < FD_TOL
        assert rel_err(ds2, fd_gradient(f_s2, s2.copy())) < FD_TOL


def reference_class_row_sums(labels, rows, A):
    """np.add.at of each row into zeros at its class's row."""
    out = np.zeros((*rows.shape[:-2], A, rows.shape[-1]))
    np.add.at(out, labels if labels.ndim == 1 else (np.arange(len(labels))[:, None], labels), rows)
    return out


class TestClassRowSums:
    @pytest.mark.parametrize("A", [1, 2, 3])
    @pytest.mark.parametrize("B", [1, 2, 16])
    def test_equals_add_at_byte_for_byte(self, A, B):
        # the stage-2 gradient of omega_c's rows: one model and stacks, a
        # class with no rows, rows of -0.0 and special values
        rng = np.random.default_rng(10 * A + B)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 1.0])
        for trial in range(40):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 300))) if trial % 2 else (int(rng.integers(1, 300)),)
            labels = rng.integers(0, A, shape)
            if trial % 4 == 0:
                labels[labels == A - 1] = 0  # no row of the last class
            rows = rng.standard_normal((*shape, B)) * 10.0 ** rng.integers(-300, 300, (*shape, B))
            if trial % 3 == 0:
                mask = rng.random(rows.shape) < rng.random()
                rows[mask] = rng.choice(special, mask.sum())
            if trial % 5 == 0:
                rows[labels == 0] = -0.0
            with np.errstate(invalid="ignore", over="ignore"):
                got = losses._class_row_sums(labels[..., None] == np.arange(A), rows)
                want = reference_class_row_sums(labels, rows, A)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), trial
            assert got[~nan].tobytes() == want[~nan].tobytes(), trial


class TestL2Normalize:
    def test_three_four_five(self):
        out = losses.l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        assert np.array_equal(losses.l2_normalize_rows(row), row)

    def test_distance_dot_identity(self):
        rng = np.random.default_rng(11)
        M = losses.l2_normalize_rows(rng.standard_normal((10, 5)))
        for i in range(9):
            a, b = M[i], M[i + 1]
            assert ((a - b) ** 2).sum() + 2 * a @ b == pytest.approx(2.0, abs=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            losses.l2_normalize_rows(np.array([[0.0, 0.0]]))

    def test_backward_matches_fd(self):
        from conftest import fd_gradient, FD_TOL

        rng = np.random.default_rng(12)
        M = rng.standard_normal((4, 3))
        R = rng.standard_normal((4, 3))
        M_n = losses.l2_normalize_rows(M)
        dM = losses.l2_normalize_rows_backward(M, M_n, R)
        f = lambda v: float((losses.l2_normalize_rows(v.reshape(M.shape)) * R).sum())
        assert rel_err(dM.ravel(), fd_gradient(f, M.ravel())) < FD_TOL


def make_stage_case(seed, n=8, D=4, B=5, hidden=(6,), A=3):
    rng = np.random.default_rng(seed)
    params = model.init_params(D, {"spoof_type": A}, B=B, hidden=hidden, seed=seed)
    # move the variance heads off their zero init so their gradients are live
    params.w_lq[...] = rng.standard_normal(params.w_lq.shape) * 0.1
    params.b_lq[...] = rng.standard_normal(params.b_lq.shape) * 0.1
    params.w_dq[...] = rng.standard_normal(params.w_dq.shape) * 0.1
    params.b_dq[...] = 0.1
    X = rng.standard_normal((n, D))
    c = rng.integers(0, 2, n)
    if not np.any(c == data.SPOOF):
        c[0] = data.SPOOF
    if not np.any(c == data.LIVE):
        c[1] = data.LIVE
    s = {"spoof_type": rng.integers(0, A, n)}
    eps = rng.standard_normal((n, B))
    return params, X, c, s, eps


class TestStage1Objective:
    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_fd(self, seed):
        params, X, c, s, eps = make_stage_case(seed)
        lam = [0.0, 0.5, 1.0, 2.0][seed % 4]
        enable_lq = seed % 2 == 0

        def lg(p):
            loss, grads, _ = with_grads(losses.stage1_objective, p, X, c, s, eps, lambda_s=lam, enable_lq=enable_lq)
            return loss.total, grads

        check_param_gradients(params, lg)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_live_spoof_label_rejected(self, bad):
        params, X, c, s, eps = make_stage_case(106)
        c[3] = bad
        with pytest.raises(ValueError, match=r"labels out of range \[0, 2\)"):
            with_grads(losses.stage1_objective, params, X, c, s, eps)

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("enable_lq", [True, False])
    def test_out_of_range_semantic_label_of_a_spoof_row_rejected(self, bad, enable_lq):
        params, X, c, s, eps = make_stage_case(107)
        s["spoof_type"][np.flatnonzero(c == data.SPOOF)[-1]] = bad
        with pytest.raises(ValueError, match=r"labels out of range \[0, 3\)"):
            with_grads(losses.stage1_objective, params, X, c, s, eps, enable_lq=enable_lq)

    def test_lambda_zero_equals_live_spoof_ce(self):
        params, X, c, s, eps = make_stage_case(100)
        mu = model.embed(params, X)
        expected = semantic_ce(mu, params.omega_c, c)  # the two-way CE of the live/spoof label
        loss, _, _ = with_grads(losses.stage1_objective, params, X, c, s, eps, lambda_s=0.0)
        assert np.array_equal(loss.per_sample, expected.per_sample)

    def test_deterministic_arm_uses_mu(self):
        params, X, c, s, eps = make_stage_case(101)
        loss_det, _, _ = with_grads(losses.stage1_objective, params, X, c, s, eps, lambda_s=1.0, enable_lq=False)
        loss_eps0, _, _ = with_grads(losses.stage1_objective, params, X, c, s, np.zeros_like(eps),
                                     lambda_s=1.0, enable_lq=True)
        assert loss_det.total == pytest.approx(loss_eps0.total, rel=1e-12)

    def test_total_is_mean_of_per_sample(self):
        params, X, c, s, eps = make_stage_case(102)
        loss, _, _ = with_grads(losses.stage1_objective, params, X, c, s, eps, lambda_s=1.7)
        assert loss.total == pytest.approx(loss.per_sample.mean(), rel=1e-12)

    def test_sigma_l_gradient_is_label_free_over_paired_draws(self):
        # The semantic heads are bias-free, so the label enters the sigma_L
        # gradient only as -eps * omega_y, which cancels over eps and -eps.
        params, X, c, s, eps = make_stage_case(104, n=12)
        card = params.omega_s["spoof_type"].shape[0]
        spoof = c == data.SPOOF
        other = {"spoof_type": np.where(spoof, (s["spoof_type"] + 1) % card, s["spoof_type"])}

        def lq_grads(labels, draw):
            _, grads, _ = with_grads(losses.stage1_objective, params, X, c, labels, draw, lambda_s=1.0)
            return np.concatenate([grads.w_lq.ravel(), grads.b_lq.ravel()])

        paired_a = lq_grads(s, eps) + lq_grads(s, -eps)
        paired_b = lq_grads(other, eps) + lq_grads(other, -eps)
        assert rel_err(paired_a, paired_b) < 1e-12
        assert rel_err(lq_grads(s, eps), lq_grads(other, eps)) > 1e-2

    @pytest.mark.parametrize("n_spoof", [0, 1, 2, 21, 40])
    def test_semantic_head_equals_spoof_rows_alone(self, n_spoof):
        # bytes of the objective against the semantic CE taken over the
        # spoof rows cut out of the batch (a one-row cut takes
        # matrix-vector products, and a mean over the masked rows would
        # round differently)
        params, X, c, s, eps = make_stage_case(105, n=40)
        c[:] = data.LIVE
        c[:n_spoof] = data.SPOOF
        lam = 1.5
        loss, grads, aux = with_grads(losses.stage1_objective, params, X, c, s, eps, lambda_s=lam)

        mu, cache = model.embed_with_cache(params, X)
        expected = params.zeros_like()
        loss_c, dlogits_c = losses.softmax_ce_with_grads(mu @ params.omega_c.T, c)
        expected.omega_c += dlogits_c.T @ mu
        dmu = dlogits_c @ params.omega_c
        per_sample = loss_c.per_sample.copy()
        sp = c == data.SPOOF
        sigma_l = model.lq_variance(params, mu)
        dz = np.zeros_like(mu)
        if n_spoof:
            z_sp = (mu + eps * sigma_l)[sp]
            sem, dz_sp, domega = losses.semantic_ce_with_grads(z_sp, params.omega_s["spoof_type"], s["spoof_type"][sp])
            expected.omega_s["spoof_type"] += lam * domega
            dz[sp] = lam * dz_sp
            per_sample[sp] += lam * len(c) / n_spoof * sem.per_sample
            assert aux["loss_s"](()) == {"spoof_type": lam * sem.total}
        else:
            assert aux["loss_s"](()) == {}
        dw_lq, db_lq, dmu_head = model.lq_variance_backward(params, mu, sigma_l, dz * eps)
        expected.w_lq += dw_lq
        expected.b_lq += db_lq
        model.embed_backward(params, cache, dmu + dz + dmu_head, expected)
        assert loss.per_sample.tobytes() == per_sample.tobytes()
        assert np.array_equal(grads.flat, expected.flat)

    def test_permutation_invariance(self):
        params, X, c, s, eps = make_stage_case(103)
        perm = np.random.default_rng(0).permutation(len(c))
        a, _, _ = with_grads(losses.stage1_objective, params, X, c, s, eps, lambda_s=1.0)
        b, _, _ = with_grads(losses.stage1_objective,
            params, X[perm], c[perm], {k: v[perm] for k, v in s.items()}, eps[perm], lambda_s=1.0
        )
        assert a.total == pytest.approx(b.total, rel=1e-12)


class TestStage2Objective:
    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_fd_on_trainable_subset(self, seed):
        params, X, c, _, _ = make_stage_case(seed + 200)
        mask = selection_mask(params, {"omega_c", "w_dq", "b_dq"})

        def lg(p):
            loss, grads, _ = with_grads(losses.stage2_objective, p, model.embed(p, X), c)
            return loss.total, grads

        check_param_gradients(params, lg, mask=mask)

    def test_frozen_parameters_have_zero_gradients(self):
        params, X, c, _, _ = make_stage_case(300)
        _, grads, _ = with_grads(losses.stage2_objective, params, model.embed(params, X), c)
        live = {"omega_c", "w_dq", "b_dq"}
        for name, t in grads.named_tensors():
            if name not in live:
                assert np.all(t == 0.0), f"{name} should carry no stage-2 gradient"

    def test_underflowed_variance_is_floored_with_zero_gradient(self):
        params, X, c, _, _ = make_stage_case(302)
        params.b_dq[...] = -1e4  # exp() underflows to exactly 0
        mu = model.embed(params, X)
        loss, grads, _ = with_grads(losses.stage2_objective, params, mu, c)
        assert np.all(model.dq_variance(params, mu) == 0.0)
        floored = dq_nll(
            losses.l2_normalize_rows(mu), losses.l2_normalize_rows(params.omega_c),
            c, np.full(len(c), losses.SIGMA_SQ_FLOOR),
        )
        assert loss.total == floored.total
        assert np.all(grads.w_dq == 0.0) and grads.b_dq == 0.0
        assert np.any(grads.omega_c != 0.0)

    def test_parallel_row_distance_zero(self):
        params, X, c, _, _ = make_stage_case(301)
        # embed, then point omega_c rows exactly along each sample's mu
        mu = model.embed(params, X)
        params.omega_c[0] = mu[0] / np.linalg.norm(mu[0]) * 3.0
        c0 = np.zeros(len(c), dtype=np.int64)
        X0 = np.repeat(X[:1], len(c), axis=0)
        _, _, aux = with_grads(losses.stage2_objective, params, model.embed(params, X0), c0)
        assert aux["d2"][0] == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel_rows_distance_four(self):
        u = np.array([1.0, 0.0, 0.0])
        a = losses.l2_normalize_rows(u[None, :])
        b = losses.l2_normalize_rows(-u[None, :])
        assert ((a - b) ** 2).sum() == pytest.approx(4.0, abs=1e-12)
