"""Kernel-level checks: frozen numeric oracles and stability."""

import itertools
import math

import numpy as np
import pytest

from probfas import kernels

# Constants evaluated independently with 50-digit arithmetic and frozen.
LOG_3 = 1.0986122886681098
NEG_LOG_SIGMOID_20 = 2.0611536203143807e-09
HALF_LOG_2PI = 0.9189385332046727
ONE_PLUS_HALF_LOG_2PI = 1.9189385332046727


SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308])


def assert_same_bytes(got, want, label):
    """Equal bytes, a NaN compared as a NaN: its sign and payload are numpy's
    to choose."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), label
    assert got[~nan].tobytes() == want[~nan].tobytes(), label


def reference_softmax_xent(logits, labels):
    """softmax_xent with the max and the sum as numpy reductions over the
    class axis."""
    onehot = labels[..., None] == np.arange(logits.shape[-1])
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expv = np.exp(shifted)
    denom = expv.sum(axis=-1)
    return np.log(denom) - shifted[onehot].reshape(labels.shape), expv / denom[..., None], onehot


def assert_softmax_xent_equals_the_reductions(logits, labels, label):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        got, want = kernels.softmax_xent(logits, labels), reference_softmax_xent(logits, labels)
    for name, g, w in zip(("loss", "probs", "one-hot"), got, want):
        assert_same_bytes(g, w, f"{label}: {name}")


class TestSoftmaxXent:
    @pytest.mark.parametrize("A", [*range(1, 10), 16])
    def test_equals_the_axis_reductions_byte_for_byte(self, A):
        # below 8 classes the kernel reduces column by column; random
        # scales from 1e-300 to 1e300, with special values in some draws
        rng = np.random.default_rng(A)
        for trial in range(60):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 40))) if trial % 2 else (int(rng.integers(1, 40)),)
            logits = rng.standard_normal((*shape, A)) * 10.0 ** rng.integers(-300, 300, (*shape, A))
            if trial % 3 == 0:
                mask = rng.random(logits.shape) < rng.random()
                logits[mask] = rng.choice(SPECIAL, mask.sum())
            assert_softmax_xent_equals_the_reductions(logits, rng.integers(0, A, shape), f"{A} classes, draw {trial}")

    @pytest.mark.parametrize("A", [2, 3])
    def test_equals_the_axis_reductions_on_every_row_of_special_values(self, A):
        logits = np.array(list(itertools.product(SPECIAL, repeat=A)))
        labels = np.arange(len(logits)) % A
        assert_softmax_xent_equals_the_reductions(logits, labels, f"{A} classes")

    def test_uniform_logits_give_log_cardinality(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        loss, probs, _ = kernels.softmax_xent(logits, labels)
        assert np.allclose(loss, LOG_3, rtol=0, atol=1e-15)
        assert np.allclose(probs, 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_confident_pair_matches_frozen_sigmoid_value(self):
        logits = np.array([[10.0, -10.0]])
        labels = np.array([0])
        loss, probs, _ = kernels.softmax_xent(logits, labels)
        assert loss[0] == pytest.approx(NEG_LOG_SIGMOID_20, rel=1e-12)
        assert probs[0, 1] == pytest.approx(NEG_LOG_SIGMOID_20, rel=1e-8)

    def test_probs_are_normalized(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((10, 5)) * 3
        labels = rng.integers(0, 5, 10)
        loss, probs, _ = kernels.softmax_xent(logits, labels)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(loss >= 0)

    def test_stable_at_extreme_logits(self):
        logits = np.array([[1e3, -1e3], [-1e3, 1e3], [1e3, 1e3]])
        labels = np.array([0, 0, 1])
        loss, probs, _ = kernels.softmax_xent(logits, labels)
        assert np.all(np.isfinite(loss))
        assert np.all(np.isfinite(probs))
        assert loss[0] == 0.0
        assert loss[1] == pytest.approx(2e3)

    def test_one_hot_of_the_labels(self):
        labels = np.array([[2, 0], [1, 1]])
        _, _, onehot = kernels.softmax_xent(np.zeros((2, 2, 3)), labels)
        assert onehot.dtype == bool
        assert np.array_equal(onehot, np.eye(3, dtype=bool)[labels])

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("shape", [(4,), (2, 4)])
    def test_out_of_range_label_rejected(self, bad, shape):
        labels = np.zeros(shape, dtype=np.int64)
        labels.flat[-1] = bad
        with pytest.raises(ValueError, match=r"labels out of range \[0, 3\)"):
            kernels.softmax_xent(np.zeros((*shape, 3)), labels)


class TestGaussianNll:
    def test_zero_distance_unit_variance(self):
        out = kernels.gaussian_nll(np.array([0.0]), np.array([1.0]))
        assert out[0] == pytest.approx(HALF_LOG_2PI, rel=1e-15)

    def test_distance_e_variance_e(self):
        out = kernels.gaussian_nll(np.array([math.e]), np.array([math.e]))
        assert out[0] == pytest.approx(ONE_PLUS_HALF_LOG_2PI, rel=1e-15)

    def test_vectorized_matches_scalar_formula(self):
        rng = np.random.default_rng(1)
        d2 = rng.uniform(0.01, 5.0, 20)
        s2 = rng.uniform(0.1, 3.0, 20)
        expected = 0.5 * (np.log(s2) + d2 / s2) + HALF_LOG_2PI
        assert np.allclose(kernels.gaussian_nll(d2, s2), expected, rtol=1e-12)


def reference_smooth_rows(X):
    """The clamped 3-wide boxcar as a per-column loop of np.mean."""
    D = X.shape[1]
    out = np.empty_like(X)
    for j in range(D):
        out[:, j] = X[:, max(0, j - 1) : min(D, j + 2)].mean(axis=1)
    return out


class TestSmoothRows:
    def test_window_three_hand_oracle(self):
        X = np.array([[1.0, 2.0, 4.0, 8.0]])
        # clamped boxcar: edges average over the available 2 entries
        expected = np.array([[1.5, 7.0 / 3.0, 14.0 / 3.0, 6.0]])
        assert np.allclose(kernels.smooth_rows(X), expected, rtol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_per_column_loop_byte_for_byte(self, seed):
        # signed zeros, infinities and extreme magnitudes included; the sign
        # and payload of a NaN are numpy's to choose (they even vary with an
        # array's length), so a NaN is compared as a NaN
        rng = np.random.default_rng(seed)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 1.0])
        for D in range(1, 65):
            X = rng.standard_normal((5, D)) * 10.0 ** rng.integers(-300, 300, (5, D))
            mask = rng.random((5, D)) < rng.random()
            X[mask] = rng.choice(special, mask.sum())
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = kernels.smooth_rows(X), reference_smooth_rows(X)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), D
            assert got[~nan].tobytes() == want[~nan].tobytes(), D


class TestAdamStep:
    def test_single_step_closed_form(self):
        p = np.array([0.0])
        g = np.array([2.0])
        m = np.zeros(1)
        v = np.zeros(1)
        kernels.adam_step(p, g, m, v, 0.1, 1, np.empty((2, 1)))
        # bias correction makes mhat = g and vhat = g^2 at t=1
        expected = -0.1 * 2.0 / (2.0 + 1e-8)
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_multi_step_matches_reference_loop(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal(7)
        ref_p = p.copy()
        m = np.zeros(7)
        v = np.zeros(7)
        ref_m = np.zeros(7)
        ref_v = np.zeros(7)
        for t in range(1, 6):
            g = rng.standard_normal(7)
            kernels.adam_step(p, g, m, v, 0.05, t, np.empty((2, 7)))
            ref_m = 0.9 * ref_m + 0.1 * g
            ref_v = 0.999 * ref_v + 0.001 * g * g
            mhat = ref_m / (1 - 0.9**t)
            vhat = ref_v / (1 - 0.999**t)
            ref_p = ref_p - 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(p, ref_p, rtol=1e-12)

    @pytest.mark.parametrize("S", [1, 5])
    def test_equals_the_textbook_expression_bit_for_bit(self, S):
        rng = np.random.default_rng(S)
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
        p = rng.standard_normal((S, 11))
        m, v = np.zeros_like(p), np.zeros_like(p)
        ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
        scratch = np.full((2, *p.shape), np.nan)  # stale scratch must not leak in
        for t in range(1, 21):
            g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
            kernels.adam_step(p, g, m, v, lr, t, scratch)
            ref_m = beta1 * ref_m + (1 - beta1) * g
            ref_v = beta2 * ref_v + (1 - beta2) * g * g
            ref_p -= lr * (ref_m / (1 - beta1 ** t)) / (np.sqrt(ref_v / (1 - beta2 ** t)) + eps)
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)
            assert np.array_equal(p, ref_p), f"step {t}"
