"""Kernel-level checks: frozen numeric oracles and stability."""

import math

import numpy as np
import pytest

from probfas import kernels

# Constants evaluated independently with 50-digit arithmetic and frozen.
LOG_3 = 1.0986122886681098
NEG_LOG_SIGMOID_20 = 2.0611536203143807e-09
HALF_LOG_2PI = 0.9189385332046727
ONE_PLUS_HALF_LOG_2PI = 1.9189385332046727


class TestSoftmaxXent:
    def test_uniform_logits_give_log_cardinality(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        loss, probs = kernels.softmax_xent(logits, labels)
        assert np.allclose(loss, LOG_3, rtol=0, atol=1e-15)
        assert np.allclose(probs, 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_confident_pair_matches_frozen_sigmoid_value(self):
        logits = np.array([[10.0, -10.0]])
        labels = np.array([0])
        loss, probs = kernels.softmax_xent(logits, labels)
        assert loss[0] == pytest.approx(NEG_LOG_SIGMOID_20, rel=1e-12)
        assert probs[0, 1] == pytest.approx(NEG_LOG_SIGMOID_20, rel=1e-8)

    def test_probs_are_normalized(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((10, 5)) * 3
        labels = rng.integers(0, 5, 10)
        loss, probs = kernels.softmax_xent(logits, labels)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(loss >= 0)

    def test_stable_at_extreme_logits(self):
        logits = np.array([[1e3, -1e3], [-1e3, 1e3], [1e3, 1e3]])
        labels = np.array([0, 0, 1])
        loss, probs = kernels.softmax_xent(logits, labels)
        assert np.all(np.isfinite(loss))
        assert np.all(np.isfinite(probs))
        assert loss[0] == 0.0
        assert loss[1] == pytest.approx(2e3)


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


class TestSmoothRows:
    def test_window_one_is_identity(self):
        X = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(kernels.smooth_rows(X, 1), X)

    def test_window_three_hand_oracle(self):
        X = np.array([[1.0, 2.0, 4.0, 8.0]])
        # clamped boxcar: edges average over the available 2 entries
        expected = np.array([[1.5, 7.0 / 3.0, 14.0 / 3.0, 6.0]])
        assert np.allclose(kernels.smooth_rows(X, 3), expected, rtol=1e-15)

    def test_even_or_nonpositive_window_rejected(self):
        X = np.ones((2, 3))
        with pytest.raises(ValueError):
            kernels.smooth_rows(X, 2)
        with pytest.raises(ValueError):
            kernels.smooth_rows(X, 0)


class TestAdamStep:
    def test_single_step_closed_form(self):
        p = np.array([0.0])
        g = np.array([2.0])
        m = np.zeros(1)
        v = np.zeros(1)
        kernels.adam_step(p, g, m, v, 0.1, 1)
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
            kernels.adam_step(p, g, m, v, 0.05, t)
            ref_m = 0.9 * ref_m + 0.1 * g
            ref_v = 0.999 * ref_v + 0.001 * g * g
            mhat = ref_m / (1 - 0.9**t)
            vhat = ref_v / (1 - 0.999**t)
            ref_p = ref_p - 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(p, ref_p, rtol=1e-12)
