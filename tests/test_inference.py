"""Confidence computation with and without the data-quality correction,
plus the prediction dump format."""

import numpy as np
import pytest

from probfas import inference, losses, model
from conftest import reference_load_predictions

SIGMOID_NEG_20 = 2.0611536181902036e-09
# frozen closed-form values for squared distances (1, 4)
P0_D2_1_4_S2_1 = 0.8175744761936437
P0_D2_1_4_S2_10 = 0.5374298453437496


def rows_with_distances_squared(d2_pair):
    """One mu row at the origin, omega rows placed so ||omega_c - mu||^2 hits d2."""
    mu = np.zeros((1, 2))
    omega = np.array([[np.sqrt(d2_pair[0]), 0.0], [0.0, np.sqrt(d2_pair[1])]])
    return mu, omega


def corrected_one(mu, omega, s2):
    return inference.corrected_confidence(mu, omega, np.array([s2]))[0]


class TestStandardConfidence:
    def test_orthogonal_is_uniform(self):
        mu = np.array([[0.0, 0.0, 1.0]])
        omega = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        probs = inference.standard_confidence(mu, omega)
        assert probs.shape == (1, 2)
        assert np.allclose(probs, [[0.5, 0.5]], atol=1e-15)

    def test_confident_logits_frozen_value(self):
        mu = np.array([[1.0]])
        omega = np.array([[10.0], [-10.0]])
        probs = inference.standard_confidence(mu, omega)[0]
        assert probs[1] == pytest.approx(SIGMOID_NEG_20, rel=1e-8)
        assert np.argmax(probs) == 0

    def test_argmax_is_nearest_inner_product(self):
        rng = np.random.default_rng(0)
        mu = rng.standard_normal((20, 4))
        omega = rng.standard_normal((2, 4))
        probs = inference.standard_confidence(mu, omega)
        assert np.array_equal(np.argmax(probs, axis=1), np.argmax(mu @ omega.T, axis=1))

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(1)
        mu = rng.standard_normal((5, 3))
        omega = rng.standard_normal((2, 3))
        probs = inference.standard_confidence(mu, omega)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestCorrectedConfidence:
    def test_frozen_values_for_distances_one_four(self):
        mu, omega = rows_with_distances_squared((1.0, 4.0))
        assert corrected_one(mu, omega, 1.0)[0] == pytest.approx(P0_D2_1_4_S2_1, rel=1e-12)
        assert corrected_one(mu, omega, 10.0)[0] == pytest.approx(P0_D2_1_4_S2_10, rel=1e-12)

    def test_equidistant_is_uniform_for_every_variance(self):
        mu, omega = rows_with_distances_squared((2.0, 2.0))
        for s2 in (0.1, 1.0, 7.0):
            assert np.allclose(corrected_one(mu, omega, s2), [0.5, 0.5], atol=1e-12)

    def test_large_variance_limit_is_uniform(self):
        mu, omega = rows_with_distances_squared((1.0, 4.0))
        assert np.allclose(corrected_one(mu, omega, 1e12), [0.5, 0.5], atol=1e-9)

    def test_half_variance_equals_plain_distance_softmax(self):
        rng = np.random.default_rng(2)
        mu = rng.standard_normal((10, 3))
        omega = rng.standard_normal((2, 3))
        probs = inference.corrected_confidence(mu, omega, np.full(10, 0.5))
        for i in range(10):
            d2 = ((omega - mu[i]) ** 2).sum(axis=1)
            e = np.exp(-d2 + d2.min())
            assert np.allclose(probs[i], e / e.sum(), rtol=1e-12)

    def test_argmax_invariant_in_variance(self):
        rng = np.random.default_rng(3)
        mu = rng.standard_normal((10, 4))
        omega = rng.standard_normal((2, 4))
        classes = {
            tuple(np.argmax(inference.corrected_confidence(mu, omega, np.full(10, s2)), axis=1))
            for s2 in (1e-3, 0.1, 1.0, 10.0, 1e3)
        }
        assert len(classes) == 1

    def test_max_probability_strictly_decreasing_in_variance(self):
        mu, omega = rows_with_distances_squared((1.0, 4.0))
        grid = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
        maxima = [corrected_one(mu, omega, s2).max() for s2 in grid]
        assert all(a > b for a, b in zip(maxima, maxima[1:]))

    def test_nonpositive_variance_rejected(self):
        mu, omega = rows_with_distances_squared((1.0, 4.0))
        mu = np.repeat(mu, 3, axis=0)
        for s2 in (0.0, -1.0):
            with pytest.raises(ValueError):
                inference.corrected_confidence(mu, omega, np.array([1.0, s2, 1.0]))


class TestPredictBatch:
    def test_corrected_uses_normalized_geometry(self, tiny_params, tiny_dataset):
        X = tiny_dataset.X()
        probs, s2 = inference.predict_batch(tiny_params, X, corrected=True)
        mu = model.embed(tiny_params, X)
        mu_n = losses.l2_normalize_rows(mu)
        omega_n = losses.l2_normalize_rows(tiny_params.omega_c)
        assert np.array_equal(s2, model.dq_variance(tiny_params, mu))
        for i in (0, 5, len(probs) - 1):
            d2 = ((omega_n - mu_n[i]) ** 2).sum(axis=1)
            e = np.exp(-(d2 - d2.min()) / (2.0 * s2[i]))
            assert np.allclose(probs[i], e / e.sum(), rtol=1e-12)

    def test_uncorrected_matches_standard(self, tiny_params, tiny_dataset):
        X = tiny_dataset.X()
        probs, _ = inference.predict_batch(tiny_params, X, corrected=False)
        mu = model.embed(tiny_params, X)
        logits = tiny_params.omega_c @ mu[0]
        e = np.exp(logits - logits.max())
        assert np.allclose(probs[0], e / e.sum(), rtol=1e-12)

    def test_uncorrected_equals_corrected_decision_on_normalized_rows(self, tiny_params, tiny_dataset):
        # on normalized rows the distance softmax at unit variance is the
        # inner-product softmax, so decisions agree up to exact ties
        X = tiny_dataset.X()
        mu_n = losses.l2_normalize_rows(model.embed(tiny_params, X))
        omega_n = losses.l2_normalize_rows(tiny_params.omega_c)
        a = inference.standard_confidence(mu_n, omega_n)
        b = inference.corrected_confidence(mu_n, omega_n, np.ones(len(X)))
        assert np.allclose(a, b, rtol=1e-10)

    @pytest.mark.parametrize("corrected", [False, True])
    def test_rows_do_not_depend_on_batch(self, tiny_params, corrected):
        # tiny test widths only: at the benchmark widths a row's bytes can
        # depend on the row count (see the next test).
        # bit-exact: a row's prediction is the same in a 64-row batch, in a
        # 7-row batch, alone, and by the one-row formula (a gemv for the
        # uncorrected logits), so no matrix product may round some rows
        # differently
        X = np.random.default_rng(4).standard_normal((64, tiny_params.D)) * 3.0
        probs, s2 = inference.predict_batch(tiny_params, X, corrected=corrected)
        others = [inference.predict_batch(tiny_params, X[lo : lo + 7], corrected=corrected)
                  for lo in range(0, len(X), 7)]
        mu = model.embed(tiny_params, X)
        omega = tiny_params.omega_c
        if corrected:
            mu, omega = losses.l2_normalize_rows(mu), losses.l2_normalize_rows(omega)

        for i in range(len(X)):
            for got, got_s2 in (inference.predict_batch(tiny_params, X[i : i + 1], corrected=corrected),
                                (others[i // 7][0][i % 7 :], others[i // 7][1][i % 7 :])):
                assert got[0].tobytes() == probs[i].tobytes(), i
                assert got_s2[0].tobytes() == s2[i].tobytes(), i
            if corrected:
                logits = -((omega - mu[i]) ** 2).sum(axis=1) / (2.0 * s2[i])
            else:
                logits = omega @ mu[i]
            e = np.exp(logits - logits.max())
            assert (e / e.sum()).tobytes() == probs[i].tobytes(), i


    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("n", [20, 75, 76, 100, 300, 700])
    def test_rows_do_not_depend_on_the_other_rows_values(self, n, corrected):
        """At the benchmark widths, replacing every other row of a batch
        leaves the predictions of the kept rows. Their bytes can depend on
        the row count, though (see model.embed): the first 10 rows of a
        100-row set predicted alone and inside the whole set differed in 9
        of 10 rows uncorrected and 4 of 10 corrected. So nothing here
        compares batches of different counts."""
        params = model.init_params(8, {"spoof_type": 3}, B=16, hidden=(32,))
        rng = np.random.default_rng(n)
        params.w_dq[...] = rng.standard_normal(params.w_dq.shape) * 0.1
        X = rng.standard_normal((n, 8)) * 3.0
        other = X.copy()
        other[1::2] = rng.standard_normal(other[1::2].shape) * 3.0
        for got, want in zip(inference.predict_batch(params, other, corrected=corrected),
                             inference.predict_batch(params, X, corrected=corrected)):
            assert got[::2].tobytes() == want[::2].tobytes()


class TestPredictionDump:
    def test_round_trip(self, tiny_params, tiny_dataset, tmp_path):
        probs, s2 = inference.predict_batch(tiny_params, tiny_dataset.X(), corrected=True)
        path = tmp_path / "preds.csv"
        inference.save_predictions(probs, s2, True, path)
        p_live, predicted, quality, corrected = reference_load_predictions(path)
        assert np.array_equal(p_live, probs[:, 1])
        assert np.array_equal(predicted, np.argmax(probs, axis=1))
        assert np.array_equal(quality, s2)
        assert corrected.all() and len(corrected) == len(probs)
