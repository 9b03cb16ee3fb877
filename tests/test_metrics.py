"""Evaluation metrics against brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from probfas import inference, metrics
from conftest import reference_load_predictions, reference_report_json


def brute_force_tpr_at_fpr(scores, labels, target):
    """Exhaustive threshold enumeration oracle."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    n_live = np.sum(labels == 1)
    n_spoof = np.sum(labels == 0)
    best_tpr, best_thr = 0.0, np.inf
    for t in np.concatenate(([-np.inf], np.unique(scores), [np.inf])):
        acc = scores >= t
        fpr = np.sum(acc & (labels == 0)) / n_spoof
        tpr = np.sum(acc & (labels == 1)) / n_live
        if fpr <= target and (tpr > best_tpr or (tpr == best_tpr and t > best_thr)):
            best_tpr, best_thr = tpr, t
    return best_tpr


def brute_force_roc_sweep(scores, labels):
    """Quadratic oracle: rescan every score at each distinct threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_live = int(np.sum(labels == 1))
    n_spoof = int(np.sum(labels == 0))
    out = []
    for t in np.concatenate(([-np.inf], np.unique(scores), [np.inf])):
        accepted = scores >= t
        fpr = int(np.sum(accepted & (labels == 0))) / n_spoof
        tpr = int(np.sum(accepted & (labels == 1))) / n_live
        out.append((float(t), fpr, tpr))
    return out


def brute_force_rates(scores, labels, threshold):
    """(APCER, BPCER) with each count taken by a Python loop: a spoof
    score is accepted when score >= threshold, a live score is rejected
    when not, so a NaN score is never accepted."""
    accepted_spoof = rejected_live = n_spoof = n_live = 0
    for score, label in zip(np.asarray(scores).tolist(), np.asarray(labels).tolist()):
        if label == 0:
            n_spoof += 1
            accepted_spoof += score >= threshold
        else:
            n_live += 1
            rejected_live += not score >= threshold
    return 100.0 * accepted_spoof / n_spoof, 100.0 * rejected_live / n_live


def pairwise_auc(scores, labels):
    """O(n^2) oracle: P(live > spoof) + 0.5 P(tie)."""
    live = scores[labels == 1]
    spoof = scores[labels == 0]
    wins = ties = 0
    for a in live:
        for b in spoof:
            if a > b:
                wins += 1
            elif a == b:
                ties += 1
    return (wins + 0.5 * ties) / (len(live) * len(spoof))


class TestRates:
    def test_counting_example(self):
        scores = np.concatenate([np.full(3, 0.9), np.full(47, 0.1), np.full(10, 0.8)])
        labels = np.concatenate([np.zeros(50, dtype=int), np.ones(10, dtype=int)])
        rep = metrics.evaluate(scores, labels, 0.5)
        assert rep.apcer == pytest.approx(6.0)
        assert rep.bpcer == pytest.approx(0.0)

    def test_nan_live_score_is_rejected_as_the_roc_counts_it(self):
        scores = np.array([0.9, np.nan, 0.5, 0.2, np.nan, 0.7, 0.1])
        labels = np.array([1, 1, 1, 1, 0, 0, 0])
        tpr = {t: tpr for t, _, tpr in metrics.roc_sweep(scores, labels).tolist()}
        for threshold in (0.1, 0.5, 0.9):
            bpcer = metrics.evaluate(scores, labels, threshold).bpcer
            assert 100.0 - bpcer == pytest.approx(100.0 * tpr[threshold])

    def test_perfect_classifier(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([1, 1, 0, 0])
        rep = metrics.evaluate(scores, labels)
        assert rep.apcer == 0.0
        assert rep.bpcer == 0.0
        assert rep.hter == 0.0

    def test_acer_identity(self):
        assert metrics.acer(2.29, 0.96) == pytest.approx(1.625, abs=1e-15)
        assert metrics.round_half_up(metrics.acer(2.29, 0.96), 2) == 1.63

    def test_hter_equals_acer(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, 50)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        a = metrics.acer(*brute_force_rates(scores, labels, 0.4))
        assert metrics.evaluate(scores, labels, 0.4).hter == pytest.approx(a, rel=1e-15)

    def test_symmetric_errors(self):
        scores = np.array([0.9] * 9 + [0.1] + [0.1] * 9 + [0.9])
        labels = np.array([1] * 10 + [0] * 10)
        assert metrics.evaluate(scores, labels).hter == pytest.approx(10.0)

    def test_empty_class_rejected(self):
        with pytest.raises(metrics.MetricError):
            metrics.evaluate(np.array([0.5]), np.array([1]))
        with pytest.raises(metrics.MetricError):
            metrics.evaluate(np.array([0.5]), np.array([0]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0, 1, 40)
        labels = np.array([0, 1] * 20)
        perm = rng.permutation(40)
        # == compares every report field but the ROC array
        assert metrics.evaluate(scores, labels) == metrics.evaluate(scores[perm], labels[perm])
        assert metrics.auc(scores, labels) == pytest.approx(metrics.auc(scores[perm], labels[perm]), rel=1e-12)

    def test_rates_equal_brute_force_counts(self):
        # ties, NaN and +-inf scores; thresholds at every finite distinct
        # score, between neighbours and outside the range
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 120))
            scores = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 3)))
            scores[rng.random(n) < 0.1] = np.nan
            scores[rng.random(n) < 0.05] = np.inf
            scores[rng.random(n) < 0.05] = -np.inf
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            distinct = np.unique(scores[np.isfinite(scores)])
            thresholds = np.concatenate([distinct, (distinct[1:] + distinct[:-1]) / 2, [-1.5, 2.5]])
            for threshold in thresholds.tolist():
                rep = metrics.evaluate(scores, labels, threshold)
                assert (rep.apcer, rep.bpcer) == brute_force_rates(scores, labels, threshold), threshold


class TestRocSweep:
    def test_endpoints_present(self):
        scores = np.array([0.2, 0.8, 0.5])
        labels = np.array([0, 1, 1])
        roc = metrics.roc_sweep(scores, labels)
        pts = [(f, t) for _, f, t in roc]
        assert (0.0, 0.0) in pts
        assert (1.0, 1.0) in pts

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0, 1, 60)
        labels = rng.integers(0, 2, 60)
        labels[:2] = [0, 1]
        roc = metrics.roc_sweep(scores, labels)
        thr = [t for t, _, _ in roc]
        fpr = [f for _, f, _ in roc]
        tpr = [t2 for _, _, t2 in roc]
        assert thr == sorted(thr)
        assert all(a >= b for a, b in zip(fpr, fpr[1:]))
        assert all(a >= b for a, b in zip(tpr, tpr[1:]))

    def test_equals_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(40):
            n = int(rng.integers(2, 300))
            scores = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 4)))  # ties
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            cases.append((scores, labels))
        cases += [
            (np.full(9, 0.25), np.array([0, 1] * 4 + [1])),  # all scores equal
            (rng.uniform(0, 1, 12), np.array([1] + [0] * 11)),  # a single live sample
            (rng.uniform(0, 1, 12), np.array([0] + [1] * 11)),  # a single spoof sample
        ]
        for scores, labels in cases:
            oracle = [list(row) for row in brute_force_roc_sweep(scores, labels)]
            assert metrics.roc_sweep(scores, labels).tolist() == oracle
        # a NaN score is never accepted; NaN thresholds compare equal here only
        scores = np.array([0.3, np.nan, 0.7, 0.3, np.inf, -np.inf, np.nan])
        labels = np.array([0, 1, 1, 0, 0, 1, 0])
        got = metrics.roc_sweep(scores, labels)
        assert np.array_equal(got, np.array(brute_force_roc_sweep(scores, labels)), equal_nan=True)

    def test_duplicate_scores_collapse(self):
        scores = np.array([0.5, 0.5, 0.5, 0.9])
        labels = np.array([0, 1, 0, 1])
        roc = metrics.roc_sweep(scores, labels)
        assert len(roc) == 2 + 2  # two distinct scores plus sentinels


class TestTprAtFpr:
    def test_separated_scores(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        for target in (0.01, 0.3, 0.9):
            tpr, _ = metrics.tpr_at_fpr(scores, labels, target)
            assert tpr == 1.0

    def test_worked_example(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        labels = np.array([1, 1, 0, 0])
        tpr, attainable = metrics.tpr_at_fpr(scores, labels, 0.5)
        assert tpr == 1.0
        assert attainable

    def test_unattainable_flag(self):
        scores = np.array([0.9, 0.1])
        labels = np.array([1, 0])
        _, attainable = metrics.tpr_at_fpr(scores, labels, 0.01)
        assert not attainable

    def test_bad_target_rejected(self):
        scores = np.array([0.9, 0.1])
        labels = np.array([1, 0])
        for target in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                metrics.tpr_at_fpr(scores, labels, target)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(10, 200))
            scores = np.round(rng.uniform(0, 1, n), 2)  # force ties
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            target = float(rng.uniform(0.01, 0.9))
            got, _ = metrics.tpr_at_fpr(scores, labels, target)
            assert got == pytest.approx(brute_force_tpr_at_fpr(scores, labels, target), abs=1e-12)


class TestAuc:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(10, 80))
            scores = np.round(rng.uniform(0, 1, n), 2)
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            assert metrics.auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


class TestEvalReport:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0, 1, 50)
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        rep = metrics.evaluate(scores, labels, 0.5)
        assert rep.acer == pytest.approx((rep.apcer + rep.bpcer) / 2, rel=1e-15)
        assert rep.hter == pytest.approx(rep.acer, rel=1e-15)
        assert rep.n_live + rep.n_spoof == 50
        assert 0 <= rep.apcer <= 100 and 0 <= rep.bpcer <= 100

    def test_json_emission(self):
        import json

        scores = np.array([0.9, 0.1])
        labels = np.array([1, 0])
        rep = metrics.evaluate(scores, labels)
        doc = json.loads(rep.to_json())
        assert doc["acer"] == rep.acer

    def test_dump_file_equals_in_process(self, tmp_path):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 2, 30)
        labels[:2] = [0, 1]
        p_live = np.round(rng.uniform(0, 1, 30), 3)
        path = tmp_path / "preds.csv"
        inference.save_predictions(np.column_stack([1 - p_live, p_live]), np.ones(30), False, path)
        loaded, _, _, _ = reference_load_predictions(path)
        rep_a = metrics.evaluate(p_live, labels, 0.5)
        rep_b = metrics.evaluate(loaded, labels, 0.5)
        assert rep_a.to_json() == rep_b.to_json()

    def test_one_roc_sweep_per_evaluate(self, monkeypatch):
        calls = []
        sweep = metrics.roc_sweep
        monkeypatch.setattr(metrics, "roc_sweep", lambda *a: calls.append(1) or sweep(*a))
        scores = np.array([0.9, 0.4, 0.2, 0.6])
        labels = np.array([1, 1, 0, 0])
        metrics.evaluate(scores, labels)
        metrics.evaluate(scores, labels, include_roc=False)
        assert len(calls) == 2

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(metrics.MetricError, match="finite"):
            metrics.evaluate(np.array([0.9, 0.1]), np.array([1, 0]), threshold)


def spread_scores(n, seed):
    """n distinct scores over many magnitudes (below 1e-4 and near 1 too), both labels."""
    rng = np.random.default_rng(seed)
    scores = 1.0 / (1.0 + np.exp(-rng.standard_normal(n) * 6.0))
    labels = (rng.random(n) < scores).astype(np.int64)
    labels[:2] = [0, 1]
    return scores, labels


class TestReportJson:
    """to_json splices the ROC rows in from the numpy formatter: the bytes must be the
    ones json.dumps writes for the whole report."""

    def test_without_roc(self):
        rep = metrics.evaluate(*spread_scores(50, 1), include_roc=False)
        assert rep.to_json() == reference_report_json(rep)
        assert '"roc":[]' in rep.to_json()

    def test_four_row_roc(self):
        rep = metrics.evaluate(np.array([0.9, 0.1, 0.1]), np.array([1, 0, 1]))
        assert len(rep.roc) == 4
        assert rep.to_json() == reference_report_json(rep)

    def test_nan_threshold_between_the_sentinels(self):
        rep = metrics.evaluate(np.array([0.7, np.nan, 0.2, 3e-5]), np.array([1, 0, 0, 1]))
        assert np.isnan(rep.roc[-2, 0]) and rep.roc[0, 0] == -np.inf and rep.roc[-1, 0] == np.inf
        text = rep.to_json()
        assert text == reference_report_json(rep)
        assert '"roc":[[-Infinity,0.5,1.0],[3e-05,0.5,1.0],' in text and "[NaN,0.0,0.0],[Infinity,0.0,0.0]]" in text

    def test_rates_of_exactly_zero_and_one(self):
        rep = metrics.evaluate(np.array([0.25, 0.5, 0.75, 1.0]), np.array([0, 0, 1, 1]))
        assert {0.0, 0.5, 1.0} == set(rep.roc[:, 1:].ravel())
        assert rep.to_json() == reference_report_json(rep)

    @pytest.mark.parametrize("rows", [4, 4096, 4097, 8193, 10_002])  # 4096 rows to a formatted block
    def test_many_rows(self, rows):
        rep = metrics.evaluate(*spread_scores(rows - 2, rows))
        assert len(rep.roc) == rows
        assert rep.to_json() == reference_report_json(rep)

    def test_holds_little_beside_the_text(self):
        # json.dumps of the ROC as Python floats peaked at about 4.9 and 28 MB; the text is
        # about 0.6 and 6 MB
        def peak(n):
            rep = metrics.evaluate(*spread_scores(n - 2, 0))
            assert len(rep.roc) == n
            tracemalloc.start()
            try:
                rep.to_json()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10_000), peak(100_000)
        assert small <= 3e6 and large <= 16e6, f"to_json peaked at {small / 1e6:.2f}, then {large / 1e6:.2f} MB"
