"""Self-labeling pipeline: tagger training, label transfer with
provenance, and end-to-end behavior."""

import json

import numpy as np
import pytest

from probfas import data, experiments, generalized, metrics, model, training
from conftest import reference_report_json, train_one


def sep_dataset(seed, n=40, overlap=0.0):
    return data.generate_synthetic(n, 8, {"spoof_type": 3}, overlap, seed=seed)


def quick_config(seed=0):
    cfg = training.TrainConfig(seed=seed)
    cfg.stage1.epochs = 40
    return cfg


class TestTagger:
    def test_separable_data_high_heldout_accuracy(self):
        full = sep_dataset(0, n=60)
        d_suf, held = data.split_dataset(full, 0.3, seed=0)
        tagger = generalized.train_tagger(d_suf, "spoof_type", quick_config())
        assert generalized.tagger_accuracy(tagger, held) >= 0.95

    def test_deterministic(self):
        d_suf = sep_dataset(1)
        cfg = quick_config(3)
        a = generalized.train_tagger(d_suf, "spoof_type", cfg)
        b = generalized.train_tagger(d_suf, "spoof_type", cfg)
        assert np.array_equal(a.params.flat, b.params.flat)

    def test_probabilities_form_a_simplex(self):
        d_suf = sep_dataset(2)
        tagger = generalized.train_tagger(d_suf, "spoof_type", quick_config())
        probs = tagger.predict_proba(d_suf.X())
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_unknown_category_rejected(self):
        with pytest.raises(training.ConfigError):
            generalized.train_tagger(sep_dataset(3), "no_such", quick_config())

    def test_degenerate_category_rejected(self):
        ds = sep_dataset(4)
        ds.s_labels("spoof_type")[:] = 0
        with pytest.raises(training.ConfigError, match="degenerate"):
            generalized.train_tagger(ds, "spoof_type", quick_config())


class TestSelfLabel:
    def test_never_mutates_features_or_binary_labels(self):
        d_suf = sep_dataset(5)
        d_def = sep_dataset(6)
        tagger = generalized.train_tagger(d_suf, "spoof_type", quick_config())
        tagged, _ = generalized.self_label(tagger, d_def)
        assert np.array_equal(tagged.X(), d_def.X())
        assert np.array_equal(tagged.c_labels(), d_def.c_labels())

    def test_leaves_d_def_labels_unchanged(self):
        # the caller's dataset keeps the prior annotations for agreement analysis
        d_suf = sep_dataset(7)
        d_def = data.generate_synthetic(40, 8, {"spoof_type": 3, "lighting": 2}, 0.0, seed=8)
        before = d_def.copy()
        tagger = generalized.train_tagger(d_suf, "spoof_type", quick_config())
        tagged, agreement = generalized.self_label(tagger, d_def)
        assert d_def == before
        assert agreement < 1.0  # some labels did change, in the copy only
        assert not np.array_equal(tagged.s_labels(), d_def.s_labels())
        assert np.array_equal(tagged.s_labels("lighting"), d_def.s_labels("lighting"))

    def test_agreement_rate_matches_label_comparison(self):
        d_suf = sep_dataset(9)
        d_def = sep_dataset(10)
        tagger = generalized.train_tagger(d_suf, "spoof_type", quick_config())
        tagged, agreement = generalized.self_label(tagger, d_def)
        spoof = d_def.spoof_mask()
        same = np.mean(tagged.s_labels()[spoof] == d_def.s_labels()[spoof])
        assert agreement == pytest.approx(float(same))

    def test_oracle_like_tagger_keeps_labels_on_own_distribution(self):
        # cleanly separated clusters: self-labels on the training set itself
        # should almost perfectly agree with the annotations
        d_suf = sep_dataset(11, n=60)
        tagger = generalized.train_tagger(d_suf, "spoof_type", quick_config())
        _, agreement = generalized.self_label(tagger, d_suf)
        assert agreement >= 0.99

    def test_category_mismatch_rejected(self):
        d_suf = sep_dataset(12)
        tagger = generalized.train_tagger(d_suf, "spoof_type", quick_config())
        with pytest.raises(training.ConfigError):
            generalized.self_label(tagger, d_suf, category="other")


class TestPipeline:
    def test_identical_self_labels_give_identical_training(self):
        # when self-labels coincide with the annotations, downstream
        # training must match direct training parameter-for-parameter
        full = sep_dataset(13, n=45)
        d_suf, d_def = data.split_dataset(full, 1 / 3, seed=13)
        cfg = quick_config()
        tagger = generalized.train_tagger(d_suf, "spoof_type", cfg)
        tagged, agreement = generalized.self_label(tagger, d_def)
        if agreement < 1.0:
            pytest.skip("tagger is not an oracle on this draw")
        p_tagged, _ = train_one(tagged, cfg, "s-lq-dq")
        p_direct, _ = train_one(d_def, cfg, "s-lq-dq")
        assert np.array_equal(p_tagged.flat, p_direct.flat)

    def test_arms_sharing_stage1_equal_separate_runs(self, monkeypatch):
        d_suf, d_def = sep_dataset(21), sep_dataset(22)
        cfg = quick_config(3)
        calls = []
        train_stage1_lq = training.train_stage1_lq
        monkeypatch.setattr(training, "train_stage1_lq",
                            lambda *args, **kwargs: calls.append(1) or train_stage1_lq(*args, **kwargs))
        params_by_arm, report = generalized.run_generalized_pipeline(d_suf, d_def, cfg, arms=("s-lq", "s-lq-dq"))
        assert len(calls) == 1
        tagged, _ = generalized.self_label(generalized.train_tagger(d_suf, "spoof_type", cfg), d_def)
        for arm in ("s-lq", "s-lq-dq"):
            [(_, _, alone, (alone_report,))] = experiments.run_arms([(tagged, tagged)], [arm], [cfg])
            assert params_by_arm[arm].flat.tobytes() == alone.replica(0).flat.tobytes()
            assert report.eval_reports[arm].to_json() == alone_report.to_json()

    def test_runs_under_total_semantic_noise(self):
        d_suf = sep_dataset(15)
        d_def = data.inject_semantic_label_noise(sep_dataset(16), 1.0, seed=0)
        _, report = generalized.run_generalized_pipeline(d_suf, d_def, quick_config(), arms=("s-lq",))
        assert np.isfinite(report.eval_reports["s-lq"].acer)

    def test_deterministic_end_to_end(self):
        d_suf = sep_dataset(17)
        d_def = sep_dataset(18)
        cfg = quick_config(5)
        params_a, rep_a = generalized.run_generalized_pipeline(d_suf, d_def, cfg, arms=("s",))
        params_b, rep_b = generalized.run_generalized_pipeline(d_suf, d_def, cfg, arms=("s",))
        assert np.array_equal(
            params_a["s"].flat, params_b["s"].flat
        )
        assert rep_a.to_json() == rep_b.to_json()

    def test_report_bytes_are_json_dumps_of_the_arm_reports(self):
        rng = np.random.default_rng(3)
        scores, labels = rng.random(300), rng.integers(0, 2, 300)
        reports = {"s": metrics.evaluate(scores, labels), "baseline": metrics.evaluate(scores, labels, include_roc=False)}
        report = generalized.PipelineReport(tagger_accuracy=0.75, agreement_rate=2 / 3, eval_reports=reports)
        doc = {"tagger_accuracy": 0.75, "agreement_rate": 2 / 3,
               "arms": {arm: json.loads(reference_report_json(rep)) for arm, rep in reports.items()}}
        assert report.to_json() == json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def test_report_serializes(self):
        d_suf = sep_dataset(19)
        d_def = sep_dataset(20)
        _, report = generalized.run_generalized_pipeline(d_suf, d_def, quick_config(), arms=("s",))
        doc = json.loads(report.to_json())
        assert set(doc) == {"tagger_accuracy", "agreement_rate", "arms"}
        assert "s" in doc["arms"]

    def test_self_labeled_semantics_beat_baseline_majority(self):
        # distribution shift between the two datasets makes self-labels
        # noisy, yet semantic supervision should still help more often
        # than not across seeds
        wins = 0
        for seed in range(5):
            cfg = training.TrainConfig(seed=seed)
            d_suf = data.generate_synthetic(120, 8, {"spoof_type": 3}, 1.0, seed + 1000)
            d_def_full = data.generate_synthetic(120, 8, {"spoof_type": 3}, 1.5, seed)
            d_def, d_def_test = data.split_dataset(d_def_full, 0.5, seed)
            _, report = generalized.run_generalized_pipeline(
                d_suf, d_def, cfg, d_def_test=d_def_test, arms=("baseline", "s")
            )
            wins += report.eval_reports["s"].acer <= report.eval_reports["baseline"].acer
        assert wins >= 3
