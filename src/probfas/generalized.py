"""Self-labeling pipeline: train a semantic tagger on a label-sufficient
dataset, tag self-distributed labels on a label-deficient dataset, then
run the full two-stage training there."""

import json
from dataclasses import dataclass, field

import numpy as np

from . import experiments, inference, losses, model, training
from .training import ConfigError


@dataclass
class TaggerModel:
    params: model.ModelParams
    category: str

    def predict_proba(self, X):
        mu = model.embed(self.params, X)
        return inference.softmax_rows(model.semantic_logits(self.params, self.category, mu))

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)


def train_tagger(d_suf, category, config):
    """Supervised training of a semantic-category classifier on the spoof
    samples of the sufficient dataset."""
    if category not in d_suf.categories:
        raise ConfigError(f"category {category!r} not in dataset")
    spoof = d_suf.spoof_mask()
    labels = d_suf.s_labels(category)[spoof]
    if np.unique(labels).size < 2:
        raise ConfigError(f"category {category!r} is degenerate: fewer than 2 observed classes")

    params = model.ModelParams.stack([model.init_params(
        d_suf.feature_dim, {category: d_suf.categories[category]},
        B=config.embedding_dim, hidden=config.hidden, seed=config.seed,
    )])

    def step(batch, _):
        X, y = batch
        mu, cache = model.embed_with_cache(params, X)
        loss, dz, domega = losses.semantic_ce_with_grads(mu, params.omega_s[category], y)
        grads = params.zeros_like()
        grads.omega_s[category] += domega
        model.embed_backward(params, cache, dz, grads)
        return grads, {"total": loss.total}

    columns = [d_suf.X()[spoof][None], labels[None]]
    for _ in training.run_stage(params, columns, 3, config.stage1, [config.seed], step):
        pass  # the tagger keeps no per-epoch log
    return TaggerModel(params=params.replica(0), category=category)


def tagger_accuracy(tagger, ds):
    spoof = ds.spoof_mask()
    if not spoof.any():
        raise ConfigError("no spoof samples to score the tagger on")
    pred = tagger.predict(ds.X()[spoof])
    return float(np.mean(pred == ds.s_labels(tagger.category)[spoof]))


def self_label(tagger, d_def, category=None):
    """Assign argmax tagger predictions as the category's labels on spoof
    samples of a copy of d_def; d_def keeps the prior annotations.

    Returns (dataset, agreement_rate): the fraction of relabeled samples
    whose self-distributed label equals the prior annotation."""
    category = category or tagger.category
    if category != tagger.category:
        raise ConfigError(f"tagger was trained for {tagger.category!r}, not {category!r}")
    out = d_def.copy()
    spoof = out.spoof_mask()
    n_spoof = int(spoof.sum())
    if not n_spoof:
        return out, float("nan")
    pred = tagger.predict(out.x[spoof])
    labels = out.s[category]
    agree = int(np.count_nonzero(labels[spoof] == pred))
    labels[spoof] = pred
    return out, agree / n_spoof


@dataclass
class PipelineReport:
    tagger_accuracy: float
    agreement_rate: float
    eval_reports: dict = field(default_factory=dict)  # arm -> EvalReport

    def to_json(self):
        doc = {
            "tagger_accuracy": self.tagger_accuracy,
            "agreement_rate": self.agreement_rate,
            "arms": {arm: json.loads(rep.to_json()) for arm, rep in sorted(self.eval_reports.items())},
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def run_generalized_pipeline(d_suf, d_def, config, d_def_test=None, category=None,
                             arms=("s-lq-dq",), threshold=0.5):
    """Train tagger on d_suf, self-label d_def, train the requested arms
    there, and evaluate on d_def_test (defaults to d_def).

    Returns (params_by_arm, PipelineReport); params_by_arm holds the final
    model of each arm.
    """
    category = category or d_suf.primary_category
    tagger = train_tagger(d_suf, category, config)
    tagged, agreement = self_label(tagger, d_def, category)
    test = d_def_test if d_def_test is not None else tagged

    params_by_arm, reports = {}, {}
    for arm, _, params, (arm_report,) in experiments.run_arms([(tagged, test)], arms, [config], threshold):
        params_by_arm[arm], reports[arm] = params.replica(0), arm_report
    report = PipelineReport(
        tagger_accuracy=tagger_accuracy(tagger, d_suf),
        agreement_rate=agreement,
        eval_reports=reports,
    )
    return params_by_arm, report
