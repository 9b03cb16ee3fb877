"""Anti-spoofing evaluation metrics over live-probability scores.

Convention: live (label 1) is the positive class, so FPR is the rate of
spoof samples accepted as live. A sample is accepted when its live
probability is >= threshold. All rates are percentages except TPR/FPR
values in the ROC, which are fractions in [0, 1].
"""

import json
import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np


class MetricError(Exception):
    """Raised when a metric is undefined (e.g. an empty class)."""


def round_half_up(value, ndigits=2):
    """Conventional half-up rounding for reported rates (Python's built-in
    round is half-even, which disagrees with how tables are reported)."""
    q = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(float(value))).quantize(q, rounding=ROUND_HALF_UP))


def _as_arrays(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same shape")
    return scores, labels


def _check_both_classes(labels):
    if not np.any(labels == 1) or not np.any(labels == 0):
        raise MetricError("both live and spoof samples are required")


def apcer(scores, labels, threshold=0.5):
    """Percent of spoof samples accepted as live (p_live >= threshold)."""
    scores, labels = _as_arrays(scores, labels)
    spoof = labels == 0
    if not np.any(spoof):
        raise MetricError("APCER undefined: no spoof samples")
    return 100.0 * int(np.sum(scores[spoof] >= threshold)) / int(spoof.sum())


def bpcer(scores, labels, threshold=0.5):
    """Percent of live samples rejected: not p_live >= threshold, so a NaN
    score is rejected, as roc_sweep counts it."""
    scores, labels = _as_arrays(scores, labels)
    live = labels == 1
    if not np.any(live):
        raise MetricError("BPCER undefined: no live samples")
    return 100.0 * int(np.sum(~(scores[live] >= threshold))) / int(live.sum())


def acer(apcer_value, bpcer_value):
    return (apcer_value + bpcer_value) / 2.0


def roc_sweep(scores, labels):
    """(threshold, fpr, tpr) at every distinct score plus -inf/+inf sentinels.

    Acceptance rule is score >= threshold, so fpr and tpr are
    non-increasing in threshold; endpoints (0,0) and (1,1) are always
    present. Fractions, not percentages. One sort per class: the count
    of scores >= t is the class size minus the sorted position of t.
    """
    scores, labels = _as_arrays(scores, labels)
    _check_both_classes(labels)
    thresholds = np.concatenate(([-np.inf], np.unique(scores), [np.inf]))
    rates = []
    for cls in (0, 1):
        cls_scores = scores[labels == cls]
        ranked = np.sort(cls_scores[~np.isnan(cls_scores)])  # a NaN score is never accepted
        accepted = ranked.size - np.searchsorted(ranked, thresholds, side="left")
        rates.append((accepted / cls_scores.size).tolist())
    return list(zip(thresholds.tolist(), *rates))


def _best_tpr(sweep, n_spoof, fpr_target):
    """tpr_at_fpr over a roc_sweep result given as a (K, 3) array."""
    if not 0.0 < fpr_target < 1.0:
        raise ValueError(f"fpr_target must be in (0,1), got {fpr_target}")
    within = sweep[:, 1] <= fpr_target  # always holds at the +inf sentinel
    return float(sweep[within, 2].max()), n_spoof * fpr_target >= 1.0


def tpr_at_fpr(scores, labels, fpr_target):
    """Best attainable TPR subject to FPR <= fpr_target. Returns (tpr,
    attainable_flag): the flag is False when there are too few spoof
    samples to resolve the target (fewer than 1/fpr_target spoof samples)."""
    scores, labels = _as_arrays(scores, labels)
    sweep = np.array(roc_sweep(scores, labels))
    return _best_tpr(sweep, int(np.sum(labels == 0)), fpr_target)


def auc(scores, labels):
    """Trapezoidal area under the ROC."""
    sweep = np.array(roc_sweep(scores, labels))[::-1]  # fpr and tpr ascending
    return float(np.trapezoid(sweep[:, 2], sweep[:, 1]))


@dataclass
class EvalReport:
    apcer: float
    bpcer: float
    acer: float
    hter: float  # (FAR + FRR)/2, equal to ACER under the live-positive convention
    threshold_used: float
    n_live: int
    n_spoof: int
    tpr_at_fpr: dict = field(default_factory=dict)  # fpr target -> (tpr, attainable)
    roc: list = field(default_factory=list)

    def to_json(self):
        doc = {
            "apcer": self.apcer,
            "bpcer": self.bpcer,
            "acer": self.acer,
            "hter": self.hter,
            "threshold_used": self.threshold_used,
            "n_live": self.n_live,
            "n_spoof": self.n_spoof,
            "tpr_at_fpr": {
                format(k, ".17g"): {"tpr": v[0], "attainable": v[1]}
                for k, v in sorted(self.tpr_at_fpr.items())
            },
            "roc": [[t, f, tp] for t, f, tp in self.roc],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def evaluate(scores, labels, threshold=0.5, fpr_targets=(0.01, 0.005, 0.001), include_roc=True):
    """Rates at threshold plus TPR at each FPR target, all from one ROC sweep.
    include_roc=False leaves the sweep out of the report."""
    scores, labels = _as_arrays(scores, labels)
    _check_both_classes(labels)
    if not math.isfinite(threshold):
        raise MetricError(f"threshold must be finite, got {threshold}")
    a = apcer(scores, labels, threshold)
    b = bpcer(scores, labels, threshold)
    roc = roc_sweep(scores, labels)
    sweep = np.array(roc)
    n_spoof = int(np.sum(labels == 0))
    return EvalReport(
        apcer=a,
        bpcer=b,
        acer=acer(a, b),
        hter=acer(a, b),
        threshold_used=float(threshold),
        n_live=int(np.sum(labels == 1)),
        n_spoof=n_spoof,
        tpr_at_fpr={t: _best_tpr(sweep, n_spoof, t) for t in fpr_targets},
        roc=roc if include_roc else [],
    )
