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

from . import data


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


def acer(apcer_value, bpcer_value):
    return (apcer_value + bpcer_value) / 2.0


def check_threshold(threshold):
    """Raises MetricError unless the acceptance threshold is finite."""
    if not math.isfinite(threshold):
        raise MetricError(f"threshold must be finite, got {threshold}")


def _accepted(scores, labels, thresholds):
    """[(accepted, n)] of the spoof class (0), then the live class (1):
    how many of the class's scores are >= each threshold, a NaN score never
    counted, and the class size. One sort per class: the count of scores
    >= t is the number of sorted scores minus the sorted position of t."""
    counts = []
    for cls in (0, 1):
        cls_scores = scores[labels == cls]
        ranked = np.sort(cls_scores[~np.isnan(cls_scores)])
        counts.append((ranked.size - np.searchsorted(ranked, thresholds, side="left"), cls_scores.size))
    return counts


def roc_sweep(scores, labels):
    """(K, 3) float64 rows (threshold, fpr, tpr), thresholds ascending over
    every distinct score plus -inf/+inf sentinels. fpr and tpr are fractions,
    non-increasing in threshold from (1, 1) to (0, 0)."""
    scores, labels = _as_arrays(scores, labels)
    if not np.any(labels == 1) or not np.any(labels == 0):
        raise MetricError("both live and spoof samples are required")
    thresholds = np.concatenate(([-np.inf], np.unique(scores), [np.inf]))
    (spoof, n_spoof), (live, n_live) = _accepted(scores, labels, thresholds)
    return np.column_stack([thresholds, spoof / n_spoof, live / n_live])


def _best_tpr(sweep, n_spoof, fpr_target):
    """tpr_at_fpr over a roc_sweep result."""
    if not 0.0 < fpr_target < 1.0:
        raise ValueError(f"fpr_target must be in (0,1), got {fpr_target}")
    within = sweep[:, 1] <= fpr_target  # always holds at the +inf sentinel
    return float(sweep[within, 2].max()), n_spoof * fpr_target >= 1.0


def tpr_at_fpr(scores, labels, fpr_target):
    """Best attainable TPR subject to FPR <= fpr_target. Returns (tpr,
    attainable_flag): the flag is False when there are too few spoof
    samples to resolve the target (fewer than 1/fpr_target spoof samples)."""
    scores, labels = _as_arrays(scores, labels)
    return _best_tpr(roc_sweep(scores, labels), int(np.sum(labels == 0)), fpr_target)


def auc(scores, labels):
    """Trapezoidal area under the ROC."""
    sweep = roc_sweep(scores, labels)[::-1]  # fpr and tpr ascending
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
    tpr_at_fpr: dict  # fpr target -> (tpr, attainable)
    roc: np.ndarray = field(compare=False)  # roc_sweep's (K, 3) rows, or (0, 3)

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
            "roc": [],
        }
        # the ROC's rows are spliced in as numpy formats them, the bytes json.dumps gives them
        head, roc, tail = json.dumps(doc, sort_keys=True, separators=(",", ":")).partition('"roc":[')
        return data.format_rows(head + roc, "[%r,%r,%r],", [self.roc], tail)


FPR_TARGETS = (0.01, 0.005, 0.001)


def evaluate(scores, labels, threshold=0.5, include_roc=True):
    """Rates at threshold, and TPR at each of FPR_TARGETS from one ROC sweep.
    include_roc=False leaves the sweep out of the report."""
    check_threshold(threshold)
    scores, labels = _as_arrays(scores, labels)
    roc = roc_sweep(scores, labels)
    (spoof, n_spoof), (live, n_live) = _accepted(scores, labels, [threshold])
    a = 100.0 * int(spoof[0]) / n_spoof
    b = 100.0 * (n_live - int(live[0])) / n_live  # a NaN live score is rejected
    return EvalReport(
        apcer=a,
        bpcer=b,
        acer=acer(a, b),
        hter=acer(a, b),
        threshold_used=float(threshold),
        n_live=n_live,
        n_spoof=n_spoof,
        tpr_at_fpr={t: _best_tpr(roc, n_spoof, t) for t in FPR_TARGETS},
        roc=roc if include_roc else np.empty((0, 3)),
    )
