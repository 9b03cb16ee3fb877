"""Prediction with and without data-quality confidence correction, plus
the per-sample prediction dump that ``eval`` writes next to its reports.

Every function works on whole batches: rows of mu in, (N, 2) class
probabilities out.
"""

import numpy as np

from . import data, model
from .losses import l2_normalize_rows


class QualityError(ValueError):
    """A sigma_D^2 that is not finite and >= the smallest normal float."""


def data_quality(params, mu):
    """sigma_D^2 of every row of mu (model.dq_variance), without numpy's overflow
    warning. Raises QualityError at the first that is not finite and >= the
    smallest normal float, below which corrected_confidence's logits overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        s2 = model.dq_variance(params, mu)
    tiny = np.finfo(float).tiny
    bad = np.flatnonzero(~(np.isfinite(s2) & (s2 >= tiny)))
    if bad.size:
        raise QualityError(f"sigma_D^2 of row {bad[0]} is {s2[bad[0]]}, not finite and >= {tiny}")
    return s2


def softmax_rows(logits):
    """Softmax of each row of (N, A) logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def standard_confidence(mu, omega_c):
    """Row-wise softmax of the plain inner-product logits; mu is (N, B)."""
    # one matrix-vector product per row: a single (N, B) @ (B, 2) product
    # rounds some logits differently
    return softmax_rows((omega_c[None] @ mu[:, :, None])[:, :, 0])


def corrected_confidence(mu, omega_c, sigma_d_sq):
    """Row-wise softmax over classes of -||omega_c - mu_i||^2 / (2 sigma_i^2).

    Inputs are expected to be the l2-normalized mu and omega rows from
    the second training stage. Larger sigma^2 damps the confidence gap
    but never changes the argmax.
    """
    sigma_d_sq = np.asarray(sigma_d_sq, dtype=np.float64)
    if np.any(sigma_d_sq <= 0):
        raise ValueError("sigma_d_sq must be strictly positive")
    d2 = ((omega_c[None] - mu[:, None]) ** 2).sum(axis=2)
    return softmax_rows(-d2 / (2.0 * sigma_d_sq[:, None]))


def predict_batch(params, X, corrected):
    """Returns (probs (N, 2), sigma_d_sq (N,)); column 1 of probs is p_live.

    When corrected, mu and omega_c are row-normalized (the stage-2
    geometry) and the distance softmax is used. Raises QualityError when a
    sigma_D^2 is out of range (see data_quality).
    """
    (probs,), s2 = predict_modes(params, X, [corrected])
    return probs, s2


def predict_modes(params, X, modes):
    """([probs of each mode], sigma_d_sq): predict_batch for each `corrected` of
    modes, from one embedding of the rows."""
    mu = model.embed(params, X)
    s2 = data_quality(params, mu)
    return [corrected_confidence(l2_normalize_rows(mu), l2_normalize_rows(params.omega_c), s2) if corrected
            else standard_confidence(mu, params.omega_c) for corrected in modes], s2


# ---------------------------------------------------------------------------
# prediction dump: `id,p_live,predicted,quality,corrected`
# ---------------------------------------------------------------------------

_HEADER = "id,p_live,predicted,quality,corrected"


def save_predictions(probs, sigma_d_sq, corrected, path):
    n = len(probs)
    columns = [np.arange(n), probs[:, 1], np.argmax(probs, axis=1), sigma_d_sq, np.full(n, int(corrected))]
    data.write_table(path, _HEADER + "\n", "%d,%.17g,%d,%.17g,%d\n", columns)

