"""Numeric kernels shared by the losses, the optimizer and data-noise
injection. Each is plain vectorized numpy and bitwise deterministic."""

import functools
import math

import numpy as np

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def softmax_xent(logits, labels):
    """Per-sample stabilized cross-entropy, softmax probabilities and the
    one-hot of the labels.

    logits: (..., N, A) float64; labels: (..., N) int64 in [0, A).
    Returns (loss (..., N), probs (..., N, A), one-hot (..., N, A) bool).
    A label outside [0, A) picks no logit and raises ValueError.

    Below 8 classes the max and the sum over the class axis run column by
    column, in fewer calls for the bytes of numpy's reductions (a chain of
    comparisons, a left-to-right sum from +0.0); from 8 on numpy's sum is
    pairwise, so the reductions stay.
    """
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    A = logits.shape[-1]
    onehot = labels[..., None] == np.arange(A)
    by_columns = 0 < A < 8
    shifted = logits - (functools.reduce(np.maximum, [logits[..., a] for a in range(A)])[..., None] if by_columns
                        else logits.max(axis=-1, keepdims=True))
    expv = np.exp(shifted)
    denom = functools.reduce(np.add, [expv[..., a] for a in range(A)]) if by_columns else expv.sum(axis=-1)
    picked = shifted[onehot]
    if picked.size != labels.size:
        raise ValueError(f"labels out of range [0, {A})")
    probs = expv / denom[..., None]
    return np.log(denom) - picked.reshape(labels.shape), probs, onehot


def gaussian_nll(d2, s2):
    """Per-sample Gaussian NLL: 0.5*(ln s2 + d2/s2) + 0.5*ln(2*pi)."""
    d2 = np.ascontiguousarray(d2, dtype=np.float64)
    s2 = np.ascontiguousarray(s2, dtype=np.float64)
    return 0.5 * (np.log(s2) + d2 / s2) + _HALF_LOG_2PI


def smooth_rows(X):
    """Boxcar-average each row over a clamped window of 3 columns: column j
    averages columns j-1..j+1 that exist. Each window sums from +0.0 in
    column order, as np.mean does, so signed zeros come out as np.mean's."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    total = np.zeros_like(X)
    total[:, 1:] += X[:, :-1]
    total += X
    total[:, :-1] += X[:, 1:]
    count = np.ones(X.shape[1])
    count[1:] += 1
    count[:-1] += 1
    return total / count


def adam_step(p, g, m, v, lr, t, scratch):
    """In-place Adam update (step t >= 1) on flat float64 arrays of one
    shape, with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8. ``scratch`` is a
    pair of arrays of p's shape that the update overwrites, so a step
    allocates nothing; each value rounds as in
    p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    a, b = scratch
    np.multiply(g, 1.0 - beta1, out=a)
    m *= beta1
    m += a
    np.multiply(g, 1.0 - beta2, out=a)
    a *= g
    v *= beta2
    v += a
    np.divide(m, 1.0 - beta1 ** t, out=a)
    a *= lr
    np.divide(v, 1.0 - beta2 ** t, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    p -= a
