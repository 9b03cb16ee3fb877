"""Numeric kernels shared by the losses, the optimizer and data-noise
injection. Each is plain vectorized numpy and bitwise deterministic."""

import math

import numpy as np

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def softmax_xent(logits, labels):
    """Per-sample stabilized cross-entropy and softmax probabilities.

    logits: (N, A) float64; labels: (N,) int64 in [0, A).
    Returns (loss (N,), probs (N, A)).
    """
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    denom = expv.sum(axis=1)
    probs = expv / denom[:, None]
    picked = shifted[np.arange(logits.shape[0]), labels]
    return np.log(denom) - picked, probs


def gaussian_nll(d2, s2):
    """Per-sample Gaussian NLL: 0.5*(ln s2 + d2/s2) + 0.5*ln(2*pi)."""
    d2 = np.ascontiguousarray(d2, dtype=np.float64)
    s2 = np.ascontiguousarray(s2, dtype=np.float64)
    return 0.5 * (np.log(s2) + d2 / s2) + _HALF_LOG_2PI


def smooth_rows(X, window):
    """Boxcar-average each row with a clamped window (window=1 is identity)."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd integer, got {window}")
    X = np.ascontiguousarray(X, dtype=np.float64)
    if window == 1:
        return X.copy()
    r = (window - 1) // 2
    D = X.shape[1]
    out = np.empty_like(X)
    for j in range(D):
        out[:, j] = X[:, max(0, j - r) : min(D, j + r + 1)].mean(axis=1)
    return out


def adam_step(p, g, m, v, lr, beta1, beta2, eps, t):
    """In-place Adam update on flat float64 vectors."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    p -= lr * mhat / (np.sqrt(vhat) + eps)
