"""Training objectives and their hand-written gradients.

Conventions: every loss returns a LossValue whose total is the mean of
the per-sample vector; gradient helpers return gradients of the *total*
(mean) loss. Semantic supervision is applied to spoof-labeled samples
only; live samples carry a placeholder semantic value.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, model
from .data import SPOOF

SIGMA_SQ_FLOOR = 1e-8


@dataclass
class LossValue:
    total: float
    per_sample: np.ndarray

    def __post_init__(self):
        self.total = float(self.total)


def _make_loss(per_sample):
    per_sample = np.asarray(per_sample, dtype=np.float64)
    return LossValue(per_sample.mean() if per_sample.size else 0.0, per_sample)


def _check_labels(labels, n_classes):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels out of range [0, {n_classes})")
    return labels


# ---------------------------------------------------------------------------
# cross-entropy losses
# ---------------------------------------------------------------------------

def softmax_ce_with_grads(logits, labels):
    """Returns (LossValue, dlogits_of_mean_loss, probs)."""
    labels = _check_labels(labels, logits.shape[1])
    per, probs = kernels.softmax_xent(logits, labels)
    n = logits.shape[0]
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return _make_loss(per), dlogits, probs


def semantic_ce_deterministic(mu, omega_s_k, labels):
    """Cross-entropy of the semantic label on deterministic embeddings."""
    loss, _, _ = softmax_ce_with_grads(mu @ omega_s_k.T, labels)
    return loss


def semantic_ce_with_grads(z, omega, labels):
    """Cross-entropy at representation z; returns (LossValue, dz, domega)."""
    loss, dlogits, _ = softmax_ce_with_grads(z @ omega.T, labels)
    return loss, dlogits @ omega, dlogits.T @ z


def live_spoof_ce(mu, omega_c, labels_c):
    """Binary (2-way softmax) cross-entropy of the live/spoof label."""
    loss, _, _ = softmax_ce_with_grads(mu @ omega_c.T, labels_c)
    return loss


def sample_z(mu, sigma_l, epsilon):
    """Reparameterized draw z = mu + epsilon * sigma_l (epsilon is a constant)."""
    if epsilon.shape != mu.shape or sigma_l.shape != mu.shape:
        raise ValueError("mu, sigma_l and epsilon must share one shape")
    return mu + epsilon * sigma_l


def semantic_ce_probabilistic(mu, sigma_l, omega_s_k, labels, epsilon):
    """Semantic cross-entropy evaluated at the sampled representation."""
    return semantic_ce_deterministic(sample_z(mu, sigma_l, epsilon), omega_s_k, labels)


# ---------------------------------------------------------------------------
# data-quality Gaussian NLL
# ---------------------------------------------------------------------------

def _checked_sigma_sq(sigma_d_sq):
    sigma_d_sq = np.asarray(sigma_d_sq, dtype=np.float64)
    if np.any(sigma_d_sq <= 0):
        raise ValueError("sigma_d_sq must be strictly positive")
    return np.maximum(sigma_d_sq, SIGMA_SQ_FLOOR)


def dq_gaussian_nll(mu, omega_c, labels_c, sigma_d_sq):
    """Per-sample 0.5*(ln s2 + ||omega_c[c]-mu||^2 / s2) + 0.5*ln(2*pi)."""
    loss, _ = dq_gaussian_nll_with_grads(mu, omega_c, labels_c, sigma_d_sq)
    return loss


def dq_gaussian_nll_with_grads(mu, omega_c, labels_c, sigma_d_sq):
    """Returns (LossValue, grads) with grads = (dmu, domega_c, dsigma_d_sq)."""
    labels_c = _check_labels(labels_c, omega_c.shape[0])
    s2 = _checked_sigma_sq(sigma_d_sq)
    diff = omega_c[labels_c] - mu
    d2 = np.einsum("ij,ij->i", diff, diff)
    per = kernels.gaussian_nll(d2, s2)
    n = mu.shape[0]

    dd2 = 0.5 / (s2 * n)
    ddiff = (2.0 * dd2)[:, None] * diff
    dmu = -ddiff
    domega = np.zeros_like(omega_c)
    np.add.at(domega, labels_c, ddiff)
    ds2 = 0.5 * (1.0 / s2 - d2 / (s2 * s2)) / n
    ds2 = np.where(np.asarray(sigma_d_sq) < SIGMA_SQ_FLOOR, 0.0, ds2)
    return _make_loss(per), (dmu, domega, ds2)


def l2_normalize_rows(M):
    norms = np.linalg.norm(M, axis=1)
    if np.any(norms == 0):
        raise ValueError("cannot l2-normalize a zero row")
    return M / norms[:, None]


def l2_normalize_rows_backward(M, M_n, dM_n):
    """Backprop through row normalization."""
    norms = np.linalg.norm(M, axis=1)
    dots = np.einsum("ij,ij->i", dM_n, M_n)
    return (dM_n - dots[:, None] * M_n) / norms[:, None]


# ---------------------------------------------------------------------------
# stage objectives (full forward + parameter gradients)
# ---------------------------------------------------------------------------

def stage1_objective(params, X, c, s_by_category, epsilon, lambda_s=1.0, enable_lq=True):
    """Live/spoof CE plus lambda_s * semantic CE per category, the latter at
    the sampled z when enable_lq else at mu, restricted to spoof samples.

    Returns (LossValue, grads: ModelParams-shaped, aux dict).
    """
    c = _check_labels(c, 2)
    mu, cache = model.embed_with_cache(params, X)
    n = X.shape[0]
    grads = params.zeros_like()

    loss_c, dlogits_c, probs_c = softmax_ce_with_grads(mu @ params.omega_c.T, c)
    grads.omega_c += dlogits_c.T @ mu
    dmu = dlogits_c @ params.omega_c
    per_sample = loss_c.per_sample.copy()

    spoof = np.asarray(c) == SPOOF
    n_sp = int(spoof.sum())
    sem_losses = {}
    sigma_l = None
    if lambda_s != 0.0 and n_sp > 0 and s_by_category:
        if enable_lq:
            sigma_l = model.lq_variance(params, mu)
            z = sample_z(mu, sigma_l, epsilon)
        else:
            z = mu
        z_sp = z[spoof]
        dz_sp = np.zeros_like(z_sp)
        # softmax_ce_with_grads already differentiates the spoof-mean, so
        # gradients scale by lambda_s alone; per_sample is rescaled so the
        # batch mean still equals the objective total.
        per_scale = lambda_s * n / n_sp
        for cat, labels in s_by_category.items():
            omega = params.omega_s[cat]
            labels_sp = _check_labels(np.asarray(labels)[spoof], omega.shape[0])
            sem_loss, dlogits, _ = softmax_ce_with_grads(z_sp @ omega.T, labels_sp)
            sem_losses[cat] = lambda_s * sem_loss.total
            grads.omega_s[cat] += lambda_s * (dlogits.T @ z_sp)
            dz_sp += lambda_s * (dlogits @ omega)
            per_sample[spoof] += per_scale * sem_loss.per_sample
        dz = np.zeros_like(z)
        dz[spoof] = dz_sp
        if enable_lq:
            dmu += dz
            dsigma = dz * epsilon
            dw_lq, db_lq, dmu_head = model.lq_variance_backward(params, mu, sigma_l, dsigma)
            grads.w_lq += dw_lq
            grads.b_lq += db_lq
            dmu += dmu_head
        else:
            dmu += dz

    layer_grads, _ = model.embed_backward(params, cache, dmu)
    for (gW, gb), (GW, Gb) in zip(layer_grads, grads.layers):
        GW += gW
        Gb += gb

    aux = {
        "loss_c": loss_c.total,
        "loss_s": sem_losses,
        "probs_c": probs_c,
        "mu": mu,
        "sigma_l": sigma_l,
    }
    return _make_loss(per_sample), grads, aux


def stage2_objective(params, X, c):
    """Gaussian NLL on row-normalized mu and omega_c with the scalar
    data-quality variance. The backbone is treated as frozen: gradients
    are produced only for omega_c and the data-quality head.

    Returns (LossValue, grads: ModelParams-shaped, aux dict).
    """
    c = _check_labels(c, 2)
    mu = model.embed(params, X)
    mu_n = l2_normalize_rows(mu)
    w_n = l2_normalize_rows(params.omega_c)
    s2_raw = model.dq_variance(params, mu)
    # an exp() that underflows to 0 is floored like any tiny variance, with
    # zero gradient, rather than rejected as non-positive
    s2 = np.maximum(s2_raw, np.finfo(float).tiny)
    loss, (_, dw_n, ds2) = dq_gaussian_nll_with_grads(mu_n, w_n, c, s2)

    grads = params.zeros_like()
    grads.omega_c += l2_normalize_rows_backward(params.omega_c, w_n, dw_n)
    dw_dq, db_dq, _ = model.dq_variance_backward(params, mu, s2_raw, ds2)
    grads.w_dq += dw_dq
    grads.b_dq += db_dq

    diff = w_n[c] - mu_n
    aux = {"sigma_d_sq": s2_raw, "d2": np.einsum("ij,ij->i", diff, diff), "mu": mu}
    return loss, grads, aux
