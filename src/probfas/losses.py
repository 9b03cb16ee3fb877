"""Training objectives and their hand-written gradients.

Conventions: every loss returns a LossValue whose total is the mean of
the per-sample vector; gradient helpers return gradients of the *total*
(mean) loss. Semantic supervision is applied to spoof-labeled samples
only; live samples carry a placeholder semantic value.

The functions also take a stack of S models (see ``model``): inputs and
per-sample values then carry a leading replica axis, and a LossValue's
total is the (S,) array of per-replica means.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, model
from .data import SPOOF

SIGMA_SQ_FLOOR = 1e-8


@dataclass
class LossValue:
    total: float  # (S,) array for a stack
    per_sample: np.ndarray

    def __post_init__(self):
        self.total = float(self.total) if np.ndim(self.total) == 0 else self.total


def _make_loss(per_sample):
    """The LossValue of per_sample, its total the mean over the last axis
    (np.mean's bytes without its Python layer), or 0 over no samples."""
    per_sample = np.asarray(per_sample, dtype=np.float64)
    n = per_sample.shape[-1]
    return LossValue(np.add.reduce(per_sample, axis=-1) / n if n else np.zeros(per_sample.shape[:-1]), per_sample)


# ---------------------------------------------------------------------------
# cross-entropy losses
# ---------------------------------------------------------------------------

def softmax_ce_with_grads(logits, labels):
    """Returns (LossValue, dlogits_of_mean_loss); an out-of-range label
    raises ValueError (kernels.softmax_xent)."""
    per, dlogits, onehot = kernels.softmax_xent(logits, labels)
    dlogits -= onehot  # d(per-sample CE)/dlogits: probs minus the one-hot label
    dlogits /= logits.shape[-2]
    return _make_loss(per), dlogits


def semantic_ce_with_grads(z, omega, labels):
    """Cross-entropy at representation z; returns (LossValue, dz, domega)."""
    loss, dlogits = softmax_ce_with_grads(z @ model._t(omega), labels)
    return loss, dlogits @ omega, model._t(dlogits) @ z


def sample_z(mu, sigma_l, epsilon):
    """Reparameterized draw z = mu + epsilon * sigma_l (epsilon is a constant)."""
    if epsilon.shape != mu.shape or sigma_l.shape != mu.shape:
        raise ValueError("mu, sigma_l and epsilon must share one shape")
    return mu + epsilon * sigma_l


# ---------------------------------------------------------------------------
# data-quality Gaussian NLL
# ---------------------------------------------------------------------------

def dq_gaussian_nll_with_grads(mu, omega_c, labels_c, sigma_d_sq):
    """Per-sample 0.5*(ln s2 + ||omega_c[c]-mu||^2 / s2) + 0.5*ln(2*pi).

    Returns (LossValue, grads, d2) with grads = (dmu, domega_c,
    dsigma_d_sq) and d2 each row's squared distance ||omega_c[c]-mu||^2.
    A label outside [0, A) or a sigma_d_sq <= 0 raises ValueError."""
    labels_c = np.asarray(labels_c, dtype=np.int64)
    onehot = labels_c[..., None] == np.arange(omega_c.shape[-2])
    if np.count_nonzero(onehot) != labels_c.size:  # a label outside [0, A) has no class
        raise ValueError(f"labels out of range [0, {omega_c.shape[-2]})")
    sigma_d_sq = np.asarray(sigma_d_sq, dtype=np.float64)
    if (sigma_d_sq <= 0).any():
        raise ValueError("sigma_d_sq must be strictly positive")
    s2 = np.maximum(sigma_d_sq, SIGMA_SQ_FLOOR)
    diff = omega_c[_class_rows(labels_c)] - mu
    d2 = _row_dots(diff, diff)
    per = kernels.gaussian_nll(d2, s2)
    n = mu.shape[-2]

    dd2 = 0.5 / (s2 * n)
    ddiff = (2.0 * dd2)[..., None] * diff
    ds2 = 0.5 * (1.0 / s2 - d2 / (s2 * s2)) / n
    ds2 = np.where(sigma_d_sq < SIGMA_SQ_FLOOR, 0.0, ds2)
    return _make_loss(per), (-ddiff, _class_row_sums(onehot, ddiff), ds2), d2


def _class_row_sums(onehot, rows):
    """Each class's sum of the rows (..., N, B) of its (..., N, A) one-hot,
    from +0.0 in row order: np.add.at's bytes. The other classes' rows add
    +0.0, which leaves such a sum as it was; numpy sums down the rows in
    order unless they are its inner loop (A * B == 1), where it is pairwise."""
    out = np.zeros((*rows.shape[:-2], onehot.shape[-1], rows.shape[-1]))
    if out.shape[-2] * out.shape[-1] == 1:
        np.add.at(out, _class_rows(np.argmax(onehot, axis=-1)), rows)
        return out
    return np.add.reduce(np.where(onehot[..., None], rows[..., None, :], 0.0), axis=-3, out=out, initial=0.0)


def _class_rows(labels):
    """Index of each sample's class row: in an (A, B) matrix for one model's
    (N,) labels, per replica in an (S, A, B) stack for (S, N) labels."""
    return labels if labels.ndim == 1 else (np.arange(len(labels))[:, None], labels)


def _row_dots(A, B):
    return np.einsum("...ij,...ij->...i", A, B)


def _row_norms(M):
    """np.linalg.norm(M, axis=-1), the same bytes without its Python layer."""
    return np.sqrt(np.add.reduce(M * M, axis=-1))


def l2_normalize_rows(M):
    norms = _row_norms(M)
    if (norms == 0).any():
        raise ValueError("cannot l2-normalize a zero row")
    return M / norms[..., None]


def l2_normalize_rows_backward(M, M_n, dM_n):
    """Backprop through row normalization."""
    norms = _row_norms(M)
    dots = _row_dots(dM_n, M_n)
    return (dM_n - dots[..., None] * M_n) / norms[..., None]


# ---------------------------------------------------------------------------
# stage objectives (full forward + parameter gradients)
# ---------------------------------------------------------------------------

def _lone_rows(spoof, n_sp):
    """(replica, row) of the spoof row of each replica that has just one:
    alone, its products are matrix-vector calls, which round differently
    from the matrix-matrix calls over all rows, so they are redone for it."""
    if 1 not in n_sp.reshape(-1).tolist():
        return []
    return [(r, np.flatnonzero(spoof[r])[0]) for r in np.ndindex(n_sp.shape) if n_sp[r] == 1]


def stage1_objective(params, X, c, s_by_category, epsilon, grads, lambda_s=1.0, enable_lq=True):
    """Live/spoof CE plus lambda_s * semantic CE per category, the latter at
    the sampled z when enable_lq else at mu, restricted to spoof samples.
    Puts the parameter gradients into ``grads``, a zeroed ModelParams-shaped
    struct (see training.run_stage); an out-of-range label raises
    ValueError (kernels.softmax_xent).

    Returns (LossValue, aux dict). aux["loss_c"] is the live/spoof CE
    total, and aux["loss_s"] is a function of a replica index (``()`` for
    one model) that gives that replica's {category: lambda_s * semantic CE}.
    """
    mu, cache = model.embed_with_cache(params, X)
    n = mu.shape[-2]

    loss_c, dlogits_c = softmax_ce_with_grads(model.live_spoof_logits(params, mu), c)
    np.matmul(model._t(dlogits_c), mu, out=grads.omega_c)
    dmu = dlogits_c @ params.omega_c

    # The semantic CE runs on every row, with the live rows' gradients
    # masked to zero: the same bytes as over the spoof rows alone, without
    # a ragged per-replica subset.
    spoof = c == SPOOF
    per_sample, per_sem = loss_c.per_sample, {}
    if lambda_s != 0.0 and s_by_category and spoof.any():
        n_sp = np.add.reduce(spoof, axis=-1)
        keep = spoof[..., None]
        if enable_lq:
            sigma_l = model.lq_variance(params, mu)
            z = np.where(keep, sample_z(mu, sigma_l, epsilon), 0.0)
        else:
            z = np.where(keep, mu, 0.0)
        dz = None
        # dividing by the spoof count differentiates the spoof-mean, so
        # gradients scale by lambda_s alone; per_sample is rescaled so the
        # batch mean still equals the objective total. A replica without
        # spoof rows divides by 1: zero gradient, not NaN.
        n_div = np.maximum(n_sp, 1)
        per_scale = (lambda_s * n / n_div)[..., None]
        lone = _lone_rows(spoof, n_sp)
        for cat, labels in s_by_category.items():
            omega = params.omega_s[cat]
            logits = model.semantic_logits(params, cat, z)
            for r, i in lone:
                logits[r][i] = z[r][i : i + 1] @ model._t(omega[r])
            per, probs, onehot = kernels.softmax_xent(logits, np.where(spoof, labels, 0))
            probs -= onehot
            dlogits = np.where(keep, probs, 0.0) / n_div[..., None, None]
            np.matmul(model._t(dlogits), z, out=grads.omega_s[cat])
            dz_cat = dlogits @ omega
            for r, i in lone:
                dz_cat[r][i] = dlogits[r][i : i + 1] @ omega[r]
            if lambda_s != 1.0:  # a product by 1.0 is exact, so it is left out
                grads.omega_s[cat] *= lambda_s
                dz_cat *= lambda_s
            dz = dz_cat if dz is None else dz + dz_cat  # not summed into zeros: see training.run_stage
            per_sample = per_sample + np.where(spoof, per_scale * per, 0.0)
            per_sem[cat] = per
        dmu += dz
        if enable_lq:
            dw_lq, db_lq, dmu_head = model.lq_variance_backward(params, mu, sigma_l, dz * epsilon)
            grads.w_lq += dw_lq
            grads.b_lq += db_lq
            dmu += dmu_head

    model.embed_backward(params, cache, dmu, grads)

    def loss_s(r):
        # the mean over the spoof rows alone: a mean over masked rows rounds
        # differently
        rows = spoof[r]
        if not rows.any():
            return {}
        return {cat: lambda_s * float(per[r][rows].mean()) for cat, per in per_sem.items()}

    return _make_loss(per_sample) if per_sem else loss_c, {"loss_c": loss_c.total, "loss_s": loss_s}


def stage2_objective(params, mu, c, grads):
    """Gaussian NLL on row-normalized mu and omega_c with the scalar
    data-quality variance. The backbone is frozen, so it takes the batch's
    embedding ``mu`` (model.embed) rather than its features: gradients are
    added into ``grads`` (ModelParams-shaped) only for omega_c and the
    data-quality head.

    Returns (LossValue, aux dict); aux["d2"] holds each row's squared
    distance ||w_n[c] - mu_n||^2.
    """
    mu_n = l2_normalize_rows(mu)
    w_n = l2_normalize_rows(params.omega_c)
    s2_raw = model.dq_variance(params, mu)
    # an exp() that underflows to 0 is floored like any tiny variance, with
    # zero gradient, rather than rejected as non-positive
    s2 = np.maximum(s2_raw, np.finfo(float).tiny)
    loss, (_, dw_n, ds2), d2 = dq_gaussian_nll_with_grads(mu_n, w_n, c, s2)

    grads.omega_c += l2_normalize_rows_backward(params.omega_c, w_n, dw_n)
    dw_dq, db_dq, _ = model.dq_variance_backward(params, mu, s2_raw, ds2)
    grads.w_dq += dw_dq
    grads.b_dq += db_dq
    return loss, {"d2": d2}
