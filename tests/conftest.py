"""Shared helpers: finite-difference gradient checking over the flat
parameter vector, and small dataset builders."""

import numpy as np
import pytest

from probfas import data, model

FD_STEP = 1e-5
FD_TOL = 1e-4


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def fd_gradient(f, x0, h=FD_STEP):
    """Central finite differences of scalar f over a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def check_param_gradients(params, loss_and_grads, mask=None, tol=FD_TOL):
    """Compare analytic parameter gradients against central differences.

    loss_and_grads(params) -> (scalar_loss, ModelParams-shaped grads).
    mask: optional ModelParams whose nonzero entries select the parameters
    that carry gradients (all others are held out of the comparison).
    """
    flat0 = params.flat.copy()

    def f(vec):
        loss, _ = loss_and_grads(params.with_flat(vec.copy()))
        return loss

    _, grads = loss_and_grads(params)
    analytic = grads.flat
    numeric = fd_gradient(f, flat0)
    if mask is not None:
        m = mask.flat != 0
        analytic = analytic[m]
        numeric = numeric[m]
    err = rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"
    return err


def check_replica_gradients(params, loss_and_grads, mask=None, tol=FD_TOL):
    """check_param_gradients for every replica r of a stack: the central
    differences of replica r's total, over replica r's parameters, against
    row r of the stacked gradient.

    loss_and_grads(stacked_params) -> ((S,) totals, stacked grads).
    mask: optional one-model ModelParams, as for check_param_gradients.
    """
    for r in range(params.flat.shape[0]):
        def replica_loss_and_grads(p_r, r=r):
            flat = params.flat.copy()
            flat[r] = p_r.flat
            totals, grads = loss_and_grads(params.with_flat(flat))
            return totals[r], grads.replica(r)

        check_param_gradients(params.replica(r).copy(), replica_loss_and_grads, mask=mask, tol=tol)


def selection_mask(params, tensor_names):
    """ModelParams whose listed tensors are ones and the rest zeros."""
    mask = params.zeros_like()
    for name, t in mask.named_tensors():
        if name in tensor_names:
            t[...] = 1.0
    return mask


@pytest.fixture
def tiny_dataset():
    return data.generate_synthetic(
        n_per_class=12, D=4, categories={"spoof_type": 3}, cluster_overlap=0.5, seed=0
    )


@pytest.fixture
def tiny_params(tiny_dataset):
    return model.init_params(
        tiny_dataset.feature_dim, tiny_dataset.categories, B=6, hidden=(8,), seed=0
    )
