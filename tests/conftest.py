"""Shared helpers: finite-difference gradient checking over the flat
parameter vector, the paper's loss formulas as independent numpy
statements, small dataset builders, row-by-row reference versions of the
dataset generator and parser, a reader for prediction dumps, one run
trained through the stack-only training API, and a counter of forked
children."""

import json
import os

import numpy as np
import pytest

from probfas import data, forks, model, training

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


def with_grads(objective, params, *args, **kwargs):
    """A stage objective called as run_stage's step calls it, with a zeroed
    gradient struct after its positional arguments: (loss, grads, aux)."""
    grads = params.zeros_like()
    loss, aux = objective(params, *args, grads, **kwargs)
    return loss, grads, aux


def selection_mask(params, tensor_names):
    """ModelParams whose listed tensors are ones and the rest zeros."""
    mask = params.zeros_like()
    for name, t in mask.named_tensors():
        if name in tensor_names:
            t[...] = 1.0
    return mask


# ---------------------------------------------------------------------------
# the paper's loss formulas, written out in numpy without calling probfas:
# the oracles the hand-written loss gradients are finite-differenced against
# ---------------------------------------------------------------------------

def _ref_mean_ce(logits, labels):
    """Mean over rows of logsumexp(logits) - logits[label]."""
    top = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - top).sum(axis=1)) + top[:, 0]
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


def ref_semantic_ce(mu, omega, labels):
    """Semantic cross-entropy at deterministic embeddings mu (N, B) with
    class rows omega (A, B)."""
    return _ref_mean_ce(mu @ omega.T, labels)


def ref_semantic_ce_probabilistic(mu, sigma, omega, labels, eps):
    """Semantic cross-entropy at the reparameterized draw z = mu + eps * sigma."""
    return ref_semantic_ce(mu + eps * sigma, omega, labels)


def ref_live_spoof_ce(mu, omega_c, c):
    """Two-way softmax cross-entropy of the live/spoof label."""
    return _ref_mean_ce(mu @ omega_c.T, c)


def ref_dq_gaussian_nll(mu, omega_c, c, s2):
    """Mean of 0.5 * (ln s2 + ||omega_c[c] - mu||^2 / s2) + 0.5 * ln(2 pi)."""
    d2 = ((omega_c[c] - mu) ** 2).sum(axis=1)
    return float(np.mean(0.5 * (np.log(s2) + d2 / s2) + 0.5 * np.log(2.0 * np.pi)))


def train_one(ds, cfg, arm=None, params=None):
    """One run trained as a stack of one: its one-model params and train
    log, raising its divergence. With ``arm``, the run trains as that
    ablation arm of ``cfg`` (training.train_arms); else with one-model
    ``params``, stage 2 starts from them; else stage 1 alone runs."""
    if arm is not None:
        [(_, _, stack, logs)] = training.train_arms([ds], [arm], [cfg])
    elif params is not None:
        stack, logs = training.train_stage2_dq(model.ModelParams.stack([params]), [ds], [cfg])
    else:
        stack, logs = training.train_stage1_lq([ds], [cfg])
    return stack.replica(0), logs[0]


@pytest.fixture
def forked(monkeypatch):
    """Lets forks.child fork, as if two CPUs were usable, and yields the pids
    os.fork gives this process; each must be reaped by the end of the test."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(forks, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):  # reaped: no child is left
            os.waitpid(pid, os.WNOHANG)


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


def reference_generate_synthetic(n_per_class, D, categories, cluster_overlap, seed):
    """data.generate_synthetic drawing one row's noise, then its auxiliary
    labels, at a time: the draw order the generator must reproduce."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    names = list(categories)
    primary, extra = names[0], names[1:]
    dirs = rng.standard_normal((categories[primary] + 1, D))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = dirs * (data._BASE_RADIUS / (1.0 + cluster_overlap))
    extra_offsets = {
        name: rng.standard_normal((categories[name], D)) * data._EXTRA_OFFSET_SCALE for name in extra
    }
    cluster = np.repeat(np.arange(categories[primary] + 1), n_per_class)
    n = cluster.size
    noise = np.empty((n, D))
    s = {name: np.empty(n, dtype=np.int64) for name in extra}
    for i in range(n):
        noise[i] = rng.standard_normal(D)
        for name in extra:
            s[name][i] = rng.integers(0, categories[name])
    x = centers[cluster] + data._CLUSTER_STD * noise
    for name in extra:
        x = x + extra_offsets[name][s[name]]
    s[primary] = np.maximum(cluster - 1, 0)
    return data.Dataset(
        x=x, c=np.where(cluster == 0, data.LIVE, data.SPOOF), s={name: s[name] for name in names},
        categories=dict(categories), seed_provenance=int(seed),
    )


def reference_load_dataset(path):
    """data.load_dataset as a split/float/int loop over the rows, with the
    Python number parsers; for valid files only (the column-name line is
    not checked)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in (ln.rstrip("\n") for ln in fh) if ln != ""]
    meta = dict(tok.partition("=")[::2] for tok in lines[1].lstrip("#").split())
    D = int(meta["D"])
    categories = {name: int(card) for name, _, card in
                  (item.partition(":") for item in meta["categories"].split(","))}
    ids, features, labels, bits, severity = [], [], [], [], []
    for ln in lines[3:]:
        parts = ln.split(",")
        assert len(parts) == 1 + D + 1 + len(categories) + 2
        ids.append(int(parts[0]))
        features.extend(map(float, parts[1 : 1 + D]))
        labels.extend(map(int, parts[1 + D : 2 + D + len(categories)]))
        bits.append([ch == "1" for ch in parts[-2]])
        severity.append(float(parts[-1]))
    assert ids == list(range(len(ids)))
    labels = np.array(labels, dtype=np.int64).reshape(len(ids), -1)
    flags = np.array(bits, dtype=bool).reshape(len(ids), 3)
    return data.Dataset(
        x=np.array(features).reshape(len(ids), D), c=labels[:, 0],
        s={name: labels[:, 1 + k] for k, name in enumerate(categories)},
        categories=categories, seed_provenance=int(meta["seed"]),
        **{name: flags[:, k] for k, name in enumerate(data.FLAGS)},
        corruption_severity=np.array(severity),
    )


def reference_load_predictions(path):
    """The columns (p_live, predicted, quality, corrected) of a prediction
    dump written by inference.save_predictions."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    assert header == "id,p_live,predicted,quality,corrected"
    table = np.array([[float(v) for v in row.split(",")] for row in rows]).reshape(len(rows), 5)
    assert np.array_equal(table[:, 0], np.arange(len(rows)))
    return table[:, 1], table[:, 2].astype(np.int64), table[:, 3], table[:, 4].astype(bool)


def reference_report_json(rep):
    """metrics.EvalReport.to_json as json.dumps alone writes it, the ROC as Python floats."""
    doc = {
        "apcer": rep.apcer, "bpcer": rep.bpcer, "acer": rep.acer, "hter": rep.hter,
        "threshold_used": rep.threshold_used, "n_live": rep.n_live, "n_spoof": rep.n_spoof,
        "tpr_at_fpr": {format(k, ".17g"): {"tpr": v[0], "attainable": v[1]} for k, v in sorted(rep.tpr_at_fpr.items())},
        "roc": rep.roc.tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
