"""Small differentiable model: tanh MLP backbone producing embeddings mu,
a per-dimension log-variance head for label-quality learning, a scalar
log-variance head for data-quality learning, and bias-free linear
classifiers for the live/spoof label and each semantic category.

The forward and backward functions also take a stack of S models trained
side by side: the parameters then carry a leading replica axis, and so do
the inputs ((S, N, D) rows, one batch per replica). Replica r of a stacked
result is bit for bit what model r gives alone, because each matrix
product runs per replica with the same BLAS call as for one model.

Gradients are hand-written; the test suite checks every path against
central finite differences.
"""

from dataclasses import dataclass, field

import numpy as np

# Rows per matrix product in embed and dq_variance. OpenBLAS runs a product
# over more rows on every core, its idle workers then spin for about 0.1 s,
# and with two threads it rounds some sigma_D^2 rows differently than with
# one. Blocks of at most 512 rows stay on one thread at the default widths
# and give the one-thread bytes of a single product over all rows, provided
# every block starts at a multiple of 256 rows and has at least 256: a
# smaller block takes OpenBLAS's small-matrix kernel and rounds differently.
_ROW_BLOCK = 512


def _by_row_blocks(fn, M):
    """fn over blocks of the rows (axis -2) of M, each block's result written
    into one array; fn's result keeps the row axis at the same position.

    The per-row rule: the partition depends on the row count alone, and a
    row's bytes depend on its block only through the block's size (BLAS
    picks its kernel by size), so each row's result is fixed by N. A figure
    computed row by row from the result afterwards has the same bytes in
    any row blocks as in one pass over all rows; inference relies on that."""
    n, axis = M.shape[-2], M.ndim - 2
    starts = list(range(0, n, _ROW_BLOCK)) or [0]
    if len(starts) > 1 and n - starts[-1] < _ROW_BLOCK // 2:
        starts[-1] -= _ROW_BLOCK // 2  # the last two blocks share 512 + r rows
    if len(starts) == 1:
        return fn(M)
    out = None
    for a, b in zip(starts, starts[1:] + [n]):
        part = fn(M[..., a:b, :])
        if out is None:
            out = np.empty(part.shape[:axis] + (n,) + part.shape[axis + 1:], part.dtype)
        out[(slice(None),) * axis + (slice(a, b),)] = part
    return out


def _t(M):
    """Transpose of the last two axes: M.T of one matrix, per replica of a stack."""
    return M.swapaxes(-1, -2)


@dataclass
class ModelParams:
    """Every tensor is a view into one contiguous float64 array, ``flat``,
    laid out along its last axis in ``named_tensors()`` order (the
    checkpoint's byte order), so optimizers step ``flat`` in place. The
    constructor packs the given tensors into a new (P,) vector.

    ``flat`` is (P,) for one model and (S, P) for a stack of S replicas
    (see ``stack``), whose tensors are then (S, *shape) views."""

    layers: list  # [(W: (out,in), b: (out,)), ...], tanh between, last linear
    w_lq: np.ndarray  # (B, B) log-variance head, sigma_L = exp(0.5 * affine)
    b_lq: np.ndarray  # (B,)
    w_dq: np.ndarray  # (B,) scalar log-variance head, sigma_D^2 = exp(affine)
    b_dq: np.ndarray  # ()
    omega_c: np.ndarray  # (2, B) live/spoof classifier rows
    omega_s: dict  # category -> (A_k, B)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tensors = [np.asarray(t, dtype=np.float64) for _, t in self.named_tensors()]
        ends = np.cumsum([t.size for t in tensors]).tolist()
        self._slots = [(end - t.size, end, t.shape) for t, end in zip(tensors, ends)]
        self._bind(np.concatenate([t.ravel() for t in tensors]))

    def _bind(self, flat):
        """Point every tensor at its slice of flat, in named_tensors() order."""
        lead = flat.shape[:-1]
        views = iter([flat[..., start:end].reshape(lead + shape) for start, end, shape in self._slots])
        self.layers = [(next(views), next(views)) for _ in self.layers]
        self.w_lq, self.b_lq, self.w_dq, self.b_dq, self.omega_c = (next(views) for _ in range(5))
        self.omega_s = {name: next(views) for name in sorted(self.omega_s)}
        self.flat = flat

    # pickled as flat and its layout, so the tensors load as views into flat
    # again rather than as copies beside it
    def __getstate__(self):
        return {"layers": len(self.layers), "omega_s": sorted(self.omega_s), "slots": self._slots, "flat": self.flat}

    def __setstate__(self, state):
        self.layers, self.omega_s = [None] * state["layers"], dict.fromkeys(state["omega_s"])
        self._slots = state["slots"]
        self._bind(state["flat"])

    @property
    def D(self):
        return self.layers[0][0].shape[-1]

    @property
    def B(self):
        return self.layers[-1][0].shape[-2]

    def with_flat(self, flat):
        """Same layout, with every tensor a view into ``flat`` (not copied);
        flat is (P,) for one model or (S, P) for a stack."""
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        n_params = self._slots[-1][1]
        if flat.ndim not in (1, 2) or flat.shape[-1] != n_params:
            raise ValueError(f"flat shape {flat.shape} is not ({n_params},) or (S, {n_params})")
        out = object.__new__(ModelParams)
        out.layers, out.omega_s, out._slots = self.layers, self.omega_s, self._slots
        out._bind(flat)
        return out

    def copy(self):
        return self.with_flat(self.flat.copy())

    def zeros_like(self):
        return self.with_flat(np.zeros_like(self.flat))

    @staticmethod
    def stack(models):
        """One stack of the given one-model parameters (same layout), in order."""
        return models[0].with_flat(np.stack([m.flat for m in models]))

    def replica(self, r):
        """Replica r of a stack, as a one-model view into ``flat``."""
        return self.with_flat(self.flat[r])

    def named_tensors(self):
        """Stable (name, array) listing of every parameter tensor."""
        out = []
        for i, (W, b) in enumerate(self.layers):
            out.append((f"layers.{i}.W", W))
            out.append((f"layers.{i}.b", b))
        out += [("w_lq", self.w_lq), ("b_lq", self.b_lq), ("w_dq", self.w_dq), ("b_dq", self.b_dq)]
        out.append(("omega_c", self.omega_c))
        for name in sorted(self.omega_s):
            out.append((f"omega_s.{name}", self.omega_s[name]))
        return out

    def check_finite(self):
        for name, t in self.named_tensors():
            if not np.all(np.isfinite(t)):
                raise ValueError(f"non-finite values in parameter {name}")


def init_params(D, categories, B, hidden, seed=0):
    """Gaussian init with std 1/sqrt(fan_in), zero biases; both variance
    heads start at zero so sigma == 1 initially."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1417]))
    sizes = [D, *hidden, B]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        layers.append((W, np.zeros(fan_out)))
    omega_c = rng.standard_normal((2, B)) / np.sqrt(B)
    omega_s = {name: rng.standard_normal((card, B)) / np.sqrt(B) for name, card in categories.items()}
    return ModelParams(
        layers=layers,
        w_lq=np.zeros((B, B)),
        b_lq=np.zeros(B),
        w_dq=np.zeros(B),
        b_dq=np.zeros(()),
        omega_c=omega_c,
        omega_s=omega_s,
    )


# ---------------------------------------------------------------------------
# backbone
# ---------------------------------------------------------------------------

def _checked_rows(params, X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != params.flat.ndim + 1 or X.shape[-1] != params.D:
        lead = "S, " if params.flat.ndim == 2 else ""
        raise ValueError(f"X must be ({lead}N, {params.D}), got {X.shape}")
    return X


def embed_with_cache(params, X):
    h = _checked_rows(params, X)
    activations = [h]
    last = len(params.layers) - 1
    for i, (W, b) in enumerate(params.layers):
        a = h @ _t(W)
        a += b[..., None, :]
        h = a if i == last else np.tanh(a, out=a)
        activations.append(h)
    return h, activations


def embed(params, X):
    """mu of every row. A row's bytes do not depend on the other rows of its
    batch, but can on their count: OpenBLAS picks its kernel by size (with
    OpenBLAS 0.3.31 at hidden (32,), B 16, a batch of 76 rows or more
    rounds differently from a smaller one)."""
    X = _checked_rows(params, X)
    if X.shape[-2] == 1:
        # a one-row product is a matrix-vector call, which rounds differently
        # from the matrix-matrix call of any larger batch: pad to two rows
        return embed(params, np.concatenate([X, X], axis=-2))[..., :1, :]
    return _by_row_blocks(lambda rows: embed_with_cache(params, rows)[0], X)


def embed_backward(params, activations, dmu, grads):
    """Backprop dL/dmu through the MLP (activations from embed_with_cache),
    writing each layer's (dW, db) into grads.layers of a zeroed gradient
    struct (see training.run_stage). The input rows get no gradient."""
    delta = dmu
    for i in range(len(params.layers) - 1, -1, -1):
        dW, db = grads.layers[i]
        np.matmul(_t(delta), activations[i], out=dW)
        np.add.reduce(delta, axis=-2, out=db)
        if i:
            h = activations[i]
            delta = (delta @ params.layers[i][0]) * (1.0 - h * h)


# ---------------------------------------------------------------------------
# variance heads
# ---------------------------------------------------------------------------

def lq_variance(params, mu):
    """Per-dimension std of the label-quality Gaussian: exp(0.5 * affine(mu))."""
    a = mu @ _t(params.w_lq)
    a += params.b_lq[..., None, :]
    a *= 0.5
    return np.exp(a, out=a)


def lq_variance_backward(params, mu, sigma_l, dsigma):
    """Returns (dw_lq, db_lq, dmu)."""
    da = 0.5 * sigma_l * dsigma
    return _t(da) @ mu, np.add.reduce(da, axis=-2), da @ params.w_lq


def _matvec(M, v):
    """M @ v per replica: the matrix-vector call of a one-model M @ v."""
    return (M @ v[..., None])[..., 0]


def dq_variance(params, mu):
    """Per-sample data-quality variance: exp(affine(mu)), shape (N,)."""
    return _by_row_blocks(lambda rows: np.exp(_matvec(rows, params.w_dq) + params.b_dq[..., None]), mu)


def dq_variance_backward(params, mu, sigma_d_sq, ds2):
    """Returns (dw_dq, db_dq, dmu)."""
    da = sigma_d_sq * ds2
    return _matvec(_t(mu), da), da.sum(axis=-1), da[..., :, None] * params.w_dq[..., None, :]


# ---------------------------------------------------------------------------
# classifiers (bias-free inner products)
# ---------------------------------------------------------------------------

def semantic_logits(params, category, z):
    omega = params.omega_s[category]
    if z.shape[-1] != omega.shape[-1]:
        raise ValueError(f"z dim {z.shape[-1]} != embedding dim {omega.shape[-1]}")
    return z @ _t(omega)


def live_spoof_logits(params, mu):
    if mu.shape[-1] != params.omega_c.shape[-1]:
        raise ValueError(f"mu dim {mu.shape[-1]} != embedding dim {params.omega_c.shape[-1]}")
    return mu @ _t(params.omega_c)
