"""Two-stage training pipeline.

Stage 1 trains the backbone, the label-quality head and both classifier
matrices with Adam on the multi-task objective. Stage 2 freezes the
backbone and label-quality head and finetunes only omega_c and the
data-quality head with SGD on the normalized Gaussian NLL.

Determinism: per-epoch shuffling and reparameterization noise use
independent streams derived from (seed, stage, epoch).

Runs that differ only in seed and data train side by side as one stacked
model (see ``model``): pass lists of datasets and configs instead of one.
Each replica keeps its own streams, so it ends bit for bit where it would
alone; one run is the stack of one.
"""

import contextlib
import json
import math
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from . import data, kernels, losses, model

DIVERGENCE_CAP = 1e6


class ConfigError(Exception):
    """Invalid training configuration or config file."""


class CheckpointError(Exception):
    """Malformed or mismatched checkpoint."""


class TrainingDiverged(Exception):
    def __init__(self, stage, epoch, components):
        self.stage = stage
        self.epoch = epoch
        self.components = components
        super().__init__(f"stage {stage} diverged at epoch {epoch}: {components}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class StageConfig:
    optimizer: str
    lr: float
    epochs: int
    batch_size: int

    def validate(self, name):
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"{name}.optimizer must be adam or sgd")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"{name}.lr must be finite and > 0, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError(f"{name}.epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError(f"{name}.batch_size must be >= 1")


@dataclass
class TrainConfig:
    stage1: StageConfig = field(default_factory=lambda: StageConfig("adam", 1e-4, 50, 64))
    stage2: StageConfig = field(default_factory=lambda: StageConfig("sgd", 1e-1, 50, 64))
    lambda_s: float = 1.0
    seed: int = 0
    enable_lq: bool = True
    enable_dq: bool = True
    hidden: tuple = (64, 64)
    embedding_dim: int = 32

    def validate(self):
        self.stage1.validate("stage1")
        self.stage2.validate("stage2")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {','.join(map(str, self.hidden))}")
        if not (math.isfinite(self.lambda_s) and self.lambda_s >= 0):
            raise ConfigError(f"lambda_s must be finite and >= 0, got {self.lambda_s}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self

    def to_dict(self):
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    @staticmethod
    def from_dict(d):
        d = dict(d)
        cfg = TrainConfig(
            stage1=StageConfig(**d.pop("stage1")),
            stage2=StageConfig(**d.pop("stage2")),
            **{**d, "hidden": tuple(d.pop("hidden", (64, 64)))},
        )
        return cfg.validate()


_CONFIG_KEYS = {
    "stage1.optimizer": str,
    "stage1.lr": float,
    "stage1.epochs": int,
    "stage1.batch_size": int,
    "stage2.optimizer": str,
    "stage2.lr": float,
    "stage2.epochs": int,
    "stage2.batch_size": int,
    "lambda_s": float,
    "seed": int,
    "enable_lq": bool,
    "enable_dq": bool,
    "hidden": tuple,
    "embedding_dim": int,
}


def _parse_bool(v):
    low = v.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {v!r}")


def load_config(path):
    """Flat `key = value` config file; unknown keys are rejected."""
    cfg = TrainConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text ({exc.reason})") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        typ = _CONFIG_KEYS[key]
        try:
            if typ is bool:
                parsed = _parse_bool(val)
            elif typ is tuple:
                parsed = tuple(int(tok) for tok in val.split(",") if tok.strip())
            else:
                parsed = typ(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
        if "." in key:
            stage_name, attr = key.split(".")
            setattr(getattr(cfg, stage_name), attr, parsed)
        else:
            setattr(cfg, key, parsed)
    return cfg.validate()


def save_config(cfg, path):
    lines = []
    for key in _CONFIG_KEYS:
        if "." in key:
            stage_name, attr = key.split(".")
            val = getattr(getattr(cfg, stage_name), attr)
        else:
            val = getattr(cfg, key)
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        lines.append(f"{key} = {val}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# optimizer state (operates on the flat parameter vector)
# ---------------------------------------------------------------------------

@dataclass
class OptState:
    kind: str
    lr: float
    m: np.ndarray | None = None  # (S, P), as the stacked parameters
    v: np.ndarray | None = None
    t: int = 0

    @staticmethod
    def create(stage_cfg, n_params, replicas):
        if stage_cfg.optimizer == "adam":
            shape = (replicas, n_params)
            return OptState("adam", stage_cfg.lr, np.zeros(shape), np.zeros(shape), 0)
        return OptState("sgd", stage_cfg.lr)

    def step(self, flat_params, flat_grads, live=None):
        """One update in place of the (S, P) parameters; with a boolean
        ``live`` mask, only those replicas' rows and moments move."""
        if live is not None:
            state = [a for a in (flat_params, self.m, self.v) if a is not None]
            rows = [a[live] for a in state]
            self._update(rows[0], flat_grads[live], *rows[1:])
            for a, new in zip(state, rows):
                a[live] = new
        else:
            self._update(flat_params, flat_grads, self.m, self.v)

    def _update(self, p, g, m=None, v=None):
        if self.kind == "adam":
            self.t += 1
            kernels.adam_step(p, g, m, v, self.lr, 0.9, 0.999, 1e-8, self.t)
        else:
            p -= self.lr * g


def _epoch_rngs(seed, stage, epoch):
    shuffle = np.random.default_rng(np.random.SeedSequence([int(seed), stage, epoch, 0]))
    eps = np.random.default_rng(np.random.SeedSequence([int(seed), stage, epoch, 1]))
    return shuffle, eps


def run_stage(params, columns, stage, stage_cfg, seeds, step, errors, noise_dim=0):
    """Minibatch training in place of the S = len(seeds) replicas stacked in
    ``params`` (flat (S, P)) for stage_cfg.epochs epochs, on ``columns``:
    the replicas' sample arrays, each (S, n, ...).

    Replica r shuffles its n rows with, and draws its (n, noise_dim) noise
    of each epoch from, streams derived from (seeds[r], stage, epoch), so it
    trains as it would alone. ``step(batch, eps) -> (grads, figures)`` gets the
    columns' rows of one batch, (S, bs, ...) each, and their noise rows
    (S, bs, noise_dim). ``figures`` maps names to (S,) arrays,
    ``figures["total"]`` being the batch losses, or to functions of a
    replica index, evaluated only to report a divergence.

    A replica whose total is non-finite or beyond DIVERGENCE_CAP is frozen
    before that step, and errors[r] (a list of S entries, None while the
    replica trains) gets its TrainingDiverged with all its figures. The
    others train on; the stage ends once every replica is frozen. Yields
    (epoch, means) after each epoch, means holding the (S,) epoch means of
    every array figure.
    """
    S, n = len(seeds), columns[0].shape[1]
    opt_state = OptState.create(stage_cfg, params.flat.shape[-1], S)
    bs = stage_cfg.batch_size
    replica = np.arange(S)[:, None]
    frozen = np.array([e is not None for e in errors])
    for epoch in range(stage_cfg.epochs):
        if frozen.all():
            return
        rngs = [_epoch_rngs(seed, stage, epoch) for seed in seeds]
        order = np.stack([shuffle.permutation(n) for shuffle, _ in rngs])
        shuffled = [col[replica, order] for col in columns]
        noise = np.stack([eps.standard_normal((n, noise_dim)) for _, eps in rngs])
        live = ~frozen if frozen.any() else None
        history = {}
        for j, lo in enumerate(range(0, n, bs)):
            # a frozen replica's arithmetic is discarded, so its overflow is
            # not reported
            with contextlib.nullcontext() if live is None else np.errstate(all="ignore"):
                grads, figures = step([col[:, lo : lo + bs] for col in shuffled], noise[:, lo : lo + bs])
            diverged = ~(np.abs(figures["total"]) <= DIVERGENCE_CAP)
            if diverged.any():
                for r in np.flatnonzero(diverged & ~frozen):
                    errors[r] = TrainingDiverged(stage, epoch, {
                        key: value(r) if callable(value) else float(value[r]) for key, value in figures.items()
                    })
                frozen |= diverged
                if frozen.all():
                    return
                live = ~frozen
            opt_state.step(params.flat, grads.flat, live)
            if not history:
                history = {key: np.empty((S, -(-n // bs))) for key, value in figures.items() if not callable(value)}
            for key, rows in history.items():
                rows[:, j] = figures[key]
        shuffled = noise = None  # not held while the caller logs the epoch
        # each replica's batch figures are one contiguous row, so its mean
        # sums them as np.mean of a one-model list would
        yield epoch, {key: rows.mean(axis=1) for key, rows in history.items()}


# ---------------------------------------------------------------------------
# stacks of runs
# ---------------------------------------------------------------------------

def _as_stack(ds, config):
    """(datasets, configs) of one run, or of a stack of runs given as lists,
    which must differ in seed and data only, the data not in shape."""
    if isinstance(ds, data.Dataset):
        return [ds], [config.validate()]
    datasets, configs = list(ds), [cfg.validate() for cfg in config]
    if not datasets:
        raise ConfigError("a stack needs at least one run")
    if len(datasets) != len(configs):
        raise ConfigError(f"a stack needs one config per dataset, got {len(configs)} for {len(datasets)}")
    shared = {**configs[0].to_dict(), "seed": None}
    if any({**cfg.to_dict(), "seed": None} != shared for cfg in configs):
        raise ConfigError("stacked runs may differ in seed only")
    first = datasets[0]
    if any(len(d) != len(first) or d.feature_dim != first.feature_dim or d.categories != first.categories
           for d in datasets):
        raise data.DataError("stacked runs need datasets of one size, feature dimension and categories")
    return datasets, configs


def _stacked(params, S):
    """A stacked copy of ``params`` (one model, or a stack of S)."""
    flat = params.flat if params.flat.ndim == 2 else params.flat[None]
    if flat.shape[0] != S:
        raise ConfigError(f"parameters hold {flat.shape[0]} replicas, the stack has {S}")
    return params.with_flat(flat.copy())


def _result(ds, params, logs, errors=None):
    """What a stage returns: (params, logs) of a stack, a diverged replica's
    log being its error, or for one run its model and log, raising its
    divergence."""
    logs = [error or log for log, error in zip(logs, errors or [None] * len(logs))]
    if not isinstance(ds, data.Dataset):
        return params, logs
    if isinstance(logs[0], TrainingDiverged):
        raise logs[0]
    return params.replica(0), logs[0]


# ---------------------------------------------------------------------------
# stage 1
# ---------------------------------------------------------------------------

def train_stage1_lq(ds, config):
    """Multi-task stage-1 training. With enable_lq=False the semantic loss
    is evaluated at mu (deterministic arm) and the variance head stays at
    its initialization. Returns (params, train_log).

    For a stack (lists of datasets and configs) it returns the (S, P)
    parameters and one log per replica; a replica that diverges is frozen
    and its log is its TrainingDiverged. One run raises it instead.
    """
    datasets, configs = _as_stack(ds, config)
    cfg, S = configs[0], len(configs)
    if cfg.lambda_s != 0.0 and not datasets[0].categories:
        raise ConfigError("semantic supervision requires at least one category")
    params = model.ModelParams.stack([
        model.init_params(d.feature_dim, d.categories, B=run.embedding_dim, hidden=run.hidden, seed=run.seed)
        for d, run in zip(datasets, configs)
    ])

    X = np.stack([d.x for d in datasets])
    c = np.stack([d.c for d in datasets])
    categories = list(datasets[0].categories)
    labels = [np.stack([d.s[cat] for d in datasets]) for cat in categories]

    def step(batch, eps):
        X_b, c_b, *s_b = batch
        loss, grads, aux = losses.stage1_objective(
            params, X_b, c_b, dict(zip(categories, s_b)), eps, lambda_s=cfg.lambda_s, enable_lq=cfg.enable_lq,
        )
        return grads, {"total": loss.total, "loss_c": aux["loss_c"], "loss_s": aux["loss_s"]}

    logs, errors = [[] for _ in range(S)], [None] * S
    seeds = [run.seed for run in configs]
    stage = run_stage(params, [X, c, *labels], 1, cfg.stage1, seeds, step, errors, noise_dim=params.B)
    for epoch, means in stage:
        sigma_l, sigma_d_sq, acc = _stage1_figures(params, X, c)
        for r, log in enumerate(logs):
            log.append({
                "stage": 1,
                "epoch": epoch,
                "loss_total": float(means["total"][r]),
                "loss_c": float(means["loss_c"][r]),
                "mean_sigma_l": float(sigma_l[r]),
                "mean_sigma_d_sq": float(sigma_d_sq[r]),
                "train_acc": float(acc[r]),
            })
    return _result(ds, params, logs, errors)


def _stage1_figures(params, X, c):
    """Per-replica mean sigma_L, mean sigma_D^2 and accuracy on all rows."""
    mu = model.embed(params, X)
    sigma_l = model.lq_variance(params, mu).reshape(len(mu), -1).mean(axis=1)
    acc = np.mean(np.argmax(model.live_spoof_logits(params, mu), axis=-1) == c, axis=1)
    return sigma_l, model.dq_variance(params, mu).mean(axis=1), acc


# ---------------------------------------------------------------------------
# stage 2
# ---------------------------------------------------------------------------

def train_stage2_dq(params, ds, config):
    """Finetune omega_c and the data-quality head on the normalized NLL;
    backbone and label-quality head get zero gradients, so they stay
    bit-identical under SGD and Adam alike. Stacks as train_stage1_lq."""
    datasets, configs = _as_stack(ds, config)
    cfg, S = configs[0], len(configs)
    params = _stacked(params, S)
    X = np.stack([d.x for d in datasets])
    c = np.stack([d.c for d in datasets])

    def step(batch, _):
        loss, grads, aux = losses.stage2_objective(params, *batch)
        return grads, {"total": loss.total, "mean_d2": aux["d2"].mean(axis=-1)}

    logs, errors = [[] for _ in range(S)], [None] * S
    seeds = [run.seed for run in configs]
    stage = run_stage(params, [X, c], 2, cfg.stage2, seeds, step, errors)
    for epoch, means in stage:
        sigma_d_sq = model.dq_variance(params, model.embed(params, X)).mean(axis=1)
        for r, log in enumerate(logs):
            log.append({
                "stage": 2,
                "epoch": epoch,
                "loss_total": float(means["total"][r]),
                "mean_sigma_d_sq": float(sigma_d_sq[r]),
            })
    return _result(ds, params, logs, errors)


def train_two_stage(ds, config):
    """Stage 1 followed (when enable_dq) by stage 2. A stack's replicas
    that diverge in stage 1 skip stage 2; the logs join both stages."""
    datasets, configs = _as_stack(ds, config)
    return _result(ds, *_after_stage1(*train_stage1_lq(datasets, configs), datasets, configs))


def _after_stage1(params, logs, datasets, configs):
    """train_two_stage's tail: stage 2 (when enable_dq) of the stack's
    replicas that survived stage 1 (params, logs), on a copy, so the
    stage-1 result stays as it is for other arms to start from."""
    alive = [r for r, log in enumerate(logs) if not isinstance(log, TrainingDiverged)]
    if not (configs[0].enable_dq and alive):
        return params, logs
    tuned, logs2 = train_stage2_dq(
        params.with_flat(params.flat[alive]), [datasets[r] for r in alive], [configs[r] for r in alive]
    )
    params, logs = params.copy(), list(logs)
    params.flat[alive] = tuned.flat
    for r, log2 in zip(alive, logs2):
        logs[r] = log2 if isinstance(log2, TrainingDiverged) else logs[r] + log2
    return params, logs


ARMS = ("baseline", "s", "s-lq", "s-lq-dq")


def train_arms(ds, arms, config):
    """train_two_stage of each ablation arm of ``config``, in ``arms``
    order, on one run or a stack: yields (arm, arm config(s), params,
    log(s)) as train_two_stage returns them, so one run raises its arm's
    divergence before later arms train.

    Arms whose configs agree on every field that stage 1 reads (all but
    stage2 and enable_dq) share one stage-1 run, each going on to its own
    stage 2 from a copy of it; stage 1 is deterministic in those fields,
    so every arm ends on the bytes it reaches when trained alone.
    """
    datasets, configs = _as_stack(ds, config)
    stage1 = {}
    for arm in arms:
        arm_cfgs = [arm_config(arm, cfg) for cfg in configs]
        key = json.dumps([{**cfg.to_dict(), "stage2": None, "enable_dq": None} for cfg in arm_cfgs])
        if key not in stage1:
            stage1[key] = train_stage1_lq(datasets, arm_cfgs)
        params, logs = _result(ds, *_after_stage1(*stage1[key], datasets, arm_cfgs))
        yield arm, arm_cfgs[0] if isinstance(ds, data.Dataset) else arm_cfgs, params, logs


def arm_config(arm, base):
    """Map an ablation arm name onto the TrainConfig enable bits."""
    if arm not in ARMS:
        raise ConfigError(f"unknown arm {arm!r}; expected one of {ARMS}")
    cfg = TrainConfig.from_dict(base.to_dict())
    if arm == "baseline":
        cfg.lambda_s = 0.0
        cfg.enable_lq = False
        cfg.enable_dq = False
    else:
        cfg.lambda_s = base.lambda_s if base.lambda_s > 0 else 1.0
        cfg.enable_lq = arm in ("s-lq", "s-lq-dq")
        cfg.enable_dq = arm == "s-lq-dq"
    return cfg


# ---------------------------------------------------------------------------
# train log I/O (line-delimited JSON)
# ---------------------------------------------------------------------------

def save_trainlog(log, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in log:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")


def load_trainlog(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


# ---------------------------------------------------------------------------
# checkpoint format: magic, 4-byte header length, JSON header, raw float64
# buffers in header order. Deterministic byte-for-byte.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"PROBFAS-CKPT v1\n"


def save_checkpoint(path, params, config=None):
    params.check_finite()
    # the empty extra_arrays and extra_meta keep the v1 header's bytes
    header = {
        "version": 1,
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in params.named_tensors()],
        "extra_arrays": [],
        "config": config.to_dict() if config is not None else None,
        "extra_meta": {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (params, config_or_None)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror or exc}") from exc
    if blob[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    header_start = len(_CKPT_MAGIC) + 4
    if len(blob) < header_start:
        raise CheckpointError(f"{path}: truncated header length")
    (hlen,) = struct.unpack_from("<I", blob, len(_CKPT_MAGIC))
    body_start = header_start + hlen
    if body_start > len(blob):
        raise CheckpointError(
            f"{path}: truncated header: {hlen} bytes declared, {len(blob) - header_start} present"
        )
    try:
        header = json.loads(blob[header_start:body_start].decode("utf-8"))
        specs = [(spec["name"], tuple(int(d) for d in spec["shape"])) for spec in header["tensors"]]
        config = TrainConfig.from_dict(header["config"]) if header["config"] else None
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from exc

    sizes = [math.prod(shape) for _, shape in specs]
    body_len = len(blob) - body_start
    if body_len != 8 * sum(sizes):
        problem = "truncated body" if body_len < 8 * sum(sizes) else "trailing bytes after body"
        raise CheckpointError(f"{path}: {problem}: {body_len} bytes, header declares {8 * sum(sizes)}")
    body = np.frombuffer(blob, dtype="<f8", offset=body_start)
    arrays, offset = {}, 0
    for (name, shape), size in zip(specs, sizes):
        arrays[name] = body[offset : offset + size].reshape(shape)
        offset += size

    layer_idx = sorted({int(n.split(".")[1]) for n in arrays if n.startswith("layers.")})
    try:
        layers = [(arrays[f"layers.{i}.W"], arrays[f"layers.{i}.b"]) for i in layer_idx]
        params = model.ModelParams(
            layers=layers,
            w_lq=arrays["w_lq"],
            b_lq=arrays["b_lq"],
            w_dq=arrays["w_dq"],
            b_dq=arrays["b_dq"],
            omega_c=arrays["omega_c"],
            omega_s={n.split(".", 1)[1]: arrays[n] for n in arrays if n.startswith("omega_s.")},
        )
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing tensor {exc}") from exc

    if config is not None and params.B != config.embedding_dim:
        raise CheckpointError(
            f"{path}: embedding dim {params.B} does not match config embedding_dim {config.embedding_dim}"
        )
    return params, config
