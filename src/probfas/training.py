"""Two-stage training pipeline.

Stage 1 trains the backbone, the label-quality head and both classifier
matrices with Adam on the multi-task objective. Stage 2 freezes the
backbone and label-quality head and finetunes only omega_c and the
data-quality head with SGD on the normalized Gaussian NLL.

Determinism: per-epoch shuffling and reparameterization noise use
independent streams derived from (seed, stage, epoch), so a run can be
resumed from a checkpoint and reproduce the uninterrupted result.
"""

import json
import math
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from . import kernels, losses, model

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
        if self.lr <= 0:
            raise ConfigError(f"{name}.lr must be > 0")
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
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0

    @staticmethod
    def create(stage_cfg, n_params):
        if stage_cfg.optimizer == "adam":
            return OptState("adam", stage_cfg.lr, np.zeros(n_params), np.zeros(n_params), 0)
        return OptState("sgd", stage_cfg.lr)

    def step(self, flat_params, flat_grads):
        if self.kind == "adam":
            self.t += 1
            kernels.adam_step(flat_params, flat_grads, self.m, self.v, self.lr, 0.9, 0.999, 1e-8, self.t)
        else:
            flat_params -= self.lr * flat_grads


def _epoch_rngs(seed, stage, epoch):
    shuffle = np.random.default_rng(np.random.SeedSequence([int(seed), stage, epoch, 0]))
    eps = np.random.default_rng(np.random.SeedSequence([int(seed), stage, epoch, 1]))
    return shuffle, eps


def run_stage(params, n, stage, stage_cfg, seed, step, start_epoch=0, opt_state=None):
    """Minibatch training of ``params`` in place over n samples, for epochs
    start_epoch .. stage_cfg.epochs - 1.

    Each epoch shuffles with, and hands ``step`` noise from, streams derived
    from (seed, stage, epoch), so a resumed run (same opt_state) reproduces
    the uninterrupted one. ``step(idx, eps_rng) -> (grads, figures)`` gets a
    batch's sample indices; ``figures["total"]`` is the batch loss, and all
    figures are reported if it is non-finite or beyond DIVERGENCE_CAP.
    Yields (epoch, means) after each epoch, means holding the epoch mean of
    every float figure.
    """
    if opt_state is None:
        opt_state = OptState.create(stage_cfg, params.flat.size)
    bs = stage_cfg.batch_size
    for epoch in range(start_epoch, stage_cfg.epochs):
        shuffle_rng, eps_rng = _epoch_rngs(seed, stage, epoch)
        order = shuffle_rng.permutation(n)
        history = {}
        for lo in range(0, n, bs):
            grads, figures = step(order[lo : lo + bs], eps_rng)
            total = figures["total"]
            if not np.isfinite(total) or abs(total) > DIVERGENCE_CAP:
                raise TrainingDiverged(stage, epoch, figures)
            opt_state.step(params.flat, grads.flat)
            for key, value in figures.items():
                history.setdefault(key, []).append(value)
        yield epoch, {key: float(np.mean(v)) for key, v in history.items() if isinstance(v[0], float)}


# ---------------------------------------------------------------------------
# stage 1
# ---------------------------------------------------------------------------

def train_stage1_lq(ds, config, params=None, start_epoch=0, opt_state=None):
    """Multi-task stage-1 training. With enable_lq=False the semantic loss
    is evaluated at mu (deterministic arm) and the variance head stays at
    its initialization. Returns (params, train_log)."""
    config.validate()
    if config.lambda_s != 0.0 and not ds.categories:
        raise ConfigError("semantic supervision requires at least one category")
    if params is None:
        params = model.init_params(
            ds.feature_dim, ds.categories, B=config.embedding_dim,
            hidden=config.hidden, seed=config.seed,
        )
    else:
        params = params.copy()

    X = ds.X()
    c = ds.c_labels()
    s_by_cat = {cat: ds.s_labels(cat) for cat in ds.categories}

    def step(idx, eps_rng):
        eps = eps_rng.standard_normal((idx.size, params.B))
        loss, grads, aux = losses.stage1_objective(
            params, X[idx], c[idx], {k: v[idx] for k, v in s_by_cat.items()},
            eps, lambda_s=config.lambda_s, enable_lq=config.enable_lq,
        )
        return grads, {"total": loss.total, "loss_c": aux["loss_c"], "loss_s": aux["loss_s"]}

    log = []
    stage = run_stage(params, len(ds), 1, config.stage1, config.seed, step, start_epoch, opt_state)
    for epoch, means in stage:
        mu_full = model.embed(params, X)
        log.append({
            "stage": 1,
            "epoch": epoch,
            "loss_total": means["total"],
            "loss_c": means["loss_c"],
            "mean_sigma_l": float(model.lq_variance(params, mu_full).mean()),
            "mean_sigma_d_sq": float(model.dq_variance(params, mu_full).mean()),
            "train_acc": float(np.mean(np.argmax(mu_full @ params.omega_c.T, axis=1) == c)),
        })
    return params, log


# ---------------------------------------------------------------------------
# stage 2
# ---------------------------------------------------------------------------

def train_stage2_dq(params, ds, config, start_epoch=0, opt_state=None):
    """Finetune omega_c and the data-quality head on the normalized NLL;
    backbone and label-quality head get zero gradients, so they stay
    bit-identical under SGD and Adam alike."""
    config.validate()
    params = params.copy()
    X = ds.X()
    c = ds.c_labels()

    def step(idx, _):
        loss, grads, aux = losses.stage2_objective(params, X[idx], c[idx])
        return grads, {"total": loss.total, "mean_d2": float(aux["d2"].mean())}

    log = []
    stage = run_stage(params, len(ds), 2, config.stage2, config.seed, step, start_epoch, opt_state)
    for epoch, means in stage:
        log.append({
            "stage": 2,
            "epoch": epoch,
            "loss_total": means["total"],
            "mean_sigma_d_sq": float(model.dq_variance(params, model.embed(params, X)).mean()),
        })
    return params, log


def train_two_stage(ds, config):
    """Stage 1 followed (when enable_dq) by stage 2."""
    params, log1 = train_stage1_lq(ds, config)
    if config.enable_dq:
        params, log2 = train_stage2_dq(params, ds, config)
        return params, log1 + log2
    return params, log1


ARMS = ("baseline", "s", "s-lq", "s-lq-dq")


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


def save_checkpoint(path, params, config=None, extra_arrays=None, extra_meta=None):
    params.check_finite()
    extra_arrays = extra_arrays or {}
    header = {
        "version": 1,
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in params.named_tensors()],
        "extra_arrays": [
            {"name": name, "shape": list(np.asarray(a).shape)} for name, a in sorted(extra_arrays.items())
        ],
        "config": config.to_dict() if config is not None else None,
        "extra_meta": extra_meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())
        for name, a in sorted(extra_arrays.items()):
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path, expect_config=None):
    """Returns (params, config_or_None, extra_arrays, extra_meta)."""
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
        specs = [(spec["name"], tuple(int(d) for d in spec["shape"]))
                 for spec in header["tensors"] + header["extra_arrays"]]
        config = TrainConfig.from_dict(header["config"]) if header["config"] else None
        extra_meta = header["extra_meta"]
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

    check_against = expect_config or config
    if check_against is not None and params.B != check_against.embedding_dim:
        raise CheckpointError(
            f"{path}: embedding dim {params.B} does not match config embedding_dim "
            f"{check_against.embedding_dim}"
        )
    extras = {name: arrays[name].copy() for name, _ in specs[len(header["tensors"]):]}
    return params, config, extras, extra_meta
