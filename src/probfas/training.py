"""Two-stage training pipeline.

Stage 1 trains the backbone, the label-quality head and both classifier
matrices with Adam on the multi-task objective. Stage 2 freezes the
backbone and label-quality head and finetunes only omega_c and the
data-quality head with SGD on the normalized Gaussian NLL.

Determinism: per-epoch shuffling and reparameterization noise use
independent streams derived from (seed, stage, epoch).

Training takes stacks only: lists of datasets and configs of runs that
differ only in seed and data, trained side by side as one stacked model
(see ``model``). Each replica keeps its own streams, so it ends bit for bit
where it would alone; one run is a stack of one, built by its caller.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields

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

    def __reduce__(self):
        # Exception's own reduce passes the message alone to __init__
        return type(self), (self.stage, self.epoch, self.components)


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
    """The one training default, of the CLI, the benchmark and the library.

    The paper trains a ResNet-18 with Adam at 1e-4 for 50 epochs. At desk
    scale, a small MLP on a few hundred synthetic samples, stage 1 takes
    Adam at 3e-3 so it converges, for 125 epochs so the learned
    label-quality scale anneals toward its deterministic limit within the
    budget. enable_lq and enable_dq belong to the ablation arm (see
    arm_config), not to a config file.
    """

    stage1: StageConfig = field(default_factory=lambda: StageConfig("adam", 3e-3, 125, 32))
    stage2: StageConfig = field(default_factory=lambda: StageConfig("sgd", 1e-1, 50, 32))
    lambda_s: float = 1.0
    seed: int = 0
    enable_lq: bool = True
    enable_dq: bool = True
    hidden: tuple = (32,)
    embedding_dim: int = 16

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
        d = {**d, "stage1": StageConfig(**d["stage1"]), "stage2": StageConfig(**d["stage2"])}
        if "hidden" in d:
            d["hidden"] = tuple(d["hidden"])
        return TrainConfig(**d).validate()


def _config_fields(cls, prefix=""):
    """(config-file key, type) of every field of a config dataclass in
    field order, a StageConfig's fields expanded in place under its name."""
    for f in fields(cls):
        if f.type is StageConfig:
            yield from _config_fields(StageConfig, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f.type


_ARM_KEYS = ("enable_lq", "enable_dq")
_CONFIG_KEYS = {key: typ for key, typ in _config_fields(TrainConfig) if key not in _ARM_KEYS}


def load_config(path):
    """Flat `key = value` config file over the TrainConfig defaults; unknown
    keys and the arm's enable_* keys are rejected."""
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
        if key in _ARM_KEYS:
            raise ConfigError(f"{path}:{lineno}: {key} is set by --arm, not by a config file")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        typ = _CONFIG_KEYS[key]
        try:
            if typ is tuple:
                parsed = tuple(int(tok) for tok in val.split(",") if tok.strip())
            else:
                parsed = typ(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
        setattr(*_slot(cfg, key), parsed)
    return cfg.validate()


def _slot(cfg, key):
    """(object, attribute name) of the field a config-file key names."""
    stage_name, _, attr = key.rpartition(".")
    return (getattr(cfg, stage_name) if stage_name else cfg), attr


def save_config(cfg, path):
    lines = []
    for key in _CONFIG_KEYS:
        val = getattr(*_slot(cfg, key))
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        lines.append(f"{key} = {val}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# minibatch driver
# ---------------------------------------------------------------------------

def _epoch_rng(seed, stage, epoch, stream):
    """Stream 0 of an epoch shuffles its rows, stream 1 draws its noise."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), stage, epoch, stream])))


def run_stage(params, columns, stage, stage_cfg, seeds, step, noise_dim=0):
    """Minibatch training in place of the S = len(seeds) replicas stacked in
    ``params`` (flat (S, P)) for stage_cfg.epochs epochs, on ``columns``:
    the replicas' sample arrays, each (S, n, ...).

    Replica r shuffles its n rows with, and draws its (n, noise_dim) noise
    of each epoch from, streams (seeds[r], stage, epoch, 0) and (..., 1), so
    it trains as it would alone; with noise_dim 0 no noise stream is built.
    ``step(batch, eps, grads) -> figures`` gets the columns' rows of one
    batch, (S, bs, ...) each, their noise rows (S, bs, noise_dim), or None
    without noise, and the stage's one gradient struct (shaped as params),
    zeroed before each step, to put the batch's gradients into: written
    rather than added to zeros, a zero gradient may be -0.0, a sign that
    neither update reads (Adam's in any case, SGD's but for p = -0.0,
    which training never makes). ``figures`` maps names to (S,) arrays,
    ``figures["total"]`` being the batch losses, or to functions of a
    replica index, evaluated only to report a divergence.

    The stage steps stage_cfg's optimizer; Adam's (S, P) moments start at
    zero, and its scratch is the stage's too, so an update allocates no
    (S, P) array. Before each step, the first replica whose total is
    non-finite or beyond DIVERGENCE_CAP raises its TrainingDiverged with all
    its figures: in a stack of one, the error the run meets alone. Which run
    of a larger stack to report is the caller's choice (see train_arms).
    Yields (epoch, means) after each epoch, means holding the (S,) epoch
    means of every array figure.
    """
    S, n = len(seeds), columns[0].shape[1]
    flat, adam = params.flat, stage_cfg.optimizer == "adam"
    grads = params.zeros_like()
    if adam:
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        scratch = np.empty((2, *flat.shape))
    t, bs = 0, stage_cfg.batch_size
    order = np.empty((S, n), dtype=np.int64)
    offsets = np.arange(0, S * n, n)[:, None]  # of each replica's rows in a column's (S * n) rows
    for epoch in range(stage_cfg.epochs):
        for row, seed in zip(order, seeds):  # Generator.permutation(n) is a shuffle of arange(n)
            row[...] = np.arange(n)
            _epoch_rng(seed, stage, epoch, 0).shuffle(row)
        order += offsets
        shuffled = [np.take(col.reshape(S * n, *col.shape[2:]), order, axis=0) for col in columns]
        if noise_dim:
            noise = np.empty((S, n, noise_dim))
            for rows, seed in zip(noise, seeds):
                _epoch_rng(seed, stage, epoch, 1).standard_normal(out=rows)
        history = {}
        # silenced: a step's non-finite values reach a total, which the divergence check reports
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for j, lo in enumerate(range(0, n, bs)):
                grads.flat.fill(0.0)
                figures = step([col[:, lo : lo + bs] for col in shuffled],
                               noise[:, lo : lo + bs] if noise_dim else None, grads)
                diverged = [r for r, x in enumerate(figures["total"].tolist()) if not abs(x) <= DIVERGENCE_CAP]
                if diverged:
                    r = diverged[0]
                    raise TrainingDiverged(stage, epoch, {
                        key: value(r) if callable(value) else float(value[r]) for key, value in figures.items()
                    })
                t += 1
                if adam:
                    kernels.adam_step(flat, grads.flat, m, v, stage_cfg.lr, t, scratch)
                else:
                    grads.flat *= stage_cfg.lr  # the struct is zeroed before the next step
                    flat -= grads.flat
                if not history:
                    history = {key: np.empty((S, -(-n // bs))) for key, value in figures.items()
                               if not callable(value)}
                for key, rows in history.items():
                    rows[:, j] = figures[key]
        shuffled = noise = None  # not held while the caller logs the epoch
        # each replica's batch figures are one contiguous row, so its mean
        # sums them as np.mean of a one-model list would
        yield epoch, {key: rows.mean(axis=1) for key, rows in history.items()}


# ---------------------------------------------------------------------------
# stacks of runs
# ---------------------------------------------------------------------------

def _check_stack(datasets, configs):
    """Checks that lists of datasets and configs are a stack of runs: runs
    that differ in seed and data only, the data not in shape."""
    if not (isinstance(datasets, list) and isinstance(configs, list)):
        raise ConfigError("training takes a list of datasets and a list of configs; one run is a list of one")
    for cfg in configs:
        cfg.validate()
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


# ---------------------------------------------------------------------------
# stage 1
# ---------------------------------------------------------------------------

def train_stage1_lq(datasets, configs, keep_logs=True):
    """Multi-task stage-1 training of a stack of runs. With enable_lq=False
    the semantic loss is evaluated at mu (deterministic arm), no noise is
    drawn and the variance head stays at its initialization.

    Returns the (S, P) parameters and one train log per replica, or raises
    the TrainingDiverged of run_stage. Without keep_logs no per-epoch
    figure is computed and the logs are empty.
    """
    _check_stack(datasets, configs)
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

    def step(batch, eps, grads):
        X_b, c_b, *s_b = batch
        loss, aux = losses.stage1_objective(params, X_b, c_b, dict(zip(categories, s_b)), eps, grads,
                                            lambda_s=cfg.lambda_s, enable_lq=cfg.enable_lq)
        return {"total": loss.total, "loss_c": aux["loss_c"], "loss_s": aux["loss_s"]}

    logs = [[] for _ in range(S)]
    seeds = [run.seed for run in configs]
    stage = run_stage(params, [X, c, *labels], 1, cfg.stage1, seeds, step,
                      noise_dim=params.B if cfg.enable_lq else 0)
    for epoch, means in stage:
        if not keep_logs:
            continue
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
    return params, logs


def _stage1_figures(params, X, c):
    """Per-replica mean sigma_L, mean sigma_D^2 and accuracy on all rows."""
    mu = model.embed(params, X)
    sigma_l = model.lq_variance(params, mu).reshape(len(mu), -1).mean(axis=1)
    acc = np.mean(np.argmax(model.live_spoof_logits(params, mu), axis=-1) == c, axis=1)
    return sigma_l, model.dq_variance(params, mu).mean(axis=1), acc


# ---------------------------------------------------------------------------
# stage 2
# ---------------------------------------------------------------------------

def train_stage2_dq(params, datasets, configs, keep_logs=True):
    """Finetune omega_c and the data-quality head of a copy of the stack's
    (S, P) ``params`` on the normalized NLL; backbone and label-quality head
    get zero gradients, so they stay bit-identical under SGD and Adam
    alike. Each batch is still embedded as it comes, because a row's mu can
    round differently in a batch of another size (see model.embed). Stacks
    and returns as train_stage1_lq."""
    _check_stack(datasets, configs)
    cfg, S = configs[0], len(configs)
    if params.flat.shape[:-1] != (S,):
        raise ConfigError(f"stage 2 takes (S, P) parameters of the stack's {S} replicas, "
                          f"got shape {params.flat.shape}")
    params = params.copy()
    X = np.stack([d.x for d in datasets])
    c = np.stack([d.c for d in datasets])

    def step(batch, _, grads):
        X_b, c_b = batch
        loss, aux = losses.stage2_objective(params, model.embed(params, X_b), c_b, grads)
        # only a divergence report reads the mean distance
        return {"total": loss.total, "mean_d2": lambda r: float(aux["d2"][r].mean())}

    logs = [[] for _ in range(S)]
    seeds = [run.seed for run in configs]
    stage = run_stage(params, [X, c], 2, cfg.stage2, seeds, step)
    for epoch, means in stage:
        if not keep_logs:
            continue
        sigma_d_sq = model.dq_variance(params, model.embed(params, X)).mean(axis=1)
        for r, log in enumerate(logs):
            log.append({
                "stage": 2,
                "epoch": epoch,
                "loss_total": float(means["total"][r]),
                "mean_sigma_d_sq": float(sigma_d_sq[r]),
            })
    return params, logs


ARMS = ("baseline", "s", "s-lq", "s-lq-dq")
LQ_ARMS = ("s-lq", "s-lq-dq")  # the arms with the label-quality head


def train_arms(datasets, arms, configs, keep_logs=True):
    """Trains each ablation arm of a stack of runs, in ``arms`` order:
    stage 1, then stage 2 when the arm enables DQ. Yields (arm, arm
    configs, (S, P) params, one log per replica joining both stages, empty
    without keep_logs).

    If the stack diverges, the arm raises before it is yielded, so later
    arms do not train, and it raises the error one run after another would
    meet first: a stack of one raises its own; a larger stack trains the
    arm again run by run, in list order, until one raises.

    Arms whose configs agree on every field that stage 1 reads (all but
    stage2 and enable_dq) share one stage-1 run, each going on to its own
    stage 2 from a copy of it; stage 1 is deterministic in those fields,
    so every arm ends on the bytes it reaches when trained alone.
    """
    _check_stack(datasets, configs)
    stage1 = {}
    for arm in arms:
        arm_cfgs = [arm_config(arm, cfg) for cfg in configs]
        key = stage1_key(arm_cfgs)
        try:
            if key not in stage1:
                stage1[key] = train_stage1_lq(datasets, arm_cfgs, keep_logs=keep_logs)
            params, logs = stage1[key]
            if arm_cfgs[0].enable_dq:
                # stage 2 tunes a copy, leaving stage 1 for later arms
                params, logs2 = train_stage2_dq(params, datasets, arm_cfgs, keep_logs=keep_logs)
                logs = [log + log2 for log, log2 in zip(logs, logs2)]
        except TrainingDiverged:
            if len(datasets) == 1:
                raise
            for ds, cfg in zip(datasets, configs):
                next(train_arms([ds], [arm], [cfg], keep_logs=False))
            raise
        yield arm, arm_cfgs, params, logs


def stage1_key(arm_cfgs):
    """What stage 1 reads of an arm's configs: every field but stage2 and
    enable_dq, as text. Arms with equal keys train the same stage 1."""
    return json.dumps([{**cfg.to_dict(), "stage2": None, "enable_dq": None} for cfg in arm_cfgs])


def arm_config(arm, base):
    """Map an ablation arm name onto the TrainConfig enable bits and
    lambda_s: 0 for the baseline, a lambda_s of 0 read as 1.0 by the rest."""
    if arm not in ARMS:
        raise ConfigError(f"unknown arm {arm!r}; expected one of {ARMS}")
    lambda_s = 0.0 if arm == "baseline" else base.lambda_s or 1.0
    return TrainConfig.from_dict({**base.to_dict(), "lambda_s": lambda_s,
                                  "enable_lq": arm in LQ_ARMS, "enable_dq": arm == "s-lq-dq"})


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


def _header(params, config):
    """The JSON header of a checkpoint of one model and its config (or None);
    the empty extra_arrays and extra_meta keep the v1 header's bytes."""
    return json.dumps({
        "version": 1,
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in params.named_tensors()],
        "extra_arrays": [],
        "config": config.to_dict() if config is not None else None,
        "extra_meta": {},
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, params, config=None):
    params.check_finite()
    blob = _header(params, config)
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + struct.pack("<I", len(blob)) + blob)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (params, config_or_None) of a file as save_checkpoint writes
    it: the model is rebuilt from the widths its header's layers.*.W and
    omega_s.* shapes give, and the header must be, byte for byte, the one
    save_checkpoint writes for that model and config."""
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
        specs = [(spec["name"], spec["shape"]) for spec in header["tensors"]]
        if not all(type(d) is int and d >= 0 for _, shape in specs for d in shape):
            raise ValueError("tensor shapes must be lists of non-negative integers")
        config = TrainConfig.from_dict(header["config"]) if header["config"] else None
        widths = [shape for name, shape in specs if name.startswith("layers.") and name.endswith(".W")]
        sizes = [widths[0][1], *(shape[0] for shape in widths)]  # D, hidden..., B
        categories = {name[len("omega_s."):]: shape[0] for name, shape in specs if name.startswith("omega_s.")}
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, RecursionError, ConfigError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from exc

    n_params = sum(math.prod(shape) for _, shape in specs)
    body_len = len(blob) - body_start
    if body_len != 8 * n_params:
        problem = "truncated body" if body_len < 8 * n_params else "trailing bytes after body"
        raise CheckpointError(f"{path}: {problem}: {body_len} bytes, header declares {8 * n_params}")
    # the size of the model the widths give, checked before init_params
    # allocates it, so a header cannot make it allocate more than the body
    mismatch = CheckpointError(f"{path}: header is not the v1 header of the model "
                               "its layer and category widths describe")
    B = sizes[-1]
    if sum(o * (i + 1) for i, o in zip(sizes, sizes[1:])) + B * (B + 4 + sum(categories.values())) + 1 != n_params:
        raise mismatch
    params = model.init_params(sizes[0], categories, B=B, hidden=sizes[1:-1])
    if _header(params, config) != blob[header_start:body_start]:
        raise mismatch
    params = params.with_flat(np.frombuffer(blob, dtype="<f8", offset=body_start).astype(np.float64))
    try:
        params.check_finite()
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc

    if config is not None and params.B != config.embedding_dim:
        raise CheckpointError(
            f"{path}: embedding dim {params.B} does not match config embedding_dim {config.embedding_dim}"
        )
    if config is not None and tuple(sizes[1:-1]) != config.hidden:
        raise CheckpointError(f"{path}: hidden widths {sizes[1:-1]} do not match config hidden {list(config.hidden)}")
    return params, config
