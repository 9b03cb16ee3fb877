"""Synthetic dataset generation, noise injection, and dataset file I/O.

Datasets mimic the anti-spoofing label structure: a binary live/spoof
label plus one or more semantic categories. The first category drives
the spoof sub-cluster geometry; live samples carry a placeholder value
for it and are excluded from semantic supervision. All operations are
pure functions of (input, seed).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels

LIVE = 1
SPOOF = 0

_CLUSTER_STD = 1.0
_BASE_RADIUS = 4.0
_EXTRA_OFFSET_SCALE = 0.3


class DataError(Exception):
    """Invalid configuration or malformed dataset file."""


@dataclass
class NoiseFlags:
    label_flipped: bool = False
    semantic_reassigned: bool = False
    data_corrupted: bool = False
    corruption_severity: float = 0.0


@dataclass
class Sample:
    id: int
    x: np.ndarray
    c: int
    s: dict
    flags: NoiseFlags = field(default_factory=NoiseFlags)
    s_annotated: dict | None = None  # original labels kept around after self-labeling

    def copy(self):
        return Sample(
            id=self.id,
            x=self.x.copy(),
            c=self.c,
            s=dict(self.s),
            flags=replace(self.flags),
            s_annotated=None if self.s_annotated is None else dict(self.s_annotated),
        )

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        return (
            self.id == other.id
            and np.array_equal(self.x, other.x)
            and self.c == other.c
            and self.s == other.s
            and self.flags == other.flags
            and self.s_annotated == other.s_annotated
        )


@dataclass
class Dataset:
    samples: list
    feature_dim: int
    categories: dict  # name -> cardinality
    seed_provenance: int

    def __post_init__(self):
        for smp in self.samples:
            if smp.x.shape != (self.feature_dim,):
                raise DataError(f"sample {smp.id}: feature dim {smp.x.shape} != ({self.feature_dim},)")
            for name, val in smp.s.items():
                card = self.categories.get(name)
                if card is None:
                    raise DataError(f"sample {smp.id}: unknown category {name!r}")
                if not 0 <= val < card:
                    raise DataError(f"sample {smp.id}: label {val} out of range for {name!r} (<{card})")
        ids = [smp.id for smp in self.samples]
        if ids != list(range(len(ids))):
            raise DataError("sample ids must be dense [0, N)")

    def __len__(self):
        return len(self.samples)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.feature_dim == other.feature_dim
            and self.categories == other.categories
            and self.seed_provenance == other.seed_provenance
            and self.samples == other.samples
        )

    def copy(self):
        return Dataset(
            samples=[s.copy() for s in self.samples],
            feature_dim=self.feature_dim,
            categories=dict(self.categories),
            seed_provenance=self.seed_provenance,
        )

    @property
    def primary_category(self):
        return next(iter(self.categories))

    # dense array views -----------------------------------------------------

    def X(self):
        return np.stack([s.x for s in self.samples]).astype(np.float64)

    def c_labels(self):
        return np.array([s.c for s in self.samples], dtype=np.int64)

    def s_labels(self, category=None):
        category = category or self.primary_category
        return np.array([s.s[category] for s in self.samples], dtype=np.int64)

    def spoof_mask(self):
        return self.c_labels() == SPOOF

    def flag_mask(self, flag_name):
        return np.array([getattr(s.flags, flag_name) for s in self.samples], dtype=bool)


@dataclass
class NoiseSpec:
    semantic_noise_fraction: float = 0.0
    binary_label_flip_fraction: float = 0.0
    data_noise_fraction: float = 0.0
    data_noise_severity: float = 0.0
    cluster_overlap: float = 0.0

    def __post_init__(self):
        for name in ("semantic_noise_fraction", "binary_label_flip_fraction", "data_noise_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name} must be in [0,1], got {v}")
        if self.data_noise_severity < 0:
            raise DataError("data_noise_severity must be >= 0")
        if self.cluster_overlap < 0:
            raise DataError("cluster_overlap must be >= 0")


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def generate_synthetic(n_per_class, D, categories, cluster_overlap, seed):
    """Gaussian-cluster dataset: one live cluster plus one sub-cluster per
    spoof type of the first category. Center radius shrinks as
    1/(1+cluster_overlap), so larger overlap means more class confusion.
    """
    if n_per_class < 1:
        raise DataError(f"n_per_class must be >= 1, got {n_per_class}")
    if D < 2:
        raise DataError(f"D must be >= 2, got {D}")
    if not categories:
        raise DataError("at least one semantic category is required")
    for name, card in categories.items():
        if card < 2:
            raise DataError(f"category {name!r} cardinality must be >= 2, got {card}")
    if cluster_overlap < 0:
        raise DataError("cluster_overlap must be >= 0")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    names = list(categories)
    primary = names[0]
    a_primary = categories[primary]

    radius = _BASE_RADIUS / (1.0 + cluster_overlap)
    # one center for live, one per spoof type; random directions, fixed radius
    dirs = rng.standard_normal((a_primary + 1, D))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = dirs * radius

    # per-label offsets for auxiliary categories, weakly encoded in x
    extra_offsets = {
        name: rng.standard_normal((categories[name], D)) * _EXTRA_OFFSET_SCALE
        for name in names[1:]
    }

    samples = []
    next_id = 0

    def emit(center, c_label, s_primary):
        nonlocal next_id
        s = {primary: s_primary}
        x = center + _CLUSTER_STD * rng.standard_normal(D)
        for name in names[1:]:
            lab = int(rng.integers(0, categories[name]))
            s[name] = lab
            x = x + extra_offsets[name][lab]
        samples.append(Sample(id=next_id, x=x, c=c_label, s=s))
        next_id += 1

    for _ in range(n_per_class):
        emit(centers[0], LIVE, 0)
    for t in range(a_primary):
        for _ in range(n_per_class):
            emit(centers[t + 1], SPOOF, t)

    return Dataset(samples=samples, feature_dim=D, categories=dict(categories), seed_provenance=int(seed))


def split_dataset(ds, test_fraction, seed):
    """Deterministic shuffled split; both halves are reindexed densely."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0,1), got {test_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5711]))
    order = rng.permutation(len(ds))
    n_test = _round_half_up(test_fraction * len(ds))
    test_ids = set(order[:n_test].tolist())

    def rebuild(ids):
        out = []
        for new_id, old_id in enumerate(ids):
            smp = ds.samples[old_id].copy()
            smp.id = new_id
            out.append(smp)
        return Dataset(out, ds.feature_dim, dict(ds.categories), ds.seed_provenance)

    train_ids = [i for i in range(len(ds)) if i not in test_ids]
    test_ids_sorted = [i for i in range(len(ds)) if i in test_ids]
    return rebuild(train_ids), rebuild(test_ids_sorted)


def inject_semantic_label_noise(ds, fraction, seed, category=None):
    """Re-draw the semantic label of round(fraction * N_spoof) spoof samples
    uniformly (possibly equal to the original)."""
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"fraction must be in [0,1], got {fraction}")
    out = ds.copy()
    if fraction == 0.0:
        return out
    category = category or ds.primary_category
    card = ds.categories[category]
    spoof_ids = [s.id for s in ds.samples if s.c == SPOOF]
    n_pick = _round_half_up(fraction * len(spoof_ids))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E3A]))
    picked = rng.choice(len(spoof_ids), size=n_pick, replace=False)
    for k in sorted(picked.tolist()):
        smp = out.samples[spoof_ids[k]]
        smp.s[category] = int(rng.integers(0, card))
        smp.flags.semantic_reassigned = True
    return out


def inject_binary_label_noise(ds, fraction, seed):
    """Flip the live/spoof label of round(fraction * N) samples."""
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"fraction must be in [0,1], got {fraction}")
    out = ds.copy()
    if fraction == 0.0:
        return out
    n_pick = _round_half_up(fraction * len(ds))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xF11B]))
    picked = rng.choice(len(ds), size=n_pick, replace=False)
    for idx in sorted(picked.tolist()):
        smp = out.samples[idx]
        smp.c = 1 - smp.c
        smp.flags.label_flipped = True
    return out


def inject_data_noise(ds, fraction, severity, seed, window=3):
    """Degrade round(fraction * N) feature vectors: boxcar smoothing over the
    feature axis plus additive Gaussian noise with std = severity."""
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"fraction must be in [0,1], got {fraction}")
    if severity < 0:
        raise DataError(f"severity must be >= 0, got {severity}")
    out = ds.copy()
    if fraction == 0.0:
        return out
    n_pick = _round_half_up(fraction * len(ds))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A2]))
    picked = sorted(rng.choice(len(ds), size=n_pick, replace=False).tolist())
    if picked:
        X = np.stack([out.samples[i].x for i in picked])
        smoothed = kernels.smooth_rows(X, window)
        noise = rng.standard_normal(X.shape)
        degraded = smoothed + severity * noise
        for row, idx in enumerate(picked):
            smp = out.samples[idx]
            smp.x = degraded[row]
            smp.flags.data_corrupted = True
            smp.flags.corruption_severity = float(severity)
    return out


def apply_noise(ds, spec: NoiseSpec, seed):
    """Apply all three injectors of a NoiseSpec in a fixed order."""
    out = inject_semantic_label_noise(ds, spec.semantic_noise_fraction, seed)
    out = inject_binary_label_noise(out, spec.binary_label_flip_fraction, seed)
    out = inject_data_noise(out, spec.data_noise_fraction, spec.data_noise_severity, seed)
    return out


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------
#   #probfas-dataset v1
#   #D=<int> seed=<int> categories=<name>:<card>[,<name>:<card>...]
#   id,x0,...,x{D-1},c,s:<name>,...,flags,severity
# flags is a 3-char bitfield: label_flipped, semantic_reassigned, data_corrupted

_MAGIC = "#probfas-dataset v1"


def _fmt_real(v):
    return format(float(v), ".17g")


def save_dataset(ds, path):
    names = list(ds.categories)
    cats = ",".join(f"{n}:{ds.categories[n]}" for n in names)
    lines = [_MAGIC, f"#D={ds.feature_dim} seed={ds.seed_provenance} categories={cats}"]
    header = ["id"] + [f"x{i}" for i in range(ds.feature_dim)] + ["c"]
    header += [f"s:{n}" for n in names] + ["flags", "severity"]
    lines.append(",".join(header))
    for smp in ds.samples:
        f = smp.flags
        bits = f"{int(f.label_flipped)}{int(f.semantic_reassigned)}{int(f.data_corrupted)}"
        row = [str(smp.id)] + [_fmt_real(v) for v in smp.x] + [str(smp.c)]
        row += [str(smp.s[n]) for n in names]
        row += [bits, _fmt_real(f.corruption_severity)]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln != ""]
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    if lines[0] != _MAGIC:
        raise DataError(f"{path}: bad magic line {lines[0]!r}")
    if len(lines) < 3:
        raise DataError(f"{path}: missing header lines")
    meta = {}
    for tok in lines[1].lstrip("#").split():
        key, _, val = tok.partition("=")
        meta[key] = val
    try:
        D = int(meta["D"])
        seed = int(meta["seed"])
        categories = {}
        for item in meta["categories"].split(","):
            name, _, card = item.partition(":")
            categories[name] = int(card)
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: malformed metadata line: {lines[1]!r}") from exc
    names = list(categories)
    expected_fields = 1 + D + 1 + len(names) + 2
    samples, features = [], []
    for ln in lines[3:]:
        parts = ln.split(",")
        row_id = parts[0]
        if len(parts) != expected_fields:
            raise DataError(
                f"{path}: row {row_id}: expected {expected_fields} fields, got {len(parts)}"
            )
        try:
            sid = int(parts[0])
            features.extend([float(v) for v in parts[1 : 1 + D]])
            c = int(parts[1 + D])
            s = {n: int(parts[2 + D + i]) for i, n in enumerate(names)}
            bits = parts[2 + D + len(names)]
            severity = float(parts[3 + D + len(names)])
        except ValueError as exc:
            raise DataError(f"{path}: row {row_id}: unparseable field ({exc})") from exc
        if len(bits) != 3 or any(b not in "01" for b in bits):
            raise DataError(f"{path}: row {row_id}: bad flags bitfield {bits!r}")
        flags = NoiseFlags(
            label_flipped=bits[0] == "1",
            semantic_reassigned=bits[1] == "1",
            data_corrupted=bits[2] == "1",
            corruption_severity=severity,
        )
        samples.append(Sample(id=sid, x=None, c=c, s=s, flags=flags))
    if not samples:
        raise DataError(f"{path}: dataset file has no sample rows")
    # one array for all features, checked at once; each x is a row view of it
    X = np.array(features, dtype=np.float64).reshape(len(samples), D)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: row {samples[bad[0]].id}: non-finite feature value")
    for smp, x in zip(samples, X):
        smp.x = x
    try:
        return Dataset(samples=samples, feature_dim=D, categories=categories, seed_provenance=seed)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
