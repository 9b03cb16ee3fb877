"""Synthetic dataset generation, noise injection, and dataset file I/O.

Datasets mimic the anti-spoofing label structure: a binary live/spoof
label plus one or more semantic categories. The first category drives
the spoof sub-cluster geometry; live samples carry a placeholder value
for it and are excluded from semantic supervision. All operations are
pure functions of (input, seed).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels

LIVE = 1
SPOOF = 0

_CLUSTER_STD = 1.0
_BASE_RADIUS = 4.0
_EXTRA_OFFSET_SCALE = 0.3


class DataError(Exception):
    """Invalid configuration or malformed dataset file."""


FLAGS = ("label_flipped", "semantic_reassigned", "data_corrupted")
_PROVENANCE = FLAGS + ("corruption_severity",)  # per-row noise columns


@dataclass(eq=False)
class Dataset:
    """Columnar dataset; a sample's id is its row index.

    x is (N, D) float64, c the binary labels and s one int64 label array
    per category. The noise flags and corruption_severity default to
    all-clean columns; a severity must be finite and >= 0. The accessors (X, c_labels, ...) return the stored
    columns, not copies.
    """

    x: np.ndarray
    c: np.ndarray
    s: dict  # category name -> (N,) labels
    categories: dict  # name -> cardinality
    seed_provenance: int
    label_flipped: np.ndarray = None
    semantic_reassigned: np.ndarray = None
    data_corrupted: np.ndarray = None
    corruption_severity: np.ndarray = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2 or self.x.shape[1] < 1:
            raise DataError(f"x must be (N, D) with D >= 1, got shape {self.x.shape}")
        n = self.x.shape[0]
        self.c = np.asarray(self.c, dtype=np.int64)
        self.s = {name: np.asarray(v, dtype=np.int64) for name, v in self.s.items()}
        for name in FLAGS:
            v = getattr(self, name)
            setattr(self, name, np.zeros(n, dtype=bool) if v is None else np.asarray(v, dtype=bool))
        sev = self.corruption_severity
        self.corruption_severity = np.zeros(n) if sev is None else np.asarray(sev, dtype=np.float64)
        if set(self.s) != set(self.categories):
            raise DataError(f"label columns {sorted(self.s)} do not match categories {sorted(self.categories)}")
        for name, col in self._columns():
            if name != "x" and col.shape != (n,):
                raise DataError(f"column {name!r} has shape {col.shape}, expected ({n},)")
        sev = self.corruption_severity
        bad = np.flatnonzero(~(np.isfinite(sev) & (sev >= 0)))
        if bad.size:
            raise DataError(f"row {bad[0]}: corruption_severity {sev[bad[0]]} is not finite and >= 0")
        bad = np.flatnonzero((self.c != LIVE) & (self.c != SPOOF))
        if bad.size:
            raise DataError(f"row {bad[0]}: binary label {self.c[bad[0]]} is not 0 or 1")
        for name, card in self.categories.items():
            bad = np.flatnonzero((self.s[name] < 0) | (self.s[name] >= card))
            if bad.size:
                raise DataError(
                    f"row {bad[0]}: label {self.s[name][bad[0]]} out of range for {name!r} (<{card})"
                )

    def _columns(self):
        """(name, array) of every per-row column, x first."""
        yield "x", self.x
        yield "c", self.c
        for name, col in self.s.items():
            yield f"s:{name}", col
        for name in _PROVENANCE:
            yield name, getattr(self, name)

    def _map_columns(self, fn):
        return Dataset(
            x=fn(self.x), c=fn(self.c), s={name: fn(col) for name, col in self.s.items()},
            categories=dict(self.categories), seed_provenance=self.seed_provenance,
            **{name: fn(getattr(self, name)) for name in _PROVENANCE},
        )

    def _rows(self, index):
        """New dataset of the selected rows (a mask or ascending indices)."""
        return self._map_columns(lambda col: col[index])

    def __len__(self):
        return self.x.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        mine, theirs = dict(self._columns()), dict(other._columns())
        return (
            self.categories == other.categories
            and self.seed_provenance == other.seed_provenance
            and mine.keys() == theirs.keys()
            and all(np.array_equal(col, theirs[name]) for name, col in mine.items())
        )

    def copy(self):
        return self._map_columns(np.copy)

    @property
    def feature_dim(self):
        return self.x.shape[1]

    @property
    def primary_category(self):
        return next(iter(self.categories))

    # stored columns, under the names callers use -----------------------------

    def X(self):
        return self.x

    def c_labels(self):
        return self.c

    def s_labels(self, category=None):
        return self.s[category or self.primary_category]

    def spoof_mask(self):
        return self.c == SPOOF

    def flag_mask(self, flag_name):
        if flag_name not in FLAGS:
            raise DataError(f"unknown noise flag {flag_name!r}")
        return getattr(self, flag_name)


def _check_fraction(fraction, kind):
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"{kind} noise fraction must be in [0,1], got {fraction}")


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
    # inf is allowed: it shrinks every center to the origin
    if not cluster_overlap >= 0:
        raise DataError(f"cluster_overlap must be >= 0, got {cluster_overlap}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    names = list(categories)
    primary, extra = names[0], names[1:]
    a_primary = categories[primary]

    radius = _BASE_RADIUS / (1.0 + cluster_overlap)
    # one center for live, one per spoof type; random directions, fixed radius
    dirs = rng.standard_normal((a_primary + 1, D))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = dirs * radius

    # per-label offsets for auxiliary categories, weakly encoded in x
    extra_offsets = {
        name: rng.standard_normal((categories[name], D)) * _EXTRA_OFFSET_SCALE
        for name in extra
    }

    # rows: n_per_class live, then n_per_class of each spoof type in turn
    cluster = np.repeat(np.arange(a_primary + 1), n_per_class)
    n = cluster.size
    s = {name: np.empty(n, dtype=np.int64) for name in extra}
    if extra:
        noise = np.empty((n, D))
        for i in range(n):  # one row's draws at a time: its noise, then its extra labels
            noise[i] = rng.standard_normal(D)
            for name in extra:
                s[name][i] = rng.integers(0, categories[name])
    else:  # the stream is sequential: the same draws as row by row
        noise = rng.standard_normal((n, D))
    x = centers[cluster] + _CLUSTER_STD * noise
    for name in extra:
        x = x + extra_offsets[name][s[name]]
    s[primary] = np.maximum(cluster - 1, 0)  # live rows carry spoof type 0
    return Dataset(
        x=x, c=np.where(cluster == 0, LIVE, SPOOF), s={name: s[name] for name in names},
        categories=dict(categories), seed_provenance=int(seed),
    )


def split_dataset(ds, test_fraction, seed):
    """Deterministic shuffled split; both halves keep the original row order."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0,1), got {test_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5711]))
    order = rng.permutation(len(ds))
    is_test = np.zeros(len(ds), dtype=bool)
    is_test[order[: _round_half_up(test_fraction * len(ds))]] = True
    return ds._rows(~is_test), ds._rows(is_test)


def _pick(rng, n, fraction):
    """Ascending indices of round(fraction * n) rows drawn without replacement."""
    return np.sort(rng.choice(n, size=_round_half_up(fraction * n), replace=False))


def inject_semantic_label_noise(ds, fraction, seed):
    """Re-draw the primary-category label of round(fraction * N_spoof) spoof
    samples uniformly (possibly equal to the original)."""
    _check_fraction(fraction, "semantic")
    out = ds.copy()
    if fraction == 0.0:
        return out
    category = ds.primary_category
    spoof_rows = np.flatnonzero(ds.c == SPOOF)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E3A]))
    rows = spoof_rows[_pick(rng, spoof_rows.size, fraction)]
    out.s[category][rows] = rng.integers(0, ds.categories[category], size=rows.size)
    out.semantic_reassigned[rows] = True
    return out


def inject_binary_label_noise(ds, fraction, seed):
    """Flip the live/spoof label of round(fraction * N) samples."""
    _check_fraction(fraction, "binary")
    out = ds.copy()
    if fraction == 0.0:
        return out
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xF11B]))
    rows = _pick(rng, len(ds), fraction)
    out.c[rows] = 1 - out.c[rows]
    out.label_flipped[rows] = True
    return out


def inject_data_noise(ds, fraction, severity, seed):
    """Degrade round(fraction * N) feature vectors: 3-wide boxcar smoothing
    over the feature axis plus additive Gaussian noise with std = severity."""
    _check_fraction(fraction, "data")
    if not (math.isfinite(severity) and severity >= 0):
        raise DataError(f"data noise severity must be finite and >= 0, got {severity}")
    out = ds.copy()
    if fraction == 0.0:
        return out
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A2]))
    rows = _pick(rng, len(ds), fraction)
    smoothed = kernels.smooth_rows(out.x[rows], 3)
    out.x[rows] = smoothed + severity * rng.standard_normal(smoothed.shape)
    out.data_corrupted[rows] = True
    out.corruption_severity[rows] = float(severity)
    return out


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------
#   #probfas-dataset v1
#   #D=<int> seed=<int> categories=<name>:<card>[,<name>:<card>...]
#   id,x0,...,x{D-1},c,s:<name>,...,flags,severity
# ids are the row index 0..N-1; flags is a 3-char bitfield:
# label_flipped, semantic_reassigned, data_corrupted

_MAGIC = "#probfas-dataset v1"
_BLOCK_ROWS = 4096  # rows per %-format call in write_table: writing holds one block's text


def _column_line(D, names):
    """The column-name line of a dataset file with D features and these categories."""
    return ",".join(["id", *(f"x{i}" for i in range(D)), "c", *(f"s:{n}" for n in names), "flags", "severity"])


def write_table(path, head, row_fmt, cells):
    """Write head, then row_fmt % row for each row of the (N, K) float64 cells, one block
    of _BLOCK_ROWS rows per %-format call: integer columns ride as exact floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for start in range(0, len(cells), _BLOCK_ROWS):
            block = cells[start : start + _BLOCK_ROWS]
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def save_dataset(ds, path):
    names = list(ds.categories)
    cats = ",".join(f"{n}:{ds.categories[n]}" for n in names)
    D = ds.feature_dim
    row_fmt = "%d" + ",%.17g" * D + ",%d" * (1 + len(names)) + ",%03d,%.17g\n"
    bits = 100 * ds.label_flipped + 10 * ds.semantic_reassigned + 1 * ds.data_corrupted
    cells = np.column_stack(
        [np.arange(len(ds)), ds.x, ds.c, *(ds.s[n] for n in names), bits, ds.corruption_severity]
    )
    head = f"{_MAGIC}\n#D={D} seed={ds.seed_provenance} categories={cats}\n{_column_line(D, names)}\n"
    write_table(path, head, row_fmt, cells)


def _read_header(fh, path):
    """The magic, metadata and column-name lines, blank lines skipped; the
    file is left at the first sample row."""
    lines = []
    while len(lines) < 3 and (ln := fh.readline()):
        if ln != "\n":
            lines.append(ln.rstrip("\n"))
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    if lines[0] != _MAGIC:
        raise DataError(f"{path}: bad magic line {lines[0]!r}")
    if len(lines) < 3:
        raise DataError(f"{path}: missing header lines")
    return lines


def _parse_rows(source, dtype):
    """All sample rows of a file object or list of lines in one C-level pass.

    Numbers must be plain ASCII as save_dataset writes them; blank lines are
    skipped. Raises ValueError at a row with the wrong field count or an
    unparseable field (a float in an int column included).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no rows: the caller reports it
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)


def _first_bad_row(lines, dtype):
    """Index of the first of lines the parser rejects, by bisection: a part
    that parses holds no bad row, so the left half is tried first."""
    lo, hi = 0, len(lines)  # lines[:lo] parse; lines[lo:hi] holds a bad row
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(lines[lo:mid], dtype)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def _row_error(path, dtype, n_fields):
    """DataError naming the first sample row the parser rejects (error path only)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln][3:]
    row = _first_bad_row(lines, dtype)
    got = lines[row].count(",") + 1
    if got != n_fields:
        return DataError(f"{path}: row {row}: expected {n_fields} fields, got {got}")
    try:
        _parse_rows(lines[row : row + 1], dtype)
    except ValueError as exc:  # the parser's own row numbering is dropped
        return DataError(f"{path}: row {row}: unparseable field ({str(exc).partition(' at row ')[0]})")
    return DataError(f"{path}: row {row}: unparseable row")


def _first(mask):
    bad = np.flatnonzero(mask)
    return bad[0] if bad.size else None


def load_dataset(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = _read_header(fh, path)
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
                if D < 1:
                    raise ValueError(D)
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}: malformed metadata line: {lines[1]!r}") from exc
            if lines[2] != _column_line(D, categories):
                raise DataError(
                    f"{path}: column-name line does not match the metadata line; "
                    f"expected {_column_line(D, categories)!r}"
                )
            K = len(categories)
            dtype = np.dtype(
                [("id", "i8"), ("x", "f8", (D,)), ("lab", "i8", (1 + K,)), ("flags", "U4"), ("sev", "f8")]
            )
            try:
                rows = _parse_rows(fh, dtype)
            except ValueError:
                raise _row_error(path, dtype, 1 + D + 1 + K + 2) from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read dataset: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: dataset file is not UTF-8 text ({exc.reason})") from exc
    n = rows.size
    if not n:
        raise DataError(f"{path}: dataset file has no sample rows")
    row = _first(rows["id"] != np.arange(n))
    if row is not None:
        raise DataError(f"{path}: row {row}: sample ids must be dense [0, N) in order, got id {rows['id'][row]}")
    # each bitfield is three of '0'/'1' and no fourth character
    codes = np.ascontiguousarray(rows["flags"]).view(np.uint32).reshape(n, 4)
    flags = codes[:, :3] == ord("1")
    valid = (flags | (codes[:, :3] == ord("0"))).all(axis=1) & (codes[:, 3] == 0)
    row = _first(~valid)
    if row is not None:
        raise DataError(f"{path}: row {row}: bad flags bitfield {rows['flags'][row]!r}")
    x = np.ascontiguousarray(rows["x"])
    row = _first(~np.isfinite(x).all(axis=1))
    if row is not None:
        raise DataError(f"{path}: row {row}: non-finite feature value")
    labels = np.ascontiguousarray(rows["lab"])
    try:
        return Dataset(
            x=x, c=labels[:, 0], s={name: labels[:, 1 + k] for k, name in enumerate(categories)},
            categories=categories, seed_provenance=seed,
            **{name: flags[:, k] for k, name in enumerate(FLAGS)},
            corruption_severity=np.ascontiguousarray(rows["sev"]),
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
