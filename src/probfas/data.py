"""Synthetic dataset generation, noise injection, and dataset file I/O.

Datasets mimic the anti-spoofing label structure: a binary live/spoof
label plus one or more semantic categories. The first category drives
the spoof sub-cluster geometry; live samples carry a placeholder value
for it and are excluded from semantic supervision. All operations are
pure functions of (input, seed).
"""

import functools
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
    x = np.multiply(noise, _CLUSTER_STD, out=noise)  # in place: no second (N, D) array
    x.reshape(-1, n_per_class, D)[...] += centers[:, None]  # the rows come grouped by cluster
    for name in extra:
        x += extra_offsets[name][s[name]]
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
_BLOCK_ROWS = 4096  # rows per formatted block in write_table: writing holds one block's bytes


def _column_line(D, names):
    """The column-name line of a dataset file with D features and these categories."""
    return ",".join(["id", *(f"x{i}" for i in range(D)), "c", *(f"s:{n}" for n in names), "flags", "severity"])


_SLOT = 24  # bytes per value in write_table's block buffer: three text words
_FIELDS = {"%.17g": None, "%r": None, "%d": 1, "%03d": 3}  # write_table's fields; for %d, the fewest digits
_JSON_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # %r of what json writes by name
_LE8 = np.dtype("<u8")  # a text word: 8 bytes, the first in the low byte
_P10 = np.array([float(10**p) for p in range(23)])  # every power of ten that is an exact double
# 10**e for e = -19..1, at e + 19, as a multiplier and a divisor of which one is 1
_UP = np.array([1.0] * 20 + [10.0])
_DOWN = np.concatenate([_P10[19::-1], [1.0]])


@functools.cache
def _tables():
    """write_table's tables, built on first use: the words of 0000..9999; fixed-notation masks
    over 24 digit bytes (7 zeros, 17 significant digits), 9 words per exponent k = -4..16 and last
    byte kept b (column 24 * (k + 4) + b): the integer part (0 and leading fraction zeros for
    k < 0), the fraction up to b and the point; %d masks over 16 digit bytes, by the first digit kept."""
    k, last, b = np.arange(-4, 17)[:, None, None], np.arange(24)[:, None], np.arange(24)
    g = np.concatenate([
        np.broadcast_to(((b >= 7 + np.minimum(k, 0)) & (b < 8 + k)) * np.uint8(255), (21, 24, 24)),
        ((b >= 8 + k) & (b <= last)) * np.uint8(255), ((b == 7 + k) & (last >= 8 + k)) * np.uint8(46),
    ], axis=2).view(_LE8).reshape(-1, 9).T.copy()
    d = ((b[:16] >= np.arange(17)[:, None]) * np.uint8(255)).view(_LE8).T.copy()
    return sum((np.arange(10000) // 10 ** (3 - i) % 10 + 48) << 8 * i for i in range(4)).astype(_LE8), g, d


def _scaled(a, k):
    """(hi, lo) with hi + lo == a * 10**(16 - k) exactly: Dekker's two-product, over
    Veltkamp splits of both factors into 26-bit halves (134217729 is 2**27 + 1)."""
    b = _P10[16 - k]
    ah, bh = (t := a * 134217729.0) - (t - a), (t := b * 134217729.0) - (t - b)
    al, bl, hi = a - ah, b - bh, a * b
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _ascii(u, words):
    """The digits of the int64s 0 <= u < 10**(8 * words), zero-padded, as (words, N) text
    words: uint32 arithmetic on 8-digit pieces, one table lookup per 4 digits."""
    out = np.empty((words, len(u)), _LE8)
    for j in range(words - 1, -1, -1):
        q = u // 10**8
        u, piece = q, (u - q * 10**8).astype(np.uint32)
        high = piece // 10000
        out[j] = _tables()[0].take(high) | _tables()[0].take(piece - high * 10000) << 32
    return out


def _digits(a):
    """(k, D) of the values 1e-4 <= a < 1e16: a rounded half to even to 17 significant digits
    is D * 10**(k - 16), 10**16 <= D < 10**17. No double in range rounds up to 10**17."""
    k = np.floor(np.log10(a)).astype(np.intp)  # the exponent, or one off next to a power of ten
    hi, lo = _scaled(a, k)
    # the exponent is right when the exact product is in [10**16, 10**17)
    fix = np.flatnonzero((hi < 1e16) | ((hi == 1e16) & (lo < 0)) | (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    k[fix] += np.where(hi[fix] < 5e16, -1, 1)
    hi[fix], lo[fix] = _scaled(a[fix], k[fix])
    return k, hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # half to even: hi is an even integer


def _reads_back(c, e, a):
    """Whether the decimal c * 10**e reads back as a; exact for integers 0 < c <= 2**53 and
    -19 <= e <= 1, where it is one correctly rounded multiply or divide of exact doubles."""
    return c * _UP[e + 19] / _DOWN[e + 19] == a


def _shortest(a, k, D):
    """repr's digits of the values a from their 17 (k, D): D cut to the fewest digits that
    read back as a, the nearer of two, zero-filled; and the mask of values left to repr.
    A decimal reads back only within half a double's gap of a, at most 10**17 * 2**-53 <
    12 units of D's last digit, and D is within half a unit: so a decimal of 15 digits or
    fewer that reads back is R, D rounded to a multiple of 100, and R's digits are the
    fewest if R reads back. Else 16 digits do if D cut to 16 digits, t, or t + 1 does; if
    both do, the nearer by D's 17th digit (a 5: repr). t >= 2**53 cannot be checked
    exactly (repr). R and t + 1 never reach 10**17: each double 10**j >= 10**j."""
    r, t = (D + 50) // 100, D // 10
    short = _reads_back(r, k - 14, a)
    ok, ok1 = _reads_back(t, k - 15, a), _reads_back(t + 1, k - 15, a)
    digit = D - 10 * t
    best = np.where(ok1 & ~(ok & (digit < 5)), 10 * t + 10, np.where(ok, 10 * t, D))
    return np.where(short, 100 * r, best), ~short & ((t >= 2**53) | ok & ok1 & (digit == 5))


def _fixed(v, k, D, point):
    """The text of v in fixed notation from its digits (k, D) (0 as 1's) as (3, N) text words:
    the sign in the first byte, then the integer part and the fraction to its last nonzero
    digit, after a point (%.17g), or to at least one digit (point: repr's 1.0), NUL-padded."""
    words = _ascii(D, 3)
    # each word's top nonzero digit byte by the float exponent (a word of zeros: negative)
    top = ((words ^ np.uint64(0x3030303030303030)).astype(np.float64).view(np.int64) >> 52) - 1023 >> 3
    last = (top + [[0], [8], [16]]).max(axis=0)
    masks = np.take(_tables()[1], 24 * (k + 4) + (np.maximum(last, k + 8) if point else last), axis=1)
    out = masks[6:]  # starts as the point byte
    whole = words & masks[:3]
    out |= whole >> 8
    out[:2] |= whole[1:] << 56
    out |= words & masks[3:6]
    out[0, v == 0] ^= np.uint64(1 << 48)  # 0 was formatted as 1: its digit 1 (0x31) becomes 0 (0x30)
    out[0] |= np.signbit(v) * np.uint64(45)
    return out


def _format_d(v, fewest):
    """%d (fewest 1) or %03d (fewest 3) of the integral values |v| < 2**53 as (3, N) text
    words: the sign in the first byte, then 16 digits with the leading zeros made NUL."""
    u = np.abs(v).astype(np.int64)
    first = 16 - np.maximum(np.searchsorted(_P10[:16], u, side="right"), fewest - (v < 0))
    return np.vstack([(v < 0) * np.uint64(45), _ascii(u, 2) & np.take(_tables()[2], first, axis=1)])


def _words(field, v):
    """(3, N) text words of field % v, and the mask of the values whose words are not
    their text: %.17g and %r of |v| in [1e-4, 1e16) or 0, less the few %r _shortest cannot
    settle, and %d of integral |v| < 2**53 are formatted; other values' words are garbage."""
    if _FIELDS[field]:
        slow = ~((np.abs(v) < 2.0**53) & (v == np.trunc(v)))
        return _format_d(np.where(slow, 0.0, v), _FIELDS[field]), slow
    a = np.abs(v)
    slow = ~((a >= 1e-4) & (a < 1e16) | (v == 0))
    a = np.where(slow | (v == 0), 1.0, a)
    k, D = _digits(a)
    if field == "%r":
        D, unsettled = _shortest(a, k, D)
        slow |= unsettled
    return _fixed(v, k, D, field == "%r"), slow


def _texts(field, values):
    """field % value of each value, one at a time, as a NUL-padded bytes array; %r gives
    the text json.dumps gives a float."""
    texts = list(map(field.__mod__, values.tolist()))
    if field == "%r":
        texts = [_JSON_NAMES.get(text, text) for text in texts]
    return np.array(texts, dtype=np.bytes_)


def _row_parts(row_fmt):
    """(prefix, fields, suffix) of a row format: fields joined by "," then a newline, or
    "[" fields "]," for an element of a JSON array."""
    array = row_fmt.startswith("[") and row_fmt.endswith("],")
    fields = (row_fmt[1:-2] if array else row_fmt.removesuffix("\n")).split(",")
    for field in fields if array or row_fmt.endswith("\n") else [row_fmt + " (no newline)"]:
        if field not in _FIELDS:
            raise ValueError(f"write_table cannot format {field!r}: fields are %.17g, %r, %d and %03d, then a newline")
    return ("[", fields, "],") if array else ("", fields, "\n")


def _blocks(row_fmt, columns):
    """The bytes of row_fmt % row for each row of the columns, one block of _BLOCK_ROWS rows
    at a time. Each column of a block is formatted into NUL-padded slots of one buffer, the
    prefix and separators in place, and the block is yielded without its NULs."""
    prefix, fields, suffix = _row_parts(row_fmt)
    lead, trail = len(prefix), len(suffix)
    n = len(columns[0])
    buf, width = None, _SLOT
    for start in range(0, n, _BLOCK_ROWS):
        cells = np.column_stack([col[start : start + _BLOCK_ROWS] for col in columns]).astype(np.float64).T
        if len(cells) != len(fields):
            raise ValueError(f"write_table needs {len(fields)} columns of {n} values, got {len(cells)}")
        rows = cells.shape[1]
        for j, (field, v) in enumerate(zip(fields, cells)):
            words, slow = _words(field, v)
            idx = np.flatnonzero(slow)
            texts = _texts(field, v[idx])
            if buf is None or texts.itemsize > width:  # the first block, or a %d of a huge value
                old, width = buf, max(width, texts.itemsize)
                buf = np.zeros((_BLOCK_ROWS, len(fields), lead + width + trail), np.uint8)  # slots, then separators
                buf[:, 0, :lead] = np.frombuffer(prefix.encode(), np.uint8)
                buf[:, :, lead + width] = ord(",")
                buf[:, -1, lead + width :] = np.frombuffer(suffix.encode(), np.uint8)
                if old is not None:  # the slots this block has written so far
                    buf[:rows, :j, : old.shape[2] - trail] = old[:rows, :j, : old.shape[2] - trail]
            slots = buf[:rows, j, lead : lead + width]
            slots[:, :_SLOT].view(_LE8)[...] = words.T
            slots[:, _SLOT:] = 0
            slots[idx] = texts.astype(f"S{width}").view(np.uint8).reshape(len(idx), width)
        yield buf[:rows][buf[:rows] != 0]


def write_table(path, head, row_fmt, columns):
    """Write head, then the bytes of row_fmt % row for each row of the columns ((N,) or (N, k)
    arrays, as float64); row_fmt is comma-separated %.17g, %r, %d and %03d fields and a newline.
    Each block of _BLOCK_ROWS rows is formatted exactly by numpy and held as one buffer. Values
    outside the fast paths (|x| in [1e-4, 1e16) or 0 for %.17g and %r, integral |x| < 2**53 for
    %d), and the rare %r whose shortest digits one multiply or divide cannot settle, go through
    % one at a time. %r writes the text json.dumps gives a float: repr, or NaN and Infinity."""
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        fh.writelines(_blocks(row_fmt, columns))  # each block is dropped before the next is made


def format_rows(head, row_fmt, columns, tail):
    """head, the text write_table writes for the rows less the last row's final character,
    and tail, as one str: with "[%r,%r],", the rows of a JSON array as json.dumps writes them."""
    texts = [head, *(str(block, "ascii") for block in _blocks(row_fmt, columns))]
    if len(texts) > 1:
        texts[-1] = texts[-1][:-1]
    texts.append(tail)
    return "".join(texts)


def save_dataset(ds, path):
    names = list(ds.categories)
    cats = ",".join(f"{n}:{ds.categories[n]}" for n in names)
    D = ds.feature_dim
    row_fmt = "%d" + ",%.17g" * D + ",%d" * (1 + len(names)) + ",%03d,%.17g\n"
    bits = ds.label_flipped * np.uint8(100) + ds.semantic_reassigned * np.uint8(10) + ds.data_corrupted
    head = f"{_MAGIC}\n#D={D} seed={ds.seed_provenance} categories={cats}\n{_column_line(D, names)}\n"
    columns = [np.arange(len(ds)), ds.x, ds.c, *(ds.s[n] for n in names), bits, ds.corruption_severity]
    write_table(path, head, row_fmt, columns)


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
