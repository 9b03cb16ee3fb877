"""Exact text of float64 arrays for the table writer (data.write_table), field by field
and value by value as Python's % writes it: %.17g, %d, %03d, and %r as the text json.dumps
gives a float. A value's text is formatted by numpy into three 8-byte text words; the
values outside the fast paths are flagged for % one at a time."""

import functools

import numpy as np

SLOT = 24  # bytes per value: three text words
FIELDS = {"%.17g": None, "%r": None, "%d": 1, "%03d": 3}  # the fields; for %d, the fewest digits
_JSON_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # %r of what json writes by name
WORD = np.dtype("<u8")  # a text word: 8 bytes, the first in the low byte
_P10 = np.array([float(10**p) for p in range(23)])  # every power of ten that is an exact double
# 10**e for e = -19..1, at e + 19, as a multiplier and a divisor of which one is 1
_UP = np.array([1.0] * 20 + [10.0])
_DOWN = np.concatenate([_P10[19::-1], [1.0]])


@functools.cache
def _tables():
    """The formatter's tables, built on first use: the words of 0000..9999; fixed-notation masks
    over 24 digit bytes (7 zeros, 17 significant digits), 9 words per exponent k = -4..16 and last
    byte kept b (column 24 * (k + 4) + b): the integer part (0 and leading fraction zeros for
    k < 0), the fraction up to b and the point; %d masks over 16 digit bytes, by the first digit kept."""
    k, last, b = np.arange(-4, 17)[:, None, None], np.arange(24)[:, None], np.arange(24)
    g = np.concatenate([
        np.broadcast_to(((b >= 7 + np.minimum(k, 0)) & (b < 8 + k)) * np.uint8(255), (21, 24, 24)),
        ((b >= 8 + k) & (b <= last)) * np.uint8(255), ((b == 7 + k) & (last >= 8 + k)) * np.uint8(46),
    ], axis=2).view(WORD).reshape(-1, 9).T.copy()
    d = ((b[:16] >= np.arange(17)[:, None]) * np.uint8(255)).view(WORD).T.copy()
    return sum((np.arange(10000) // 10 ** (3 - i) % 10 + 48) << 8 * i for i in range(4)).astype(WORD), g, d


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
    out = np.empty((words, len(u)), WORD)
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


def words(field, v):
    """(3, N) text words of field % v, and the mask of the values whose words are not
    their text: %.17g and %r of |v| in [1e-4, 1e16) or 0, less the few %r _shortest cannot
    settle, and %d of integral |v| < 2**53 are formatted; other values' words are garbage."""
    if FIELDS[field]:
        slow = ~((np.abs(v) < 2.0**53) & (v == np.trunc(v)))
        return _format_d(np.where(slow, 0.0, v), FIELDS[field]), slow
    a = np.abs(v)
    slow = ~((a >= 1e-4) & (a < 1e16) | (v == 0))
    a = np.where(slow | (v == 0), 1.0, a)
    k, D = _digits(a)
    if field == "%r":
        D, unsettled = _shortest(a, k, D)
        slow |= unsettled
    return _fixed(v, k, D, field == "%r"), slow


def texts(field, values):
    """field % value of each value, one at a time, as a NUL-padded bytes array; %r gives
    the text json.dumps gives a float."""
    out = list(map(field.__mod__, values.tolist()))
    if field == "%r":
        out = [_JSON_NAMES.get(text, text) for text in out]
    return np.array(out, dtype=np.bytes_)
