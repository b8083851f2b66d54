"""Numbers as NUL-padded ASCII fields, a whole array at a time.

Each function returns a uint8 matrix with one row per value. A row holds
the value's text, with NUL bytes in the slots it does not use, anywhere in
the row. A caller joins fields side by side and deletes every NUL at the
end, so no field is ever shifted or aligned.

float_fields prints what format(x, ".17g") prints. For finite nonzero x,
with |x| = m * 2^e (m in [1/2, 1)) and k = floor(log10|x|), it forms
y = |x| * 10^(16 - k) = m * 5^p * 2^(e + p), p = 16 - k, as a double-double
from a table of 5^p, correctly rounded to a (hi, lo) pair, and Dekker's
exact product of two doubles (Dekker 1971). y then lies in [1e16, 1e17),
where every double is an integer, with a relative error below 2^-103
(under 1e-14 absolute), so the 17 digits are y rounded to the nearest
integer, N; N = 1e17 is 1e16 with k + 1. format(x, ".17g") itself prints
the rest: a value that is not finite, a value whose y lies within 1e-9 of
a half (an exact tie, such as 2^-25, which format rounds half to even),
and a value whose N falls outside [1e16, 1e17] after the one correction
of k. Zero is the digit 0 with its sign. The layout follows %g: fixed
notation for -4 <= k < 17, else scientific with an exponent of at least
two digits; trailing zeros, and a decimal point that nothing follows, are
dropped.
"""

import functools

import numpy as np

from .dd import two_prod

# Width of a float field: a sign, the "0.000" lead of a fixed-notation
# value below 1, 17 (digit, decimal point) slot pairs and "e+308".
FLOAT_WIDTH = 1 + 5 + 2 * 17 + 5
# 10^(16 - k) is needed for every decimal exponent k of a finite nonzero
# double, k in [-325, 308] after the correction step.
_P_MIN, _P_MAX = -292, 341
# A y whose fraction lies this close to 1/2 may be a tie.
_TIE_MARGIN = 1e-9
_LO17, _HI17 = 10 ** 16, 10 ** 17
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_LEAD_SLOTS = np.arange(5)[:, None]
_SLOTS = np.arange(17)[:, None]


@functools.cache
def _pow5_table():
    """(hi, lo, exp2) per p in [_P_MIN, _P_MAX], with 5^p = (hi + lo) 2^exp2,
    hi in [1, 2], hi and lo each correctly rounded.

    Built on first use from Python integers, whose true division rounds
    correctly.
    """
    his, los, exps = [], [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (5 ** p, 1) if p >= 0 else (1, 5 ** -p)
        exp2 = num.bit_length() - den.bit_length()
        if exp2 >= 0:
            den <<= exp2
        else:
            num <<= -exp2
        if num < den:
            num <<= 1
            exp2 -= 1
        hi = num / den
        hn, hd = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hd - hn * den) / (den * hd))
        exps.append(exp2)
    table = (np.array(his), np.array(los), np.array(exps, dtype=np.int64))
    for column in table:
        column.setflags(write=False)
    return table


def _scaled(m, e, k):
    """floor(y) as int64 and y - floor(y), for y = m 2^e 10^(16 - k)."""
    hi, lo, exp2 = _pow5_table()
    i = 16 - k - _P_MIN
    # Dekker's TwoProduct: prod + err == m * hi[i] exactly.
    prod, err = two_prod(m, hi[i])
    scale = e + exp2[i] + 16 - k
    whole = np.ldexp(prod, scale)
    rest = np.ldexp(err + m * lo[i], scale)
    floor = np.floor(rest)
    # whole is an integer once y >= 2^53; below that k is corrected anyway.
    return whole.astype(np.int64) + floor.astype(np.int64), rest - floor


def _divmod(v, divisor):
    # np.divmod by a scalar takes about twice as long.
    q = v // divisor
    return q, v - q * divisor


def _digits17(n):
    """The 17 decimal digits of each n in [0, 10^17), one uint8 row per
    digit."""
    digits = np.empty((17, n.size), dtype=np.uint8)
    # Two int32 halves, each divided by 10 digit by digit: 1.6x faster
    # than one int64, and 6x faster than dividing by an array of powers
    # of ten.
    for v, rows in (((n // 10 ** 9).astype(np.int32), range(7, -1, -1)),
                    ((n % 10 ** 9).astype(np.int32), range(16, 7, -1))):
        for j in rows:
            v, digits[j] = _divmod(v, 10)
    return digits


def _up_to_last(nonzero):
    """In place: row j becomes whether any of rows j, j + 1, ... is set."""
    # Row by row: ufunc.accumulate along the first axis is ~18x slower.
    for j in range(nonzero.shape[0] - 2, -1, -1):
        nonzero[j] |= nonzero[j + 1]
    return nonzero


def float_fields(x):
    """format(v, ".17g") of each float64 v in x, as FLOAT_WIDTH-byte
    NUL-padded rows."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    finite = np.isfinite(x)
    zero = a == 0
    a = np.where(finite & ~zero, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    m, e = np.frexp(a)
    n, frac = _scaled(m, e, k)
    # log10 may put k one off next to a power of ten.
    off = np.flatnonzero((n < _LO17) | (n >= _HI17))
    if off.size:
        k[off] += np.where(n[off] < _LO17, -1, 1)
        n[off], frac[off] = _scaled(m[off], e[off], k[off])
    n += frac > 0.5
    carry = n == _HI17
    n[carry] = _LO17
    k[carry] += 1
    slow = (~finite | (np.abs(frac - 0.5) < _TIE_MARGIN)
            | (n < _LO17) | (n >= _HI17)) & ~zero
    # Zero prints as one digit 0, in fixed notation.
    n[zero] = 0
    k[zero] = 0

    digits = _digits17(n)
    keep = _up_to_last(digits != 0)
    fixed = (k >= -4) & (k < 17)
    below_one = fixed & (k < 0)
    # The decimal point follows digit `point`: digit k in fixed notation,
    # digit 0 in scientific; below one it sits in the lead instead.
    point = np.where(below_one, -1, np.where(fixed, k, 0))
    dot = _SLOTS == point
    dot[:-1] &= keep[1:]
    dot[-1] = False

    # One row per slot while the slots are filled; the caller gets the
    # transpose, one row per value.
    out = np.zeros((FLOAT_WIDTH, x.size), dtype=np.uint8)
    out[0] = np.signbit(x) * ord("-")
    out[1:6] = (below_one & (_LEAD_SLOTS < 1 - k)) * _LEAD
    out[6:40:2] = digits + ord("0")
    out[6:40:2] *= keep | (_SLOTS <= point)
    out[7:40:2] = dot
    out[7:40:2] *= ord(".")
    hundreds, rest = _divmod(np.abs(k), 100)
    tens, ones = _divmod(rest, 10)
    out[40] = ord("e")
    out[41] = np.where(k < 0, ord("-"), ord("+"))
    out[42] = (hundreds + ord("0")) * (hundreds > 0)
    out[43] = tens + ord("0")
    out[44] = ones + ord("0")
    out[40:] *= ~fixed
    out = out.T
    for j in np.flatnonzero(slow).tolist():
        text = format(float(x[j]), ".17g").encode("ascii")
        out[j] = 0
        out[j, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def _int_slots(v):
    """The decimal text of each nonnegative integer of v, one row per
    slot: leading zeros are NUL, a value's last digit always shows."""
    width = len(str(int(v.max()))) if v.size else 1
    out = np.empty((width, v.size), dtype=np.uint8)
    rest = v
    for j in range(width - 1, 0, -1):
        rest, out[j] = _divmod(rest, 10)
    out[0] = rest
    out += ord("0")
    powers = 10 ** np.arange(width - 1, 0, -1, dtype=np.int64)
    out[:-1] *= v >= powers[:, None]
    return out


def int_fields(v):
    """Each nonnegative integer of v in decimal, as NUL-padded rows."""
    return _int_slots(np.asarray(v, dtype=np.int64)).T


def digit_fields(idx, d, depth):
    """The address of each padded index idx, as csv.writer writes it: its
    depth base-d digits, most significant first, less the trailing zeros.
    Digits run together for d <= 10; for d > 10 they are comma-separated,
    and quoted once they hold a comma."""
    digits = np.empty((depth, idx.size), dtype=np.int64)
    rest = idx
    for j in range(depth - 1, -1, -1):
        rest, digits[j] = _divmod(rest, d)
    keep = _up_to_last(digits != 0)
    chars = _int_slots(digits.ravel())
    chars = chars.reshape(chars.shape[0], depth, idx.size) * keep
    if d > 10:
        comma = keep.astype(np.uint8) * ord(",")
        comma[:1] = 0
        chars = np.concatenate([comma[None], chars])
    # Slot order: digit by digit, each digit's characters in turn.
    rows = [chars.transpose(1, 0, 2).reshape(-1, idx.size)]
    if d > 10 and depth >= 2:
        quote = keep[1] * np.uint8(ord('"'))
        rows = [quote[None], *rows, quote[None]]
    return np.concatenate(rows).T
