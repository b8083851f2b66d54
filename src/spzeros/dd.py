"""Vectorized double-double arithmetic for deep self-composition.

A deep composition V o ... o V amplifies every rounding error by the chain
derivative product, which for an evaluation point of size 1e7 already lifts
plain double noise above 1e-8 in absolute terms. Carrying the deviation as
an unevaluated sum hi + lo of two doubles (Dekker/Knuth error-free
transformations, no FMA required) pushes the per-step noise to O(eps^2), so
the amplified total stays far below the truncation tolerance.

Complex double-double values are tuples (re_hi, re_lo, im_hi, im_lo) of
float64 ndarrays or scalars, which numpy broadcasts: a constant c enters
as (c.real, 0.0, c.imag, 0.0). Only the operations the evaluator needs are
provided; the row writer (spzeros.fields) shares two_prod.
"""

import numpy as np

# Dekker splitter for 53-bit doubles: 2^27 + 1.
_SPLITTER = 134217729.0


def two_sum(a, b):
    """Error-free sum: a + b = s + e exactly, s = fl(a + b)."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def fast_two_sum(a, b):
    """Error-free sum assuming |a| >= |b| componentwise."""
    s = a + b
    e = b - (s - a)
    return s, e


def two_prod(a, b):
    """Error-free product: a * b = p + e exactly, p = fl(a * b)."""
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def dd_add(xh, xl, yh, yl):
    """Double-double addition (Dekker add2, ~eps^2 relative error)."""
    s, e = two_sum(xh, yh)
    e = e + (xl + yl)
    return fast_two_sum(s, e)


def dd_mul(xh, xl, yh, yl):
    """Double-double multiplication (~eps^2 relative error)."""
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return fast_two_sum(p, e)


def cdd_from(z):
    """Lift a complex array (or scalar) to complex double-double."""
    z = np.asarray(z, dtype=np.complex128)
    return z.real, 0.0, z.imag, 0.0


def cdd_collapse(x):
    """Round a complex double-double back to complex128."""
    rh, rl, ih, il = x
    return (rh + rl) + 1j * (ih + il)


def cdd_add(x, y):
    xr, xl, xi, xj = x
    yr, yl, yi, yj = y
    rh, rl = dd_add(xr, xl, yr, yl)
    ih, il = dd_add(xi, xj, yi, yj)
    return rh, rl, ih, il


def cdd_mul(x, y):
    xr, xl, xi, xj = x
    yr, yl, yi, yj = y
    ac_h, ac_l = dd_mul(xr, xl, yr, yl)
    bd_h, bd_l = dd_mul(xi, xj, yi, yj)
    ad_h, ad_l = dd_mul(xr, xl, yi, yj)
    bc_h, bc_l = dd_mul(xi, xj, yr, yl)
    rh, rl = dd_add(ac_h, ac_l, -bd_h, -bd_l)
    ih, il = dd_add(ad_h, ad_l, bc_h, bc_l)
    return rh, rl, ih, il


def cdd_horner(coefficients, v):
    """Evaluate a polynomial with complex double coefficients at cdd points."""
    c = complex(coefficients[-1])
    acc = (c.real, 0.0, c.imag, 0.0)
    for c in map(complex, coefficients[-2::-1]):
        acc = cdd_add(cdd_mul(acc, v), (c.real, 0.0, c.imag, 0.0))
    return acc


def cdd_power(base, n):
    """base^n for a complex double scalar, by squaring, as scalar cdd."""
    result = (1.0, 0.0, 0.0, 0.0)
    square = cdd_from(np.complex128(base))
    e = int(n)
    while e:
        if e & 1:
            result = cdd_mul(result, square)
        square = cdd_mul(square, square)
        e >>= 1
    return result


def cdd_div_exact_by(z, w):
    """z / w for exact complex z and scalar cdd w, one refinement step."""
    wc = complex(cdd_collapse(w))
    q0 = np.asarray(z, dtype=np.complex128) / wc
    # Residual z - w q0 in double-double, then one Newton correction.
    r = cdd_add(cdd_from(z), cdd_mul((-w[0], -w[1], -w[2], -w[3]),
                                     cdd_from(q0)))
    dq = cdd_collapse(r) / wc
    return cdd_add(cdd_from(q0), cdd_from(dq))
