"""Self-similar systems f(az) = P(f(z)) anchored at a repelling fixed point.

A system packages the polynomial P, its fixed point b with multiplier
a = P'(b) (|a| > 1), and the quotient Q(z) = (P(z) - b)/(z - b). The entire
solution f is normalized by f(0) = b, f'(0) = 1. One evaluator computes f
and f' as the limit of b + V^n(a^-n z), V being P conjugated to b, carried
in double-double arithmetic; eval_f_batch and eval_f_direct return its
values for many points and for one.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import dd
from .errors import (
    DegreeTooLow,
    InvalidIndices,
    NonConvergence,
    NoRepellingFixedPoint,
    ZeroFixedPoint,
)
from .poly import ComplexPolynomial, all_roots, q_polynomial

# A fixed point with |b| at or below this is 0, which is excluded; it also
# bounds the residual |P(b) - b| that q_polynomial accepts.
FIXED_POINT_TOLERANCE = 1e-12
# P counts as unicritical when each Taylor coefficient of order 1 .. d-1 at
# c = -c_{d-1} / (d c_d) is at most this fraction of the sum of its terms'
# moduli: a few dozen roundings of forming it.
UNICRITICAL_TOL = 64 * 2.0 ** -53
# Evaluation of f: iterate depth grows in steps of this size until two
# consecutive depths agree, up to at most EVAL_DEPTH_CAP.
DEPTH_STEP = 5
EVAL_DEPTH_CAP = 200
OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class SPSystem:
    """Polynomial P with repelling fixed point b != 0 and multiplier a.

    V is P conjugated to the fixed point, V(v) = P(b + v) - b, so V(0) = 0
    and V'(0) = a. Deep self-composition iterates V on the deviation from b
    rather than P on absolute points; this keeps full relative precision
    while the deviation is far below |b|.

    For unicritical P, P(z) = c_d (z - crit)^d + P(crit), the critical
    point crit, kappa = b - P(crit) = c_d t_b^d and t_b = b - crit are set
    and the inverse branches have a closed form; for any other P they are
    None.

    build_system sets three settings that every function on the system
    reads: root_tolerance stops every root solve, product_tolerance is the
    truncation target of every product's tail and the evaluator's
    convergence tolerance, and n_cap caps a product's tail factors.
    """

    P: ComplexPolynomial
    b: complex
    a: complex
    d: int
    Q: ComplexPolynomial
    V: ComplexPolynomial
    rho: float
    root_tolerance: float
    product_tolerance: float
    n_cap: int
    crit: complex = None
    kappa: complex = None
    t_b: complex = None


@dataclass(frozen=True)
class TaylorCoefficients:
    """Taylor data of f at 0: values[m] = f^(m)(0) / m!."""

    values: tuple

    def derivative_at_zero(self, m):
        """Raw derivative f^(m)(0)."""
        return self.values[m] * math.factorial(m)


def unicritical_point(P):
    """The critical point c when P(z) = c_d (z - c)^d + P(c), else None.

    The candidate is c = -c_{d-1} / (d c_d), the mean of the critical
    points. P is unicritical when each Taylor coefficient
    sum_i binom(i, j) c_i c^(i-j) at c, for j = 1 .. d-1, vanishes relative
    to the sum of its terms' moduli (UNICRITICAL_TOL).
    """
    coeffs = P.coefficients
    d = P.degree
    c = -coeffs[d - 1] / (d * coeffs[d])
    for j in range(1, d):
        terms = [math.comb(i, j) * coeffs[i] * c ** (i - j)
                 for i in range(j, d + 1)]
        if abs(sum(terms)) > UNICRITICAL_TOL * sum(abs(t) for t in terms):
            return None
    return c


def build_system(P, fixed_point_hint, root_tolerance=1e-13,
                 product_tolerance=1e-12, n_cap=200):
    """Locate the repelling fixed point nearest the hint and assemble a system.

    Parameters
    ----------
    P : ComplexPolynomial
        Degree d >= 2 polynomial.
    fixed_point_hint : complex
        The fixed point of P nearest this value is selected.
    root_tolerance, product_tolerance, n_cap : float, float, int
        The system's settings, stored as the SPSystem fields of the same
        names; root_tolerance also stops the fixed points' root solve here.

    Returns
    -------
    SPSystem

    Raises
    ------
    DegreeTooLow
        If deg P < 2.
    NoRepellingFixedPoint
        If the nearest fixed point has |P'(b)| <= 1.
    ZeroFixedPoint
        If the nearest fixed point is 0 (the construction needs b != 0).
    """
    d = P.degree
    if d < 2:
        raise DegreeTooLow(f"degree {d} < 2")
    hint = complex(fixed_point_hint)
    if not cmath.isfinite(hint):
        raise ValueError("non-finite fixed point hint")

    shifted = list(P.coefficients)
    shifted[1] = shifted[1] - 1
    fixed_points = all_roots(ComplexPolynomial(tuple(shifted)), 0j, root_tolerance)
    b = min(fixed_points, key=lambda r: (abs(r - hint), r.real, r.imag))

    # Newton polish on P(z) - z so the fixed point residual is at machine level.
    dP = P.derivative()
    for _ in range(3):
        denom = dP.eval(b) - 1.0
        if denom == 0:
            break
        b = b - (P.eval(b) - b) / denom

    if abs(b) <= FIXED_POINT_TOLERANCE:
        raise ZeroFixedPoint("fixed point at the origin is excluded")
    a = dP.eval(b)
    if abs(a) <= 1.0:
        raise NoRepellingFixedPoint(
            f"|P'(b)| = {abs(a):.6f} <= 1 at b = {b}; need a repelling fixed point"
        )
    Q = q_polynomial(P, b, FIXED_POINT_TOLERANCE)

    # Taylor shift: V(v) = P(b + v) - b with the constant pinned to 0 and the
    # linear coefficient pinned to a, so the conjugacy is exact at the origin.
    shifted = [0j, complex(a)]
    deriv = P.derivative()
    for j in range(2, d + 1):
        deriv = deriv.derivative()
        shifted.append(deriv.eval(b) / math.factorial(j))
    V = ComplexPolynomial(tuple(shifted))

    rho = math.log(d) / math.log(abs(a))
    b = complex(b)
    crit = unicritical_point(P)
    return SPSystem(P=P, b=b, a=complex(a), d=d, Q=Q, V=V, rho=rho,
                    root_tolerance=root_tolerance,
                    product_tolerance=product_tolerance, n_cap=n_cap,
                    crit=crit, kappa=None if crit is None else b - P.eval(crit),
                    t_b=None if crit is None else b - crit)


def _eval_f_with_slope(sys, z):
    """f and f' over an ndarray of points, at a shared depth.

    f(z) is the limit of b + V^n(a^-n z). The orbit v_k is carried in
    double-double arithmetic, so the values do not suffer the noise floor a
    plain-double composition has at large |z| (eps |z| |f'(z)|): accuracy
    is limited by the tolerance and the final rounding alone even at points
    of size 1e7 and beyond. f'(z) is the chain product a^-n prod V'(v_k)
    along the same orbit, taken in doubles as prod (V'(v_k) / a) so that no
    partial product underflows. The depth starts at ceil(log_|a| max |z|)
    + 10 and grows by DEPTH_STEP until two consecutive depths agree within
    sys.product_tolerance (relative to max(1, |f|)) at every point; both
    results come from the deeper of the two.

    Raises
    ------
    ValueError
        If a point is not finite.
    NonConvergence
        If EVAL_DEPTH_CAP is reached (the exception carries the worst
        relative gap) or passed by the second depth, or the orbit overflows.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.size == 0:
        return z.copy(), z.copy()
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite evaluation point")
    az = float(np.max(np.abs(z)))
    coeffs = sys.V.coefficients
    dV = sys.V.derivative()
    n = 10 + max(1, math.ceil(math.log(az, abs(sys.a)))) if az > 1 else 11
    if n + DEPTH_STEP > EVAL_DEPTH_CAP:
        raise NonConvergence(f"direct evaluation needs depth {n + DEPTH_STEP}"
                             f", past the depth cap {EVAL_DEPTH_CAP}")

    # Overflow, in a^depth at huge |z| or in the orbit, is reported by the
    # OVERFLOW_LIMIT test, which a NaN fails too, not by numpy warnings.
    @np.errstate(over="ignore", invalid="ignore")
    def run(depth, with_slope=True):
        v = dd.cdd_div_exact_by(z, dd.cdd_power(sys.a, depth))
        slope = np.ones_like(z)
        for _ in range(depth):
            if with_slope:
                slope = np.multiply(
                    slope, dV.eval_array(dd.cdd_collapse(v)) / sys.a)
            v = dd.cdd_horner(coeffs, v)
            if not np.all(np.abs(v[0]) + np.abs(v[2]) <= OVERFLOW_LIMIT):
                raise NonConvergence(f"orbit overflow at depth {depth}")
        return sys.b + dd.cdd_collapse(v), slope

    prev, _ = run(n, with_slope=False)  # only the converged run's slope
    gap = math.inf
    while n + DEPTH_STEP <= EVAL_DEPTH_CAP:
        n += DEPTH_STEP
        cur, slope = run(n)
        scale = np.maximum(1.0, np.abs(cur))
        if np.all(np.abs(cur - prev) <= sys.product_tolerance * scale):
            return cur, slope
        gap = float(np.max(np.abs(cur - prev) / scale))
        prev = cur
    raise NonConvergence(
        f"direct evaluation still moving at depth cap {EVAL_DEPTH_CAP}", gap=gap)


def eval_f_direct(sys, z):
    """Evaluate the entire solution f at one point z, as a complex.

    A one-point call of eval_f_batch; see _eval_f_with_slope for the depth
    rule and the errors raised. The double-double kernel is numpy-vectorized,
    so a call costs about 4 ms of CPU for one Chebyshev point and 15-20 ms
    for a hundred on a 2-vCPU Xeon: evaluate many points with one
    eval_f_batch call.
    """
    return complex(eval_f_batch(sys, complex(z)))


def eval_f_batch(sys, z):
    """Evaluate the entire solution f over an ndarray of points.

    The limit of b + V^n(a^-n z) in double-double arithmetic, at a depth
    shared by all points; see _eval_f_with_slope, which also returns f'.
    """
    return _eval_f_with_slope(sys, z)[0]


_CDD_ZERO = (0.0, 0.0, 0.0, 0.0)
_CDD_ONE = (1.0, 0.0, 0.0, 0.0)


def _series_powers(s, top, last):
    """Rows n = 2 .. last of the truncated powers of a series s with s_0 = 0.

    Row n holds [z^n] s^j at index j, for j = 2 .. top, in scalar complex
    double-double (indices 0 and 1 hold zeros). As s_0 = 0,
    [z^n] s^j = sum_k s_k [z^(n-k)] s^(j-1) reads s_1 .. s_(n-1) only, so s
    may be the caller's growing list: a recursion appends s_n after taking
    row n. The cost is O(top last^2) products.
    """
    rows = [None, None]
    for n in range(2, last + 1):
        row = [_CDD_ZERO] * (top + 1)
        for j in range(2, min(n, top) + 1):
            for k in range(1, n - j + 2):
                lower = s[n - k] if j == 2 else rows[n - k][j - 1]
                row[j] = dd.cdd_add(row[j], dd.cdd_mul(s[k], lower))
        rows.append(row)
        yield row


def bell_polynomial(m, j, x):
    """Partial exponential Bell polynomial B_{m,j}(x_1, ..., x_{m-j+1}).

    B_{m,j} = m!/j! [t^m] s^j with s(t) = sum_i x_i t^i / i!, the power
    taken by _series_powers.
    """
    if not (isinstance(m, int) and isinstance(j, int)):
        raise InvalidIndices("m and j must be integers")
    if j < 1 or j > m:
        raise InvalidIndices(f"need 1 <= j <= m, got m={m}, j={j}")
    r = m - j + 1
    if len(x) < r:
        raise InvalidIndices(f"need at least {r} arguments, got {len(x)}")
    if j == 1:
        return complex(x[m - 1])
    # The coefficients past x_r do not reach [t^m] s^j: zeros stand in.
    s = [_CDD_ZERO] + [dd.cdd_from(complex(v) / math.factorial(i))
                       for i, v in enumerate(x[:r], start=1)]
    s += [_CDD_ZERO] * (m - r)
    *_, row = _series_powers(s, j, m)
    return (complex(dd.cdd_collapse(row[j]))
            * (math.factorial(m) // math.factorial(j)))


def _taylor_series(sys, max_order):
    """phi_0 .. phi_max_order of phi = f - b, in scalar complex double-double.

    phi(az) = V(phi(z)) with phi_0 = 0 and phi_1 = f'(0) = 1 gives, comparing
    the coefficients of z^n, (a^n - a) phi_n = sum_{j=2..d} V_j [z^n] phi^j.
    """
    V = [(c.real, 0.0, c.imag, 0.0) for c in map(complex, sys.V.coefficients)]
    minus_a = dd.cdd_from(-sys.a)
    phi = [_CDD_ZERO, _CDD_ONE]
    for n, row in enumerate(_series_powers(phi, sys.d, max_order), start=2):
        acc = _CDD_ZERO
        for j in range(2, min(n, sys.d) + 1):
            acc = dd.cdd_add(acc, dd.cdd_mul(V[j], row[j]))
        gap = dd.cdd_add(dd.cdd_power(sys.a, n), minus_a)
        phi.append(dd.cdd_mul(acc, dd.cdd_div_exact_by(1.0, gap)))
    return phi


def taylor_at_zero(sys, max_order):
    """Taylor coefficients of f at 0 through order max_order.

    values[0] = b and values[n] = phi_n for n >= 1, phi = f - b: the
    double-double recursion of _taylor_series, rounded to complex.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    phi = _taylor_series(sys, max_order)
    values = (sys.b,) + tuple(complex(dd.cdd_collapse(p)) for p in phi[1:])
    return TaylorCoefficients(values=values)
