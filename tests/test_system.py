"""System construction, Taylor recursion, and the evaluator of f."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spzeros import (
    ComplexPolynomial,
    DegreeTooLow,
    NonConvergence,
    NoRepellingFixedPoint,
    ZeroFixedPoint,
    bell_polynomial,
    build_system,
    eval_f_batch,
    eval_f_direct,
    taylor_at_zero,
)
from spzeros.branches import labels_batch, sweep_products
from spzeros.poly import roots_batch
from spzeros.system import _eval_f_with_slope
from spzeros.verify import chebyshev_system, cubic_system, golden_system
from spzeros import dd

PHI = (1 + math.sqrt(5)) / 2


def test_build_chebyshev_parameters():
    sys = chebyshev_system()
    assert abs(sys.b - 1) <= 1e-15
    assert abs(sys.a - 4) <= 1e-15
    assert sys.d == 2
    # order of growth rho = ln d / ln |a|
    assert abs(sys.rho - 0.5) <= 1e-15


def test_unicritical_detection():
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        assert sys.crit == 0
        assert sys.kappa == sys.b - sys.P.eval(0j)
        assert sys.t_b == sys.b
    quartic = build_system(ComplexPolynomial((-1 + 0.2j, 0, 0.3, 0, 1)), 1.5)
    assert quartic.crit is None and quartic.kappa is None


def test_unicritical_labels_match_root_solver():
    # P(z) = c_d (z - c)^3 + k, expanded, with c != 0 and complex c_d.
    lead, c, k = 1 + 0.5j, 0.3 - 0.2j, 0.1
    P = ComplexPolynomial((lead * (-c) ** 3 + k, 3 * lead * c ** 2,
                           -3 * lead * c, lead))
    sys = build_system(P, 1.3 - 0.5j)
    assert abs(sys.crit - c) <= 1e-15
    assert abs(sys.kappa - lead * sys.t_b ** 3) <= 1e-14 * abs(sys.kappa)
    rng = np.random.default_rng(5)
    w = 3 * (rng.normal(size=50) + 1j * rng.normal(size=50))
    closed = np.sort_complex(labels_batch(sys, w))
    solved = np.sort_complex(roots_batch(P, w))
    assert np.all(np.abs(closed - solved) <= 1e-13)


def test_build_golden_parameters():
    sys = golden_system()
    assert abs(sys.b - PHI) <= 1e-15
    assert abs(sys.a - 2 * PHI) <= 1e-15
    assert sys.d == 2


def test_build_cubic_parameters():
    sys = cubic_system()
    assert abs(sys.b - 2) <= 1e-14
    assert abs(sys.a - 12) <= 1e-13
    assert sys.d == 3
    assert abs(sys.rho - math.log(3) / math.log(12)) <= 1e-15


def test_conjugate_polynomial_relations():
    # V(v) = P(b + v) - b satisfies V(0) = 0, V'(0) = a; Q(b) = a.
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        assert abs(sys.V.eval(0j)) <= 1e-13
        assert abs(sys.V.derivative().eval(0j) - sys.a) <= 1e-12
        assert abs(sys.Q.eval(sys.b) - sys.a) <= 1e-12


def test_build_rejects_degree_one():
    with pytest.raises(DegreeTooLow):
        build_system(ComplexPolynomial((1 + 0j, 2 + 0j)), 0j)


def test_build_rejects_zero_fixed_point():
    # P = 3z - 2z^2 fixes 0 with multiplier 3: repelling but at the origin.
    with pytest.raises(ZeroFixedPoint):
        build_system(ComplexPolynomial((0j, 3 + 0j, -2 + 0j)), 0.01 + 0j)


def test_build_rejects_non_repelling_fixed_point():
    # P = z^2 + 1/4 has the parabolic double fixed point 1/2, |P'| = 1.
    with pytest.raises(NoRepellingFixedPoint):
        build_system(ComplexPolynomial((0.25 + 0j, 0j, 1 + 0j)), 0.5 + 0j)


def _brute_bell(values, m, j):
    """Partial Bell polynomial by summing over set partitions directly."""
    from itertools import combinations

    def partitions(pool, blocks):
        if blocks == 1:
            yield (pool,)
            return
        head = pool[0]
        rest = pool[1:]
        for size in range(0, len(rest) + 1):
            for companions in combinations(rest, size):
                block = (head,) + companions
                remainder = tuple(x for x in rest if x not in companions)
                if len(remainder) >= blocks - 1:
                    for tail in partitions(remainder, blocks - 1):
                        yield (block,) + tail

    total = 0.0
    for part in partitions(tuple(range(m)), j):
        term = 1.0
        for block in part:
            term *= values[len(block) - 1]
        total += term
    return total


def test_bell_polynomial_against_brute_force():
    rng = np.random.default_rng(19)
    values = tuple(rng.normal(size=6))
    for m in range(1, 7):
        for j in range(1, m + 1):
            want = _brute_bell(values, m, j)
            got = bell_polynomial(m, j, values)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_bell_polynomial_complete_bell_numbers():
    # With all arguments 1 the row sums are the Bell numbers.
    ones = (1.0,) * 8
    bell_numbers = [1, 2, 5, 15, 52, 203, 877, 4140]
    for m, want in enumerate(bell_numbers, start=1):
        total = sum(bell_polynomial(m, j, ones) for j in range(1, m + 1))
        assert abs(total - want) <= 1e-9 * want


def test_bell_polynomial_known_entry():
    # B_{3,2}(x1, x2) = 3 x1 x2
    assert abs(bell_polynomial(3, 2, (2.0, 5.0, 0.0)) - 30.0) <= 1e-12
    # B_{4,2}(x1, x2, x3) = 3 x2^2 + 4 x1 x3
    assert abs(bell_polynomial(4, 2, (1.0, 2.0, 3.0, 0.0)) - 24.0) <= 1e-12


def test_taylor_second_derivative_closed_form():
    # Differentiating f(az) = P(f(z)) twice at 0:
    #   a^2 f''(0) = P''(b) + a f''(0),  so  f''(0) = P''(b) / (a^2 - a).
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        want = sys.P.derivative().derivative().eval(sys.b) / (sys.a**2 - sys.a)
        got = taylor_at_zero(sys, 2).derivative_at_zero(2)
        assert abs(got - want) <= 1e-14 * abs(want)


def test_taylor_chebyshev_full_series():
    # The degree-2 system P = 2z^2 - 1, b = 1 is solved by cos(sqrt(-2z)),
    # whose series has m-th coefficient 2^m / (2m)!: within one unit in the
    # last place of the exact fraction.
    sys = chebyshev_system()
    tc = taylor_at_zero(sys, 24)
    for m in range(25):
        want = float(Fraction(2**m, math.factorial(2 * m)))
        got = tc.values[m]
        assert abs(got - want) <= 2.0**-52 * want, m


def test_eval_f_direct_matches_cosine_oracle():
    import cmath

    sys = chebyshev_system()
    rng = np.random.default_rng(23)
    for _ in range(30):
        z = 3 * (rng.normal() + 1j * rng.normal())
        want = cmath.cos(cmath.sqrt(-2 * z))
        got = eval_f_direct(sys, z)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_eval_f_batch_matches_direct():
    rng = np.random.default_rng(31)
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        z = 2 * (rng.normal(size=12) + 1j * rng.normal(size=12))
        batch = eval_f_batch(sys, z)
        for zi, fi in zip(z, batch):
            assert abs(fi - eval_f_direct(sys, zi)) <= 1e-11 * max(1.0, abs(fi))


def test_eval_f_normalization():
    # f(0) = b and f'(0) = 1 pin the solution down.
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        assert abs(eval_f_direct(sys, 0j) - sys.b) <= 1e-13
        h = 1e-6
        fd = (eval_f_direct(sys, h) - eval_f_direct(sys, -h)) / (2 * h)
        assert abs(fd - 1.0) <= 1e-8


def _chebyshev_exact(z):
    """cos(s) and sin(s)/s at s = sqrt(-2z), to 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s = mpmath.sqrt(-2 * mpmath.mpc(complex(z)))
        return complex(mpmath.cos(s)), complex(mpmath.sin(s) / s)


def test_value_and_slope_match_chebyshev_oracle():
    # f(z) = cos(sqrt(-2z)) and f'(z) = sin(s)/s, at random points and at
    # the zeros a depth-8 sweep finds (|z| up to about 3.2e5).
    sys = chebyshev_system()
    rng = np.random.default_rng(47)
    z = rng.normal(size=40) + 1j * rng.normal(size=40)
    z *= rng.uniform(0, 10, size=40) / np.abs(z)
    zeros = sweep_products(sys, 0j, 8).values
    for pts in (z, zeros):
        values, slopes = _eval_f_with_slope(sys, pts)
        for zi, fi, dfi in zip(pts, values, slopes):
            f, df = _chebyshev_exact(zi)
            assert abs(fi - f) <= 1e-12 * max(1.0, abs(f)), zi
            assert abs(dfi - df) <= 1e-12 * abs(df), zi


@pytest.mark.parametrize("z", [-1e7, -1e9, -1e11])
def test_eval_f_direct_accurate_at_large_argument(z):
    # The orbit is carried in double-double, so a one-point call keeps full
    # accuracy where a plain-double composition's noise floor
    # eps |z| |f'(z)| is 5e-13 to 5e-11.
    want, _ = _chebyshev_exact(z)
    assert abs(eval_f_direct(chebyshev_system(), z) - want) <= 1e-14


def test_eval_f_past_depth_cap_runs_no_orbit(monkeypatch):
    # At z = -4^196 Chebyshev's first depth is 10 + log_4 |z| = 206, and
    # the second would be past EVAL_DEPTH_CAP = 200: no two depths can be
    # compared, so the evaluator raises before any Horner step.
    calls = []
    horner = dd.cdd_horner

    def counting(coeffs, v):
        calls.append(1)
        return horner(coeffs, v)

    monkeypatch.setattr(dd, "cdd_horner", counting)
    sys = chebyshev_system()
    _eval_f_with_slope(sys, np.array([-4.0]))
    assert calls
    calls.clear()
    with pytest.raises(NonConvergence, match="needs depth 21[12], past the "
                                             "depth cap 200"):
        _eval_f_with_slope(sys, np.array([-(4.0 ** 196)]))
    assert calls == []


def test_slope_satisfies_differentiated_functional_equation():
    # d/dz of f(az) = P(f(z)): a f'(az) = P'(f(z)) f'(z).
    rng = np.random.default_rng(53)
    for sys in (golden_system(), cubic_system()):
        z = rng.normal(size=20) + 1j * rng.normal(size=20)
        z *= rng.uniform(0, 1, size=20) / np.abs(z)
        f, df = _eval_f_with_slope(sys, z)
        _, df_az = _eval_f_with_slope(sys, sys.a * z)
        lhs = sys.a * df_az
        rhs = sys.P.derivative().eval_array(f) * df
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-12


def test_functional_equation_small_disc():
    rng = np.random.default_rng(37)
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        z = rng.normal(size=20) + 1j * rng.normal(size=20)
        z *= rng.uniform(0, 1, size=20) / np.abs(z)
        lhs = eval_f_batch(sys, sys.a * z)
        rhs = sys.P.eval_array(eval_f_batch(sys, z))
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-10


def _dd_to_fraction(hi, lo):
    return Fraction(float(hi)) + Fraction(float(lo))


def test_dd_error_free_transforms_exact():
    # two_sum and two_prod must be exact in rational arithmetic.
    rng = np.random.default_rng(41)
    for _ in range(200):
        x = float(rng.normal()) * 2.0 ** int(rng.integers(-20, 20))
        y = float(rng.normal()) * 2.0 ** int(rng.integers(-20, 20))
        s, e = dd.two_sum(np.float64(x), np.float64(y))
        assert _dd_to_fraction(s, e) == Fraction(x) + Fraction(y)
        p, e = dd.two_prod(np.float64(x), np.float64(y))
        assert _dd_to_fraction(p, e) == Fraction(x) * Fraction(y)


def test_dd_mul_near_double_double_precision():
    rng = np.random.default_rng(43)
    for _ in range(100):
        x = Fraction(float(rng.normal())) + Fraction(float(rng.normal())) / 2**53
        y = Fraction(float(rng.normal())) + Fraction(float(rng.normal())) / 2**53
        xh = np.float64(float(x))
        xl = np.float64(float(x - Fraction(float(xh))))
        yh = np.float64(float(y))
        yl = np.float64(float(y - Fraction(float(yh))))
        zh, zl = dd.dd_mul(xh, xl, yh, yl)
        got = _dd_to_fraction(zh, zl)
        want = x * y
        if want != 0:
            assert abs(got - want) / abs(want) < Fraction(1, 2**100)


def _cdd_exact(x):
    # Exact (re, im) Fractions of each point of a complex double-double,
    # whose parts may be arrays or scalars.
    rh, rl, ih, il = (np.ravel(p) for p in np.broadcast_arrays(*x))
    return [(_dd_to_fraction(a, b), _dd_to_fraction(c, d))
            for a, b, c, d in zip(rh, rl, ih, il)]


def _c(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _cmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _cerr(x, y):
    return math.hypot(float(x[0] - y[0]), float(x[1] - y[1]))


def _reference_and_quartic():
    quartic = build_system(ComplexPolynomial((-1 + 0.2j, 0, 0.3, 0, 1)), 1.5)
    return chebyshev_system(), golden_system(), cubic_system(), quartic


def test_cdd_horner_against_exact_rationals():
    # V at 200 double-double points per system, |v| from 1e-8 to 1e3,
    # within 2^-100 of sum |c_k| |v|^k of the exact rational value.
    rng = np.random.default_rng(47)
    for sys in _reference_and_quartic():
        coeffs = sys.V.coefficients
        mod = 10.0 ** rng.uniform(-8, 3, 200)
        hi = mod * np.exp(2j * np.pi * rng.random(200))
        lo = hi * rng.uniform(-1, 1, 200) * 2.0 ** -54
        v = (hi.real, lo.real, hi.imag, lo.imag)
        got = _cdd_exact(dd.cdd_horner(coeffs, v))
        for value, point, m in zip(got, _cdd_exact(v), mod):
            want = (Fraction(0), Fraction(0))
            for c in reversed(coeffs):
                prod = _cmul(want, point)
                want = (prod[0] + _c(c)[0], prod[1] + _c(c)[1])
            scale = sum(abs(c) * m ** k for k, c in enumerate(coeffs))
            assert _cerr(value, want) <= 2.0 ** -100 * scale


def test_cdd_power_and_division_against_exact_rationals():
    # a^n, and z / a^n for exact z, within 2^-100 of the exact rationals
    # relative to their moduli.
    for sys in _reference_and_quartic():
        for n in (0, 1, 11, 37):
            power = dd.cdd_power(sys.a, n)
            (got,) = _cdd_exact(power)
            want = (Fraction(1), Fraction(0))
            for _ in range(n):
                want = _cmul(want, _c(sys.a))
            scale = abs(sys.a) ** n
            assert _cerr(got, want) <= 2.0 ** -100 * scale
            norm = want[0] ** 2 + want[1] ** 2
            for z in (3 - 1j, -1e7, 2.5e-3 + 4j):
                (got,) = _cdd_exact(dd.cdd_div_exact_by(z, power))
                num = _cmul(_c(z), (want[0], -want[1]))
                quotient = (num[0] / norm, num[1] / norm)
                assert _cerr(got, quotient) <= 2.0 ** -100 * abs(z) / scale
