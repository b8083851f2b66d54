"""Root finding and the deflated Q-polynomial."""

import numpy as np
import pytest

from spzeros import (
    ComplexPolynomial,
    NonConvergence,
    all_roots,
    build_system,
    principal_branch,
    q_polynomial,
    roots_batch,
)
from spzeros import poly


def test_polynomial_eval_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        deg = rng.integers(2, 7)
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = ComplexPolynomial(tuple(coeffs))
        z = rng.normal() + 1j * rng.normal()
        want = np.polyval(coeffs[::-1], z)
        assert abs(p.eval(z) - want) <= 1e-12 * max(1.0, abs(want))


def test_eval_array_leaves_its_points_unchanged():
    # The Horner loop works in place on an array of its own, never on z.
    p = ComplexPolynomial((1 + 2j, 0j, -3 + 0j, 2 + 0j))
    rng = np.random.default_rng(8)
    for n in (1, 2, 17, 1000):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        before = z.copy()
        out = p.eval_array(z)
        assert np.array_equal(z.view(np.uint8), before.view(np.uint8))
        assert not np.shares_memory(out, z)
        assert np.all(np.abs(out - [p.eval(x) for x in z.tolist()])
                      <= 1e-12 * np.maximum(1.0, np.abs(out)))


def test_eval_array_rounds_one_point_as_among_many():
    # A point gets the same bits alone as in a batch. numpy multiplies a
    # one-element complex array in place by another loop than out of place
    # (one without the fused multiply-add), so Horner's products stay out
    # of place; the single products and the sweeps rely on it.
    p = ComplexPolynomial((1 + 2j, 0.5 - 1j, -3 + 0j, 2 + 0j))
    z = np.random.default_rng(9).normal(size=(200, 2)) @ [1, 1j]
    many = p.eval_array(z)
    alone = np.concatenate([p.eval_array(z[i:i + 1]) for i in range(z.size)])
    assert np.array_equal(alone.view(np.uint8), many.view(np.uint8))


def test_derivative_matches_finite_difference():
    p = ComplexPolynomial((1 + 2j, 0j, -3 + 0j, 2 + 0j))
    dp = p.derivative()
    h = 1e-7
    for z in (0.3 + 0.4j, -1.2 + 0j, 2j):
        fd = (p.eval(z + h) - p.eval(z - h)) / (2 * h)
        assert abs(dp.eval(z) - fd) <= 1e-5


def test_all_roots_cubic_with_known_roots():
    # (z - 1)(z - 2)(z - 3) = z^3 - 6 z^2 + 11 z - 6
    p = ComplexPolynomial((-6 + 0j, 11 + 0j, -6 + 0j, 1 + 0j))
    roots = all_roots(p, 0j)
    assert np.allclose(sorted(r.real for r in roots), [1, 2, 3], atol=1e-12)
    assert max(abs(r.imag) for r in roots) <= 1e-12


def test_all_roots_random_polynomials_have_small_residuals():
    rng = np.random.default_rng(42)
    for _ in range(25):
        deg = int(rng.integers(2, 8))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = ComplexPolynomial(tuple(coeffs))
        roots = all_roots(p, 0j)
        assert len(roots) == deg
        scale = max(1.0, max(abs(c) for c in coeffs))
        for r in roots:
            assert abs(p.eval(r)) <= 1e-9 * scale * max(1.0, abs(r)) ** deg


def test_roots_batch_square_roots_at_rounding_level():
    # p(z) = z^2, solving p = w gives +-sqrt(w); position error should sit
    # at rounding level, not at the residual threshold.
    p = ComplexPolynomial((0j, 0j, 1 + 0j))
    rng = np.random.default_rng(3)
    w = rng.normal(size=50) + 1j * rng.normal(size=50)
    roots = roots_batch(p, np.array(w), 1e-13)
    assert roots.shape == (50, 2)
    for i, wi in enumerate(w):
        want = np.sqrt(complex(wi))
        got = sorted(roots[i], key=lambda r: (r.real, r.imag))
        expect = sorted([want, -want], key=lambda r: (r.real, r.imag))
        for g, e in zip(got, expect):
            assert abs(g - e) <= 4e-16 * abs(e)


def test_roots_batch_residuals_random_targets():
    rng = np.random.default_rng(11)
    p = ComplexPolynomial((2 + 1j, -1 + 0j, 0.5 + 0j, 1 + 0j))
    w = 10 * (rng.normal(size=200) + 1j * rng.normal(size=200))
    roots = roots_batch(p, w, 1e-13)
    resid = np.abs(p.eval_array(roots) - w[:, None])
    assert float(resid.max()) <= 1e-10


def test_q_polynomial_divides_exactly():
    p = ComplexPolynomial((-1 + 0j, 0j, 2 + 0j))  # 2 z^2 - 1
    b = 1.0 + 0j
    q = q_polynomial(p, b)
    assert q.degree == 1
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.normal() + 1j * rng.normal()
        assert abs((p.eval(z) - b) - q.eval(z) * (z - b)) <= 1e-13 * (1 + abs(z)) ** 2
    # Q(b) equals the multiplier P'(b).
    assert abs(q.eval(b) - p.derivative().eval(b)) <= 1e-13


def test_q_polynomial_rejects_non_fixed_point():
    from spzeros import FixedPointViolation

    p = ComplexPolynomial((-1 + 0j, 0j, 2 + 0j))
    with pytest.raises(FixedPointViolation):
        q_polynomial(p, 0.4 + 0j)  # P(0.4) = -0.68 != 0.4


def test_aberth_raises_at_its_iteration_cap(monkeypatch):
    # z^3 - z + 1 is not unicritical, so its inverse branches come from the
    # root solver, which gives up after MAX_ROOT_ITERATIONS sweeps.
    sys = build_system(ComplexPolynomial((1 + 0j, -1 + 0j, 0j, 1 + 0j)), 1.0)
    assert sys.crit is None
    monkeypatch.setattr(poly, "MAX_ROOT_ITERATIONS", 1)
    with pytest.raises(NonConvergence, match="after 1 iterations"):
        principal_branch(sys, 0.3 + 0.1j)
    with pytest.raises(NonConvergence, match="after 1 iterations"):
        roots_batch(sys.P, np.array([0.3 + 0.1j, -2.0 + 0j]))
