"""Complex polynomials: evaluation, derivatives, quotients, and root finding.

Coefficients are stored lowest order first, so ``coefficients[k]`` multiplies
``z**k`` and the degree is exact (no zero padding at the top).
"""

from dataclasses import dataclass
from cmath import isfinite

import numpy as np

from .errors import FixedPointViolation, NonConvergence

# Aberth-Ehrlich: the default residual threshold, relative to scale(p, w),
# and the sweeps after which roots_batch raises NonConvergence.
ROOT_TOLERANCE = 1e-13
MAX_ROOT_ITERATIONS = 200


@dataclass(frozen=True)
class ComplexPolynomial:
    """Polynomial over the complex numbers with exact degree."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        for c in coeffs:
            if not isfinite(c):
                raise ValueError("non-finite coefficient")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def eval(self, z):
        """Horner evaluation at a scalar point."""
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    __call__ = eval

    def eval_array(self, z):
        """Horner evaluation on an ndarray, returns complex128 ndarray.

        Sums are formed in place, products not: numpy multiplies a
        one-element complex array in place by another loop than out of
        place, one without the fused multiply-add, and the two can differ
        in the last bit.
        """
        z = np.asarray(z, dtype=np.complex128)
        acc = np.full_like(z, self.coefficients[-1])
        for c in reversed(self.coefficients[:-1]):
            acc = acc * z
            acc += c
        return acc

    def derivative(self):
        """Formal derivative; degree 0 maps to the zero polynomial."""
        if self.degree == 0:
            return ComplexPolynomial((0j,))
        coeffs = tuple(k * c for k, c in enumerate(self.coefficients) if k > 0)
        return ComplexPolynomial(coeffs)


def scale(p, w):
    """Magnitude reference used by residual tests: max(1, |w|, max|coeff|)."""
    return max(1.0, abs(w), max(abs(c) for c in p.coefficients))


def q_polynomial(p, b, tol=1e-9):
    """Divide p(z) - b by (z - b).

    b must be a fixed point of p; the quotient Q satisfies
    p(z) - b = (z - b) Q(z) and Q(b) = p'(b).
    """
    residual = abs(p.eval(b) - b)
    if residual > tol * scale(p, b):
        raise FixedPointViolation(
            f"|p(b) - b| = {residual:.3e} exceeds tolerance at b = {b}"
        )
    # Synthetic division of p(z) - b, highest coefficient first.
    rev = list(reversed(p.coefficients))
    rev[-1] -= b
    q_rev = []
    acc = 0j
    for c in rev[:-1]:
        acc = acc * b + c
        q_rev.append(acc)
    return ComplexPolynomial(tuple(reversed(q_rev)))


def _initial_guesses(p, w):
    """Deterministic starting points: a circle sized by a Cauchy root bound."""
    c = np.asarray(p.coefficients, dtype=np.complex128)
    d = len(c) - 1
    lead = abs(c[-1])
    inner = max((abs(x) for x in c[1:-1]), default=0.0)
    radius = 1.0 + np.maximum(np.abs(c[0] - w), inner) / lead
    center = -c[-2] / (d * c[-1]) if d >= 1 else 0.0
    angles = 2.0 * np.pi * (np.arange(d) + 0.35) / d
    ring = np.exp(1j * angles)
    return center + radius[:, None] * ring[None, :]


def roots_batch(p, w, root_tolerance=ROOT_TOLERANCE):
    """Solve p(z) = w_i simultaneously for a batch of right-hand sides.

    Parameters
    ----------
    p : ComplexPolynomial
        Polynomial of degree d >= 1.
    w : ndarray, shape (B,)
        Right-hand sides.
    root_tolerance : float
        Per-point residual threshold, relative to scale(p, w_i).

    Returns
    -------
    ndarray, shape (B, d)
        All d roots (with multiplicity, to tolerance) for each w_i. Order is
        deterministic but otherwise unspecified; callers sort as needed.
        Every root gets a final safeguarded Newton step, so simple-root
        position error sits at rounding level, not at the residual threshold.
    """
    d = p.degree
    if d < 1:
        raise ValueError("root finding needs degree >= 1")
    w = np.asarray(w, dtype=np.complex128)
    if w.ndim != 1:
        raise ValueError("w must be one dimensional")
    if w.size == 0:
        return np.empty((0, d), dtype=np.complex128)
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite right-hand side")

    c = np.asarray(p.coefficients, dtype=np.complex128)
    cmax = float(np.max(np.abs(c)))
    thresh = root_tolerance * np.maximum(1.0, np.maximum(np.abs(w), cmax))
    dp = p.derivative()

    z = _initial_guesses(p, w)
    out = np.empty_like(z)
    active = np.arange(w.size)
    zw = w.copy()
    eye = np.eye(d, dtype=bool)

    for _ in range(MAX_ROOT_ITERATIONS):
        pz = p.eval_array(z) - zw[:, None]
        res = np.abs(pz).max(axis=1)
        done = res <= thresh[active]
        if np.any(done):
            out[active[done]] = z[done]
            keep = ~done
            active = active[keep]
            z = z[keep]
            zw = zw[keep]
            pz = pz[keep]
            if active.size == 0:
                return _polish_roots(p, dp, out, w)
        dpz = dp.eval_array(z)
        tiny = np.abs(dpz) == 0.0
        if np.any(tiny):
            dpz = np.where(tiny, 1e-300, dpz)
        newton = pz / dpz
        diff = z[:, :, None] - z[:, None, :]
        coincident = (np.abs(diff) == 0.0) & ~eye
        if np.any(coincident):
            diff = np.where(coincident, 1e-12 * (1.0 + np.abs(z[:, :, None])), diff)
        np.einsum("bii->bi", diff)[:] = 1.0
        repulsion = (1.0 / diff).sum(axis=2) - 1.0
        corr = newton / (1.0 - newton * repulsion)
        z = z - corr

    raise NonConvergence(
        f"Aberth-Ehrlich left {active.size} point(s) above tolerance "
        f"after {MAX_ROOT_ITERATIONS} iterations"
    )


def _polish_roots(p, dp, roots, w):
    """One Newton step per root, kept only where it lowers the residual."""
    res = np.abs(p.eval_array(roots) - w[:, None])
    deriv = dp.eval_array(roots)
    deriv = np.where(np.abs(deriv) == 0.0, 1e-300, deriv)
    cand = roots - (p.eval_array(roots) - w[:, None]) / deriv
    improved = np.abs(p.eval_array(cand) - w[:, None]) <= res
    return np.where(improved, cand, roots)


def all_roots(p, w, root_tolerance=ROOT_TOLERANCE):
    """All d roots of p(z) = w, repeated roots returned as a multiset.

    Returned sorted by (real, imaginary) for reproducibility.
    """
    roots = roots_batch(p, np.array([w]), root_tolerance)[0]
    return sorted((complex(r) for r in roots), key=lambda r: (r.real, r.imag))
