"""Inverse-branch orbits, digit addresses, and Viete-type infinite products.

Addresses are eventually-zero digit sequences sigma: position n picks which
inverse branch of P is applied at step n, digit 0 always meaning the
principal branch (the root nearest the fixed point b). The canonical form
strips trailing zeros; the support is the position of the last nonzero digit.

The value attached to an address at anchor w != b is

    g_sigma(w) = (w - b) * prod_{n>=1} a / Q(u_n),      u_0 = w,
    u_n = P_{sigma_n}^{-1}(u_{n-1}),

which enumerates all solutions of f(z) = w. At w = 0 these are the zeros of
f. The w = b case degenerates; solutions of f(z) = b are 0 and geometric
ladders a^m * base over addresses whose first digit is nonzero. The walk
reaches them from v = 0: leading zero digits hold v at exactly 0, and the
first nonzero digit jumps to a preimage of b itself. at_fixed_point says
which anchors are b. There a depth-N table's row of rung K (rung_of: the
count of significant base-d digits of its padded index) is the depth-K
ladder base times a^(N-K) (_rungs), with prefactor exponent N - K + 1.

Numerically the product is carried in telescoped form. Since
Q(u_n) = (u_{n-1} - b) / (u_n - b), the partial products collapse to

    (w - b) * prod_{n<=k} a / Q(u_n) = a^k (u_k - b),

so every node tracks its deviation v = u - b as the primary quantity.
Nonzero-digit steps reset v = u - b at an O(1) distance. Principal steps
never form u - b near b, where it would lose digits to cancellation.

For unicritical P(z) = c_d (z - crit)^d + P(crit), which build_system
detects, every inverse step has a closed form (_closed_children): the
roots are crit + s with s^d = (v + kappa) / c_d, kappa = b - P(crit).
Taking u - P(crit) as v + kappa keeps a passage through the critical value
exact, so addresses that collapse onto a multiple zero agree to rounding.
The principal child is t_b y / sum_{k<d} rho^k with y = v / kappa,
rho^d = 1 + y and t_b = b - crit, which carries the relative accuracy of
v with no cancellation. For d = 2 the roots are +-s, and the sign of
Re(s conj t_b) names the principal one (_quadratic_root): one square root
per step and no second column to order; only rows within a rounding bound
of a tie take the general tie rule. Any other P solves P(z) = u by the
Aberth root solver; its principal steps update v <- v / Q(u), with the
principal root u (well conditioned, since an orbit can only approach a
root of Q when its parent is near b, where Q is evaluated near b
instead). Direct evaluation of Q at a point close to one of its roots,
which loses half the digits to cancellation exactly at the largest
solutions, never happens. One function, _children, takes the inverse step
for both kinds of P, and one tie rule, _branch_order, orders its
branches; its first column alone, _first_branch, names the principal one.

The principal tail is the principal inverse itself: in deviations it is
the Koenigs linearizer L of V(v) = P(b + v) - b, L(V(v)) = a L(v) with
L'(0) = 1 (Koenigs 1884), and a leaf v_0 gets the factor L(v_0) / v_0.
_tail_products takes principal steps until |v_K| is below the series'
entry radius, then evaluates the truncated Taylor series of L there once:
L(v_0) = a^K L(v_K). The truncation is bounded by Cauchy's estimate on the
contraction ball. _principal_step inverts V by a checked Newton iteration
on deviations inside half the contraction ball (contraction_delta, cached),
which keeps the relative error of v at the rounding level no matter how
small v gets; beyond it, or where Newton fails its check, it takes the
principal child alone: for unicritical P the one closed-form root that the
tie rule puts first, for any other P column 0 of the inverse step above.

There is one orbit walker: _expand_level for the digit prefix, then
_tail_products for the principal tail. The single products (zero_product,
inverse_branch, g0_and_derivative) run it on a one-node array and finish
as the sweep does (_rungs): each is its address's row of sweep_products.
The principal steps of the tail, of the Koenigs sample and of the
Hypothesis-1 probe are one walker, _principal_orbit, which stops each orbit
on entering a disc: radius r_s, delta/4 and delta. Every product reads its
truncation settings, sys.product_tolerance and sys.n_cap (which caps the
tail factors alone), from the system.
The derivative of the principal inverse is g_0'(w) = 1 / f'(g_0(w)).

There is one sweep generator, _sweep_chunks: it expands and tails one
fixed chunk of subtrees after another in a single thread and yields each
as a frozen, read-only BranchSweep at its offset, its rows final (a^N
applied, or the w = b rung rule). sweep_products and sweep_solutions_at_b
write the chunks in place into one held sweep (_joined); the momentum
sums reduce them as they come instead (factor.moment_sums). A row's
support is read off its padded index, one stride per power of d
(BranchSweep.support), and the growth floor is one masked minimum over it.

Every complex array product is np.multiply(left, right) into a fresh
array, never in place and never an operator on an unnamed temporary: numpy
multiplies a one-element array in place without fused multiply-add, and an
operator product on a temporary of 256 KiB or more in that temporary with
the operands swapped, while a fused complex product depends on their order.
(Division, sqrt, sums, abs and ** round alike at any size.) So a row's bits
do not depend on the size of the array it is computed in, or CHUNK_LEAVES.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import product as iter_product

import numpy as np

from .errors import (
    DivergentTail,
    InvalidIndices,
    NonConvergence,
    SPZerosError,
    ZeroDenominator,
)
from .poly import roots_batch
from .system import _eval_f_with_slope

# |w - b| at or below this routes through the degenerate-anchor construction.
W_NEAR_B = 1e-12
# Terms l_1 .. l_M kept of the Koenigs series of the principal tail.
KOENIGS_ORDER = 24
UNIT_ROUNDOFF = 2.0 ** -53
# Certified contraction ball: radii 2^-k are tried for k = 1 .. DELTA_MAX_K,
# sampling DELTA_CIRCLE points per circle against the midpoint ratio.
DELTA_MAX_K = 40
DELTA_CIRCLE = 32
# Newton on V inside delta/2: at most NEWTON_CAP steps, stopping once the
# residual is within NEWTON_RESIDUAL |v|, a few roundings of V(x).
NEWTON_CAP = 12
NEWTON_RESIDUAL = 8e-16
# Principal steps the Hypothesis-1 probe allows an orbit to reach the ball.
HYPOTHESIS_ORBIT_CAP = 500
# The probe's grid: HYPOTHESIS_COUNT points on 8 circles of radius up to
# HYPOTHESIS_RADIUS, the same number on each.
HYPOTHESIS_RADIUS = 10.0
HYPOTHESIS_COUNT = 64
# Batched sweeps expand and tail the address tree in subtree chunks of at
# most this many leaves, which bounds the working memory of expansion and
# tail (a traced peak of 113 B per leaf on golden, its 29 B of output
# included) and that of the momentum sums reduced inside each chunk.
# Golden's depth-18 moments of orders 1 to 3 peaked at 32, 34, 38 and 45 MB
# of RSS in chunks of 2^13 to 2^16 leaves; 2^13 took about a tenth more CPU
# than the larger chunks, which were within noise of each other.
# Every leaf is computed alone, so the chunk size moves no bit.
CHUNK_LEAVES = 1 << 14
# Greatest depth of tail_bound's probe sweep; less where d^depth > 50,000.
TAIL_PROBE_SUPPORT = 6


@dataclass(frozen=True)
class SigmaSequence:
    """Canonical digit address: finitely many nonzero digits, none trailing."""

    digits: tuple

    def __post_init__(self):
        digits = tuple(int(v) for v in self.digits)
        for v in digits:
            if v < 0:
                raise ValueError("digits must be nonnegative")
        if digits and digits[-1] == 0:
            raise ValueError("canonical form has no trailing zeros")
        object.__setattr__(self, "digits", digits)

    @classmethod
    def from_digits(cls, seq):
        """Canonicalize by stripping trailing zeros."""
        digits = [int(v) for v in seq]
        while digits and digits[-1] == 0:
            digits.pop()
        return cls(tuple(digits))

    @property
    def support(self):
        """Position of the last nonzero digit (0 for the zero sequence)."""
        return len(self.digits)

    def first_nonzero(self):
        """1-based position of the first nonzero digit, or 0 if all zero."""
        for i, v in enumerate(self.digits):
            if v:
                return i + 1
        return 0


@dataclass(frozen=True)
class BranchProduct:
    """Truncated infinite product with its tail series' truncation bound."""

    value: complex
    terms_used: int
    tail_estimate: float
    converged: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of probing principal-orbit convergence on a sample grid."""

    sampled_points: int
    converged_points: int
    max_orbit_length: int
    worst_point: complex
    passed: bool


def enumerate_sigma(d, max_support):
    """Yield canonical addresses grouped by support, lexicographic within.

    Shell 0 is the zero sequence alone; shell n > 0 holds the
    d^(n-1) * (d-1) addresses whose last digit is nonzero.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if max_support < 0:
        raise ValueError("max_support must be nonnegative")
    yield SigmaSequence(())
    for support in range(1, max_support + 1):
        for prefix in iter_product(range(d), repeat=support - 1):
            for last in range(1, d):
                yield SigmaSequence(prefix + (last,))


def _first_branch(rel):
    """Principal column of each row of inverse branches, rel = root - b.

    The lexicographic minimum of (|rel|, arg rel, re, im), the lowest column
    on a full tie: a scan over the columns in which a column takes over only
    when strictly less. |rel| alone decides every row whose scan meets no
    exact tie in it; only the rows that meet one compute the other keys and
    repeat the scan on all four.
    """
    n, d = rel.shape
    mag = np.abs(rel)
    first = np.zeros(n, dtype=np.intp)
    top = mag[:, 0]
    tie = np.zeros(n, dtype=bool)
    for k in range(1, d):
        col = mag[:, k]
        tie |= col == top
        less = col < top
        first[less] = k
        if k + 1 < d:
            top = np.where(less, col, top)
    rows = np.flatnonzero(tie)
    if rows.size:
        sub = rel[rows]
        keys = (mag[rows], np.angle(sub), sub.real, sub.imag)
        pick = np.zeros(rows.size, dtype=np.intp)
        for k in range(1, d):
            best = [key[np.arange(rows.size), pick] for key in keys]
            less = np.zeros(rows.size, dtype=bool)
            for key, low in zip(reversed(keys), reversed(best)):
                col = key[:, k]
                less = (col < low) | ((col == low) & less)
            pick = np.where(less, k, pick)
        first[rows] = pick
    return first


def _branch_order(rel):
    """Column order of each row of inverse branches, rel = root - b.

    The principal branch, nearest b, comes first (_first_branch). The other
    columns follow sorted by (arg rel, re, im). This is the one tie rule of
    every inverse step.
    """
    n, d = rel.shape
    first = _first_branch(rel)[:, None]
    if d == 2:
        return np.concatenate([first, 1 - first], axis=1)
    by_angle = np.lexsort((rel.imag, rel.real, np.angle(rel)), axis=-1)
    rest = by_angle[by_angle != first].reshape(n, d - 1)
    return np.concatenate([first, rest], axis=1)


def _dth_roots(z, d):
    """All d-th roots of every entry of z, shape (B, d).

    The roots are |z|^(1/d) (cos t + i sin t) with t = (arg z + 2 pi k) / d
    for the turns k = -(d-1)/2 .. d/2, which give exact conjugate pairs at
    real z; for d = 2 they are +-sqrt(z) exactly. The polar form is cheaper
    than complex powers.
    """
    if d == 2:
        s = np.sqrt(z)
        return np.stack([s, -s], axis=1)
    turns = np.arange(-((d - 1) // 2), d // 2 + 1)
    mag = np.abs(z)[:, None] ** (1.0 / d)
    t = (np.angle(z)[:, None] + 2.0 * np.pi * turns) / d
    out = np.empty(t.shape, dtype=np.complex128)
    out.real = mag * np.cos(t)
    out.imag = mag * np.sin(t)
    return out


def _principal_quotient(sys, v, s0):
    """P_0^{-1}(b + v) - b = t_b y / sum_{k<d} rho^k, with y = v / kappa,
    from the principal root s0 of s^d = (v + kappa) / c_d.

    rho = s0 / t_b is the root of rho^d = 1 + y that the principal branch
    takes. Since rho^d - 1 = y, this is t_b (rho - 1) without the
    cancellation of forming it near b; at the critical value, y = -1 and
    rho = 0, it is exactly -t_b. The caller's temporary s0 is overwritten.
    """
    rho = np.divide(s0, sys.t_b, out=s0)
    acc = np.add(rho, 1.0, out=rho if sys.d == 2 else None)
    for _ in range(sys.d - 2):
        acc = np.multiply(acc, rho)
        acc += 1.0
    out = np.multiply(sys.t_b, v / sys.kappa)
    out /= acc
    return out


def _closed_roots(sys, v):
    """The d roots s of s^d = (v + kappa) / c_d, shape (B, d)."""
    return _dth_roots((v + sys.kappa) / sys.P.coefficients[-1], sys.d)


def _quadratic_root(sys, v):
    """The principal root s of s^2 = (v + kappa) / c_2, one per row of v.

    The roots are +-sqrt, and |s - t_b|^2 - |-s - t_b|^2 = -4 Re(s conj t_b),
    so s = sqrt((v + kappa) / c_2), negated where Re(s conj t_b) < 0, is
    the root that _first_branch puts first, except inside a band around
    s perpendicular to t_b, where the rounding of the tie rule's moduli can
    decide. The band comes from this bound. Let u = 2^-53,
    N = |s|^2 + |t_b|^2 and p = Re(s conj t_b). The tie rule compares the
    computed moduli of s - t_b and -s - t_b; each difference is exact to u
    per part, and np.abs is taken to be within 4 ulps (8u; 1.8 ulps is the
    worst measured), so both moduli are within 9.01u of the exact ones X
    and Y. Since Y^2 - X^2 = 4p and (X + Y)^2 <= 4N, the computed
    comparison is strict and follows the sign of p wherever |p| > 9.01u N.
    The computed p is within 1.01u N of p and the computed N within 3.01u N
    of N, so |p| > 16u N as computed is enough. The rows inside that band,
    and the ones whose p or N is not finite, take _first_branch on
    [s, -s] as the general rule does.
    """
    s = np.add(v, sys.kappa)
    s /= sys.P.coefficients[-1]
    np.sqrt(s, out=s)
    t = sys.t_b
    p = s.real * t.real
    band = s.imag * t.imag
    p += band
    np.multiply(s.real, s.real, out=band)
    band += s.imag * s.imag
    band += t.real * t.real + t.imag * t.imag
    band *= 16.0 * UNIT_ROUNDOFF
    # Written as "not outside" so that a NaN falls in the band.
    tie = ~(np.abs(p) > band)
    np.negative(s, out=s, where=(p < 0.0) & ~tie)
    rows = np.flatnonzero(tie)
    if rows.size:
        pair = np.stack([s[rows], -s[rows]], axis=1)
        s[rows] = pair[np.arange(rows.size), _first_branch(pair - t)]
    return s


def _closed_principal(sys, v):
    """The principal child alone of b + v for unicritical P.

    It takes the one root s that _first_branch puts first, for d = 2 from
    _quadratic_root alone, and applies _principal_quotient: the same bits
    as column 0 of _closed_children, without ordering or gathering the
    other columns.
    """
    if sys.d == 2:
        return _principal_quotient(sys, v, _quadratic_root(sys, v))
    s = _closed_roots(sys, v)
    return _principal_quotient(
        sys, v, s[np.arange(v.size), _first_branch(s - sys.t_b)])


def _closed_children(sys, v):
    """Deviations of every inverse branch of b + v for unicritical P.

    The roots of P(z) = b + v are crit + s, s^d = (v + kappa) / c_d. Forming
    u - P(crit) as v + kappa, never as (b + v) - P(crit), keeps the critical
    value exact: there s = 0 and every child is the critical point. Columns
    are in _branch_order, and the principal one is _principal_quotient. For
    d = 2 the principal root s_0 is _quadratic_root and the other child is
    -s_0 - t_b.
    """
    if sys.d == 2:
        out = np.empty((v.size, 2), dtype=np.complex128)
        s0 = _quadratic_root(sys, v)
        np.negative(s0, out=out[:, 1])
        out[:, 1] -= sys.t_b
        out[:, 0] = _principal_quotient(sys, v, s0)
        return out
    s = _closed_roots(sys, v)
    rel = s - sys.t_b
    order = _branch_order(rel)
    rel = np.take_along_axis(rel, order, axis=1)
    s0 = np.take_along_axis(s, order[:, :1], axis=1)[:, 0]
    rel[:, 0] = _principal_quotient(sys, v, s0)
    return rel


def labels_batch(sys, w):
    """All inverse branches at each point, principal first.

    Returns shape (B, d) in _branch_order: column 0 is the root of P(z) = w
    nearest b, the rest follow by the argument of root - b. Unicritical P
    takes the closed form of _closed_children; any other P solves by
    roots_batch to the system's sys.root_tolerance.
    """
    w = np.asarray(w, dtype=np.complex128)
    if sys.crit is not None:
        return sys.b + _closed_children(sys, w - sys.b)
    roots = roots_batch(sys.P, w, sys.root_tolerance)
    order = _branch_order(roots - sys.b)
    return np.take_along_axis(roots, order, axis=1)


def branch_labels(sys, w):
    """Deterministically ordered inverse branches at a single point."""
    row = labels_batch(sys, np.array([complex(w)]))[0]
    return [complex(v) for v in row]


def principal_branch(sys, w):
    """The inverse branch fixing b: root of P(z) = w nearest b."""
    return branch_labels(sys, w)[0]


def _children(sys, v):
    """Deviations of every inverse branch of b + v, shape (B, d).

    This is the one inverse step of the address tree and of the tail.
    Columns are in _branch_order. Unicritical P takes _closed_children. For
    any other P the principal child (column 0) is v / Q(u), by the exact
    quotient identity with the principal root u; nonzero digits land an
    O(1) distance from b, so plain subtraction is accurate there. Forming
    the parent point as b + v is lossless for the children: the principal
    child only uses Q near b, and a digit child's offset from its limit
    root scales with v itself.
    """
    if sys.crit is not None:
        return _closed_children(sys, v)
    labels = labels_batch(sys, sys.b + v)
    qv = sys.Q.eval_array(labels[:, 0])
    if np.any(qv == 0):
        raise ZeroDenominator("Q vanished at an inverse step")
    rel = labels - sys.b
    rel[:, 0] = v / qv
    return rel


@lru_cache(maxsize=64)
def contraction_delta(sys):
    """Largest certified radius on which the principal branch contracts.

    Scans radii 2^-k and accepts the first (largest) whose 32-point circle
    satisfies |P_0^{-1}(b + r e^{i t}) - b| / r <= (1 + |1/a|) / 2.
    """
    target = 0.5 * (1.0 + 1.0 / abs(sys.a))
    angles = np.exp(2j * np.pi * np.arange(DELTA_CIRCLE) / DELTA_CIRCLE)
    for k in range(1, DELTA_MAX_K + 1):
        r = 2.0 ** (-k)
        circle = sys.b + r * angles
        pulled = labels_batch(sys, circle)[:, 0]
        if float(np.max(np.abs(pulled - sys.b))) / r <= target:
            return r
    raise SPZerosError(
        "could not certify a contraction ball around the fixed point"
    )


def _conjugate_newton(sys, v):
    """Newton on V for the principal preimage of every deviation in v.

    Solves V(x) = v from x = v / a, stepping the whole array until every
    residual |V(x) - v| is within NEWTON_RESIDUAL |v|, at most NEWTON_CAP
    times. Returns (x, bad): a point is bad when its residual is still above
    that floor at the cap, or when |x| > |v|, since the principal step must
    not move away from b.
    """
    dV = sys.V.derivative()
    x = v / sys.a
    mag = np.abs(v)
    floor = NEWTON_RESIDUAL * mag
    # Written as "not within" so that a NaN counts as above the floor.
    for k in range(NEWTON_CAP + 1):
        res = sys.V.eval_array(x)
        res -= v
        above = ~(np.abs(res) <= floor)
        if k == NEWTON_CAP or not above.any():
            break
        d = dV.eval_array(x)
        d[d == 0] = 1e-300
        res /= d
        x -= res
    return x, above | ~(np.abs(x) <= mag)


def _principal_step(sys, v):
    """One principal-branch step on deviations: P_0^{-1}(b + v) - b.

    Deviations inside delta/2 (contraction_delta) take _conjugate_newton.
    The rest, and every point it flags bad, take the principal child alone:
    _closed_principal for unicritical P, column 0 of the inverse step
    _children for any other. Both keep the rounding error relative to v
    where u - b would lose digits to cancellation.
    """
    out = np.empty_like(v)
    near = np.abs(v) < 0.5 * contraction_delta(sys)
    solve = ~near
    if near.any():
        out[near], bad = _conjugate_newton(sys, v[near])
        solve[np.flatnonzero(near)[bad]] = True
    if solve.any():
        if sys.crit is not None:
            out[solve] = _closed_principal(sys, v[solve])
        else:
            out[solve] = _children(sys, v[solve])[:, 0]
    return out


def _principal_orbit(sys, v, radius, max_steps):
    """Principal orbits of every deviation in v until they enter |v| < radius.

    Each orbit takes _principal_step until it is inside the disc, at most
    max_steps times. Returns (last, steps, outside): each orbit's last
    point, its step count, and the indices of the orbits still outside the
    disc, in increasing order. last is v itself, overwritten in place: every
    caller passes an array of its own.
    """
    last = v
    steps = np.zeros(v.size, dtype=np.int32)
    work = np.flatnonzero(~(np.abs(v) < radius))
    cur = v[work]
    for k in range(1, max_steps + 1):
        if work.size == 0:
            break
        cur = _principal_step(sys, cur)
        last[work] = cur
        steps[work] = k
        out = ~(np.abs(cur) < radius)
        work = work[out]
        cur = cur[out]
    return last, steps, work


def _expand_level(sys, v):
    """Children of every node in digit order, deviation-tracked."""
    return _children(sys, v).reshape(-1)


def _koenigs_coefficients(sys):
    """Taylor coefficients l_1 .. l_M of the Koenigs linearizer L of V.

    L(V(v)) = a L(v) and L'(0) = 1 give, comparing the coefficients of v^m,
    l_m (a - a^m) = sum_{k<m} l_k [v^m] V(v)^k, with M = KOENIGS_ORDER.
    """
    M = KOENIGS_ORDER
    V = np.zeros(M + 1, dtype=np.complex128)
    V[:min(sys.d, M) + 1] = sys.V.coefficients[:M + 1]
    powers = [None, V]
    for _ in range(2, M + 1):
        powers.append(np.convolve(powers[-1], V)[:M + 1])
    ell = np.zeros(M + 1, dtype=np.complex128)
    ell[1] = 1.0
    for m in range(2, M + 1):
        acc = sum(ell[k] * powers[k][m] for k in range(1, m))
        ell[m] = acc / (sys.a - sys.a ** m)
    return ell[1:]


def _series(ell, v):
    """S(v) = L(v) / v = sum_m l_m v^(m-1), by Horner's rule."""
    s = np.full(v.shape, ell[-1])
    for coeff in ell[-2::-1]:
        s = np.multiply(s, v)
        s += coeff
    return s


def _series_bound(kappa, delta, r):
    """Relative truncation bound of the Koenigs series at |v| = r.

    With x = r / delta and kappa = C / delta, the dropped terms are at most
    C x^(M+1) / (1 - x) and |L(v)| >= r - C x^2 / (1 - x), so
    |L - v S| / |L| <= kappa x^M / (1 - x - kappa x); inf where that
    denominator is not positive.
    """
    x = np.asarray(r, dtype=np.float64) / delta
    room = 1.0 - x - kappa * x
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = kappa * x ** KOENIGS_ORDER / room
    return np.where(room > 0.0, bound, np.inf)


@lru_cache(maxsize=64)
def _koenigs_data(sys):
    """(coefficients, kappa = C / delta, r_s) of the Koenigs series of sys.

    L is analytic on the contraction ball |v| < delta, so Cauchy's estimate
    |l_m| <= C delta^-m holds with C the maximum of |L| on |v| = delta.
    C is sampled on DELTA_CIRCLE points of that circle, each evaluated as
    a^k L(v_k) after k principal steps bring it inside delta/4, where the
    truncation is below 4^-M of C and plays no part. The entry radius r_s
    is the largest r <= delta/2 with _series_bound <= product_tolerance.
    """
    ell = _koenigs_coefficients(sys)
    delta = contraction_delta(sys)
    v = delta * np.exp(2j * np.pi * np.arange(DELTA_CIRCLE) / DELTA_CIRCLE)
    v, steps, _ = _principal_orbit(sys, v, 0.25 * delta, DELTA_MAX_K)
    scale = sys.a ** np.arange(steps.max(initial=0) + 1)[steps]
    kappa = float(np.max(np.abs(scale * v * _series(ell, v)))) / delta

    lo, hi = 0.0, 0.5 * delta
    if _series_bound(kappa, delta, hi) <= sys.product_tolerance:
        return ell, kappa, hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _series_bound(kappa, delta, mid) <= sys.product_tolerance:
            lo = mid
        else:
            hi = mid
    return ell, kappa, lo


def relative_error(tail_estimate, terms_used):
    """Relative error of a product value: its tail series' truncation
    bound plus one rounding per factor used."""
    return tail_estimate + terms_used * UNIT_ROUNDOFF


def _tail_products(sys, v):
    """The principal tail of every deviation: L(v), the product of its
    tail factors times v.

    Returns (tail, steps, tail_estimate, converged). Each leaf walks its
    _principal_orbit until |v_K| < r_s (_koenigs_data), then one series
    evaluation: L(v) = a^K L(v_K) = a^K v_K S(v_K). steps counts the
    factors, K steps and the series. tail_estimate is the series'
    truncation bound at |v_K|. sys.n_cap caps the tail factors: a leaf
    still outside the disc after n_cap - 1 steps is flagged unconverged; it
    takes the series where it stands inside the contraction ball, and
    beyond it, where the series may diverge, keeps the partial product
    a^K v_K. v is overwritten: every caller passes leaves of its own,
    which it reads no more.
    """
    delta = contraction_delta(sys)
    ell, kappa, r_s = _koenigs_data(sys)
    last, count, work = _principal_orbit(sys, v, r_s, sys.n_cap - 1)
    converged = np.full(v.size, sys.n_cap >= 1)
    converged[work] = False
    mag = np.abs(last)
    ball = mag < delta
    if ball.all():
        last = np.multiply(last, _series(ell, last))
    else:
        last[ball] = np.multiply(last[ball], _series(ell, last[ball]))
    scale = sys.a ** np.arange(count.max(initial=0) + 1)
    return (np.multiply(last, scale[count]), count + 1,
            _series_bound(kappa, delta, mag), converged)


@dataclass(frozen=True)
class BranchSweep:
    """Product values for every address of support <= depth, in one pass.

    Addresses are indexed by padding to exactly `depth` digits and reading
    them as a base-d integer, most significant digit first; index j therefore
    runs over [offset, offset + values.size) and the canonical address is j
    with trailing zeros stripped, so its support is depth less the number
    of trailing zeros of j, read off one stride of rows per zero (support).
    For an anchor sweep, values[j - offset] is g_sigma(anchor); for the
    degenerate-anchor sweep (anchor None) it is the ladder base attached to
    an address whose first digit is nonzero.
    A sweep is frozen and its four arrays are read-only, since caches hand
    one sweep to every caller.
    """

    depth: int
    d: int
    anchor: object  # complex, or None for the ladder-base sweep
    offset: int
    values: np.ndarray
    terms_used: np.ndarray
    tail_estimate: np.ndarray
    converged: np.ndarray

    COLUMNS = ("values", "terms_used", "tail_estimate", "converged")

    def __post_init__(self):
        for name in self.COLUMNS:
            getattr(self, name).setflags(write=False)

    def indices(self):
        return np.arange(self.values.size, dtype=np.int64) + self.offset

    @cached_property
    def support(self):
        """Support of each row's address, built once and read-only: depth
        less the number of k in 1 .. depth with d^k dividing its index."""
        supp = np.full(self.values.size, self.depth, dtype=np.int16)
        for k in range(1, self.depth + 1):
            step = self.d ** k
            supp[-self.offset % step::step] -= 1
        supp.setflags(write=False)
        return supp

    def digits_of(self, index):
        """Canonical digit tuple of a padded address index."""
        digits = []
        j = int(index)
        for _ in range(self.depth):
            digits.append(j % self.d)
            j //= self.d
        digits.reverse()
        while digits and digits[-1] == 0:
            digits.pop()
        return tuple(digits)


def at_fixed_point(sys, w):
    """Whether anchor w is the degenerate anchor b: |w - b| <= W_NEAR_B."""
    return abs(complex(w) - sys.b) <= W_NEAR_B


def rung_of(d, depth, indices):
    """Rung K of each padded index of the depth-N w = b table: its count of
    significant base-d digits, so index segment [d^(K-1), d^K) is rung K
    and index 0, the solution 0, rung 0."""
    return np.searchsorted(d ** np.arange(depth, dtype=np.int64), indices,
                           side="right")


def _rungs(sys, at_b, N, start, values, steps, est, conv):
    """Final values of the rows from index `start` of a depth-N sweep, the
    other columns finished in place: a^N L(v_leaf) with N prefix factors,
    or at w = b (at_b, seed v = 0) a^(N-K) (a^K L(v_leaf)) with K on rung K
    (rung_of), the depth-K ladder sweep's row, and 0 on rung 0."""
    if not at_b:
        steps += N
        return np.multiply(sys.a ** N, values)
    K = rung_of(sys.d, N, np.arange(start, start + values.size))
    power = np.array([sys.a ** k for k in range(N + 1)])
    values = np.multiply(power[N - K], np.multiply(power[K], values))
    steps += K
    zero = K == 0
    values[zero], steps[zero], est[zero], conv[zero] = 0, 0, 0.0, True
    return values


def _sweep_chunks(sys, w, depth):
    """The depth-N sweep at anchor w (N = depth), one frozen BranchSweep
    per fixed chunk of whole subtrees, at its offset, in index order.

    The seed is v = w - b, v = 0 at the degenerate anchor (at_fixed_point),
    or for w None the digit children of b, whose ladder bases start at
    offset d^(N-1). Seeds are expanded whole until one subtree
    fits CHUNK_LEAVES, and a chunk holds as many whole subtrees as fit.
    _rungs finishes each chunk: a row is a^N L(v_leaf) with N prefix
    factors, or at the degenerate anchor takes the rung rule.
    """
    N = depth
    at_b = w is not None and at_fixed_point(sys, w)
    if w is None:
        v = _expand_level(sys, np.zeros(1, dtype=np.complex128))[1:]
        levels, offset = N - 1, sys.d ** (N - 1)
    else:
        v = np.array([0j if at_b else w - sys.b], dtype=np.complex128)
        levels, offset = N, 0
    while levels > 0 and sys.d ** levels > CHUNK_LEAVES:
        v = _expand_level(sys, v)
        levels -= 1
    group = max(1, CHUNK_LEAVES // sys.d ** levels)
    for lo in range(0, v.size, group):
        cv = v[lo:lo + group]
        for _ in range(levels):
            cv = _expand_level(sys, cv)
        start = offset + lo * sys.d ** levels
        values, steps, est, conv = _tail_products(sys, cv)
        values = _rungs(sys, at_b, N, start, values, steps, est, conv)
        yield BranchSweep(depth=N, d=sys.d, anchor=w, offset=start,
                          values=values, terms_used=steps, tail_estimate=est,
                          converged=conv)


def _joined(chunks, size):
    """The one BranchSweep of `size` rows that _sweep_chunks' chunks make
    up, each chunk written in place into arrays allocated at the first."""
    columns = None
    for chunk in chunks:
        if columns is None:
            base = chunk.offset
            columns = {name: np.empty(size, dtype=getattr(chunk, name).dtype)
                       for name in BranchSweep.COLUMNS}
        lo = chunk.offset - base
        for name, column in columns.items():
            column[lo:lo + chunk.values.size] = getattr(chunk, name)
    return replace(chunk, offset=base, **columns)


def sweep_products(sys, w, max_support):
    """Values g_sigma(w) for every address with support <= max_support.

    One batched pass over the padded address tree of depth N = max_support
    (_sweep_chunks); shared digit prefixes share their orbits and partial
    products, and a leaf's value is a^N L(v_leaf), with N prefix factors.
    At the degenerate anchor (at_fixed_point) the pass starts from v = 0,
    as inverse_branch does: leading zero digits keep v at exactly 0, so
    the rows of rung K (rung_of) hold the depth-K ladder sweep
    (sweep_solutions_at_b) times a^(N-K), and index 0 is the solution 0.
    """
    w = complex(w)
    if max_support < 0:
        raise ValueError("max_support must be nonnegative")
    return _joined(_sweep_chunks(sys, w, max_support), sys.d ** max_support)


def sweep_solutions_at_b(sys, max_support):
    """Ladder bases for the degenerate anchor w = b.

    Every solution of f(z) = b is either 0 or a^k * base for some k >= 0,
    where base runs over the values returned here: for each address with
    first digit j != 0,

        base = a * (P_j^{-1}(b) - b) * prod_{n>=2} a / Q(u_n).

    Only addresses with nonzero leading digit occur, so padded indices start
    at offset d^(N-1), N = max_support; each value is a^N L(v_leaf).
    """
    if max_support < 1:
        raise ValueError("max_support must be >= 1 for the degenerate anchor")
    return _joined(_sweep_chunks(sys, None, max_support),
                   (sys.d - 1) * sys.d ** (max_support - 1))


def _address_product(sys, sigma, w, label):
    """Row index(sigma) of sweep_products(sys, w, support(sigma)), alone.

    Each digit expands the single node with _expand_level and keeps the
    child it names; the tail and the scaling are the sweep's, a^N L(v_leaf)
    with N digits. At the degenerate anchor every digit is walked from
    v = 0, leading zeros included, and the row finishes by the rung rule
    (_rungs) at its own index.
    """
    if not isinstance(sigma, SigmaSequence):
        sigma = SigmaSequence.from_digits(tuple(sigma))
    digits = sigma.digits
    for dig in digits:
        if dig >= sys.d:
            raise InvalidIndices(
                f"digit {dig} out of range for degree {sys.d}")
    at_b = at_fixed_point(sys, w)
    v = np.array([0j if at_b else complex(w) - sys.b], dtype=np.complex128)
    index = 0
    for dig in digits:
        v = _expand_level(sys, v)[dig:dig + 1]
        index = index * sys.d + dig
    value, steps, est, conv = _tail_products(sys, v)
    value = _rungs(sys, at_b, len(digits), index, value, steps, est, conv)
    if not conv[0]:
        raise NonConvergence(f"{label}: tail stopping rule unmet after "
                             f"{sys.n_cap} tail factors")
    return BranchProduct(value=complex(value[0]), terms_used=int(steps[0]),
                         tail_estimate=float(est[0]), converged=True)


def zero_product(sys, sigma):
    """Zero of f addressed by sigma: inverse_branch at w = 0."""
    return _address_product(sys, sigma, 0j, "zero_product")


def inverse_branch(sys, sigma, w):
    """Solution of f(z) = w addressed by sigma: row index(sigma) of
    sweep_products(sys, w, support(sigma)), bit for bit, at w = b too."""
    return _address_product(sys, sigma, w, "inverse_branch")


def g0_and_derivative(sys, w):
    """Principal inverse g_0 and its derivative at w.

    g_0(w) is the product of the empty address. Its derivative is
    1 / f'(g_0(w)), with f' the chain product a^-n prod V'(v_k) of the
    evaluator of f; at w = b both are exact: (0, 1).
    """
    w = complex(w)
    if at_fixed_point(sys, w):
        return 0j, 1.0 + 0j
    g = _address_product(sys, (), w, "g0").value
    slope = complex(_eval_f_with_slope(sys, g)[1])
    if slope == 0:
        raise ZeroDenominator("g0: f' vanishes at g0(w)")
    return g, 1.0 / slope


def check_hypothesis1(sys):
    """Probe principal-orbit convergence on concentric circles.

    Samples HYPOTHESIS_COUNT points on 8 circles of radius up to
    HYPOTHESIS_RADIUS centered at the origin, the odd circles turned by
    half a spacing, and walks each one's _principal_orbit, counting steps
    until it enters the certified contraction ball; an orbit still outside
    after HYPOTHESIS_ORBIT_CAP steps has not converged.
    """
    m = HYPOTHESIS_COUNT // 8
    pts = []
    for i in range(1, 9):
        r = HYPOTHESIS_RADIUS * i / 8
        pts.extend(r * np.exp(2j * np.pi * (np.arange(m) + 0.5 * (i % 2)) / m))
    points = np.array(pts, dtype=np.complex128)

    _, steps, outside = _principal_orbit(
        sys, points - sys.b, contraction_delta(sys), HYPOTHESIS_ORBIT_CAP)
    converged = np.ones(points.size, dtype=bool)
    converged[outside] = False
    worst = outside[0] if outside.size else np.argmax(steps)
    return HypothesisReport(
        sampled_points=points.size,
        converged_points=points.size - outside.size,
        max_orbit_length=int(steps[converged].max(initial=0)),
        worst_point=complex(points[worst]),
        passed=outside.size == 0,
    )


def growth_floor(sweep, a_abs):
    """Empirical growth-floor constant: min |value| |a|^-support over the
    rows of support >= 1, inf if there is none; a nan value makes it nan."""
    if sweep.depth < 1:
        raise ValueError("sweep holds no address with support >= 1")
    supp = sweep.support
    rows = supp >= 1
    scale = a_abs ** -np.arange(sweep.depth + 1, dtype=np.float64)
    return float(np.min(np.abs(sweep.values[rows]) * scale[supp[rows]],
                        initial=np.inf))


def geometric_tail(c_est, d, a_abs, start_support, m):
    """Bound sum over support >= start_support of |g|^-m by a geometric sum."""
    q = d * a_abs ** (-m)
    if q >= 1.0:
        raise DivergentTail(f"d |a|^-m = {q:.6f} >= 1; tail diverges for m={m}")
    return c_est ** (-m) * q ** start_support / (1.0 - q)


def tail_bound(sys, N, m, w=0j):
    """Executable bound on sum over support >= N of |g_sigma(w)|^-m.

    The floor constant is measured on an enumerated probe sweep (supports up
    to TAIL_PROBE_SUPPORT) and extrapolated geometrically: the shell at
    support n contributes at most C^-m (d |a|^-m)^n.
    """
    a_abs = abs(sys.a)
    q = sys.d * a_abs ** (-m)
    if q >= 1.0:
        raise DivergentTail(f"d |a|^-m = {q:.6f} >= 1; tail diverges for m={m}")
    probe = min(TAIL_PROBE_SUPPORT, max(2, int(math.log(50000, sys.d))))
    if at_fixed_point(sys, w):
        sweep = sweep_solutions_at_b(sys, probe)
    else:
        sweep = sweep_products(sys, w, probe)
    return geometric_tail(growth_floor(sweep, a_abs), sys.d, a_abs, N, m)
