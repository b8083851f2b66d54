"""Hadamard-type products over branch addresses and momenta identities.

The genus-zero condition d < |a| makes the address values g_sigma(w) grow
fast enough that prod (1 - z / g_sigma(w)) converges absolutely; f is then
recovered as w + (b - w) times that product. Momenta are the power sums
sum_sigma ((w - b) / g_sigma(w))^m, which close in terms of the Taylor data
of f at 0.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dd
from .branches import (
    UNIT_ROUNDOFF,
    W_NEAR_B,
    BranchSweep,
    _floor_of_minima,
    _leaf_chunks,
    _shell_minima,
    geometric_tail,
    growth_floor,
    relative_error,
    sweep_products,
    sweep_solutions_at_b,
)
from .errors import DivergentMoment, OrderTooLarge, ValidationError
from .exactsum import ExactSums
from .system import _taylor_series

# Number of trailing shell ratios whose drift from d/a^m sizes the error of
# the geometric tail completion.
RATIO_WINDOW = 3

# The w = b ladder sums its far rungs as the series log(1 - t) =
# -sum_{m<=LADDER_TERMS} t^m / m; a rung is far once every t = z / (a^k base)
# on it has |t| <= FAR_RATIO.
LADDER_TERMS = 24
FAR_RATIO = 0.25


@dataclass(frozen=True)
class MomentReport:
    """Shell-by-shell trace of one momentum sum against its closed form.

    shells[k] = (support, cumulative partial sum through that shell);
    computed_sum is exactly the last entry. tail_bound bounds the modulus of
    the dropped part of the sum.

    extrapolated_sum completes computed_sum with the geometric remainder of
    the last shell, shell_N * r / (1 - r) with r = d / a^m (modulus
    q = d / |a|^m, the paper's rate). extrapolation_error estimates
    |extrapolated_sum - true momentum|: the drift of the last shell ratios
    from r carried through the remainder, plus the product-error floor.
    """

    order_m: int
    w: complex
    computed_sum: complex
    closed_form_rhs: complex
    shells: tuple
    tail_bound: float
    extrapolated_sum: complex
    extrapolation_error: float


@dataclass(frozen=True)
class WHEvaluation:
    """One product-formula evaluation of f at z anchored at w_anchor.

    factors_used counts the explicit factors 1 - z / g, plus, on the w = b
    ladder, the bases once more for the rungs summed in closed form.
    """

    z: complex
    w_anchor: complex
    product_value: complex
    factors_used: int
    tail_bound: float


@lru_cache(maxsize=4)
def _anchor_sweep(sys, w, max_support):
    return sweep_products(sys, w, max_support)


@lru_cache(maxsize=4)
def _anchor_floor(sys, w, max_support):
    """growth_floor of the anchor sweep, measured once per sweep."""
    return growth_floor(_anchor_sweep(sys, w, max_support), abs(sys.a))


@dataclass(frozen=True)
class _LadderSums:
    """Per-sweep data of the w = b ladder, computed once from its bases.

    g_min = min |base|; inv_sum = sum 1/|base|; missing bounds the sum of
    1/|base| over the bases beyond the sweep's depth. series[m - 1] =
    S_m / m with S_m = sum_base base^-m / (1 - a^-m), the sum over every
    rung k >= 0 of (a^k base)^-m. rounding bounds the relative rounding of
    the S_m reductions and of their per-point evaluation.
    """

    bases: np.ndarray
    g_min: float
    inv_sum: float
    missing: float
    series: tuple
    rounding: float


@lru_cache(maxsize=4)
def _ladder_sums(sys, max_support):
    sweep = sweep_solutions_at_b(sys, max_support)
    bases = sweep.values
    a_abs = abs(sys.a)
    inv = 1.0 / bases
    power = np.ones_like(inv)
    series = []
    for m in range(1, LADDER_TERMS + 1):
        power *= inv
        series.append(complex(np.sum(power)) / (1.0 - sys.a ** (-m)) / m)
    # Roundings in units of u, relative to sum_m |z'|^m sum |base|^-m /
    # (m (1 - |a|^-m)): at most 3 per complex operation, so 3 (M + 2) for a
    # power, its division by 1 - a^-m and by m; 16 + log2(n) for numpy's
    # blockwise pairwise sum; 6 M for the per-point Horner evaluation.
    units = 9 * LADDER_TERMS + 22 + math.ceil(math.log2(bases.size + 1))
    return _LadderSums(
        bases=bases,
        g_min=float(np.min(np.abs(bases))),
        inv_sum=_fsum(1.0 / np.abs(bases)),
        missing=geometric_tail(growth_floor(sweep, a_abs), sys.d, a_abs,
                               max_support + 1, 1),
        series=tuple(series),
        rounding=units * UNIT_ROUNDOFF,
    )


def _fsum(values):
    """Exactly rounded sum of a real array, strided views included; fsum
    reads the floats of a 1-D memoryview faster than numpy scalars or a
    list."""
    return math.fsum(memoryview(np.ravel(values)))


def _complex_sum(values):
    """Exactly rounded complex sum (order independent)."""
    return complex(_fsum(values.real), _fsum(values.imag))


@np.errstate(over="ignore", invalid="ignore")
def _pairwise_product(values):
    """Balanced tree product, deterministic for a fixed operand order;
    an overflow leaves inf or nan in it, with no numpy warning."""
    x = np.asarray(values, dtype=np.complex128)
    if x.size == 0:
        return 1.0 + 0j
    while x.size > 1:
        if x.size % 2:
            x = np.concatenate([x, np.ones(1, dtype=np.complex128)])
        x = x[0::2] * x[1::2]
    return complex(x[0])


def _factor_product(z, values):
    """_pairwise_product of the factors 1 - z / values, formed in place.

    One temporary of the size of values per call instead of two: with the
    sweep in 2^14-leaf chunks, the second raised the CPU of a fresh
    process's 32-point wh on Chebyshev at depth 15 by about a fifth.
    """
    x = z / values
    np.subtract(1.0, x, out=x)
    return _pairwise_product(x)


def closed_form_momentum(sys, m, w):
    """Right-hand side of the order-m momentum identity at anchor w.

    With c = w - b and the Taylor data phi = f - b, e_n = phi_n c^(n-1)
    makes (f(cx) - w) / (b - w) = 1 - sum_n e_n x^n, whose zeros are
    g_sigma(w) / c. Newton's identities then give the momenta
    p_n = sum_sigma (c / g_sigma(w))^n as

        p_n = n e_n + sum_{k<n} e_k p_(n-k),

    in complex double-double. For m = 1 this is f'(0) = 1 for every anchor.
    """
    if m < 1:
        raise ValueError("momentum order must be >= 1")
    phi = _taylor_series(sys, m)
    c = dd.cdd_add(dd.cdd_from(complex(w)), dd.cdd_from(-sys.b))
    e = [None]
    power = (1.0, 0.0, 0.0, 0.0)
    for n in range(1, m + 1):
        e.append(dd.cdd_mul(phi[n], power))
        power = dd.cdd_mul(power, c)
    p = [None]
    for n in range(1, m + 1):
        acc = dd.cdd_mul((float(n), 0.0, 0.0, 0.0), e[n])
        for k in range(1, n):
            acc = dd.cdd_add(acc, dd.cdd_mul(e[k], p[n - k]))
        p.append(acc)
    return complex(dd.cdd_collapse(p[m]))


def _require_support(max_support):
    """Tail bounds rest on the growth floor of the addresses of support
    1 .. max_support, so they need at least one."""
    if max_support < 1:
        raise ValidationError(
            f"tail bounds need max_support >= 1, got {max_support}")


def _check_order(sys, m, w, max_support):
    """Refuse a momentum of order m at anchor w: m >= 1, w != b, absolute
    convergence d |a|^-m < 1 and max_support >= 1."""
    if m < 1:
        raise ValueError("momentum order must be >= 1")
    if abs(w - sys.b) <= W_NEAR_B:
        raise ValidationError(
            f"momenta need an anchor away from the fixed point b = {sys.b}")
    q = sys.d * abs(sys.a) ** (-m)
    if q >= 1.0:
        raise DivergentMoment(
            f"d |a|^-m = {q:.6f} >= 1: momentum of order {m} diverges"
        )
    _require_support(max_support)


def moment_sums(sys, orders, w, max_support):
    """Momenta sum_sigma ((w - b) / g_sigma(w))^m over support <= max_support,
    one MomentReport per order m in `orders`, from one pass over the sweep.

    Every order is checked first (_check_order). The sweep is never held:
    each chunk of _leaf_chunks is scaled by a^N and reduced as it comes,
    through the views of BranchSweep.shells at its offset. Per order and
    shell the terms and their noise go into exact sums (ExactSums), and per
    shell the least |g_sigma| into the growth floor. So every shell sum is
    exactly rounded, whatever the chunks, and the shells accumulate in
    ascending support order.
    """
    w = complex(w)
    orders = tuple(orders)
    for m in orders:
        _check_order(sys, m, w, max_support)
    N = max_support
    shells = N + 1
    term_sums = [ExactSums(2 * shells) for _ in orders]
    noise_sums = [ExactSums(shells) for _ in orders]
    least = np.full(shells, np.inf)
    seeds = np.array([w - sys.b], dtype=np.complex128)
    for start, values, steps, est, conv in _leaf_chunks(sys, seeds, N):
        np.multiply(sys.a ** N, values, out=values)  # scalar left, as sweeps
        steps += N
        chunk = BranchSweep(depth=N, d=sys.d, anchor=w, offset=start,
                            values=values, terms_used=steps,
                            tail_estimate=est, converged=conv)
        support = chunk.support.astype(np.intp)
        parts = (2 * support[:, None] + np.arange(2)).ravel()
        rel = relative_error(est, steps)
        with np.errstate(over="ignore", invalid="ignore"):
            base = (w - sys.b) / values
        for m, term_sum, noise_sum in zip(orders, term_sums, noise_sums):
            with np.errstate(over="ignore", invalid="ignore"):
                terms = base ** m
            if not np.all(np.isfinite(terms)):
                raise ValidationError(
                    f"momentum terms of order {m} overflow at anchor w = {w}")
            term_sum.add(parts, terms.view(np.float64))
            # A relative error e in g_sigma moves its term by about m e |term|.
            noise = np.abs(terms)
            noise *= m
            noise *= rel
            noise_sum.add(support, noise)
        np.minimum(least, _shell_minima(chunk), out=least)
    c_est = _floor_of_minima(least, abs(sys.a))
    return [_moment_report(sys, m, w, N, c_est, term_sum.sums(),
                           noise_sum.sums())
            for m, term_sum, noise_sum in zip(orders, term_sums, noise_sums)]


def _moment_report(sys, m, w, N, c_est, parts, shell_noise):
    """MomentReport of order m from the exact shell sums: parts holds the
    real and imaginary part of each shell, shell_noise its noise."""
    running = 0j
    shells = []
    shell_sums = []
    for support in range(N + 1):
        shell_sums.append(complex(parts[2 * support], parts[2 * support + 1]))
        running = running + shell_sums[-1]
        shells.append((support, running))
    bound = (abs(w - sys.b) ** m
             * geometric_tail(c_est, sys.d, abs(sys.a), N + 1, m))
    remainder, error = _geometric_completion(
        shell_sums, shell_noise, sys.d * sys.a ** (-m), bound)
    return MomentReport(order_m=m, w=w, computed_sum=running,
                        closed_form_rhs=closed_form_momentum(sys, m, w),
                        shells=tuple(shells), tail_bound=bound,
                        extrapolated_sum=running + remainder,
                        extrapolation_error=error)


def moment_sum(sys, m, w, max_support):
    """The MomentReport of order m alone (moment_sums)."""
    return moment_sums(sys, (m,), w, max_support)[0]


def _geometric_completion(shell_sums, shell_noise, r, tail_bound):
    """Remainder beyond the last shell and an error estimate for adding it.

    Shell sums decay with ratio r = d / a^m (|r| = q < 1), so the sum
    beyond shell N is close to shell_N * r / (1 - r). If the last
    RATIO_WINDOW ratios shell_k / shell_(k-1) stay within `drift` of r and
    later ones do too, the remainder is off by at most
    |shell_N| ((q + drift) / (1 - q - drift) - q / (1 - q)); that is capped
    by tail_bound + |remainder|, which holds whatever the ratios do. Shells
    at or below their own noise carry no ratio: when the last one is noise
    the rate q alone completes the sum. The floor, the noise of every shell
    plus the last one's carried into the remainder, is always added.
    """
    q = abs(r)
    last = shell_sums[-1]
    n = len(shell_sums) - 1
    remainder = last * r / (1.0 - r)
    floor = math.fsum(shell_noise) / (1.0 - q)
    if abs(last) <= shell_noise[-1]:
        return remainder, floor
    spread = tail_bound + abs(remainder)
    first = n - RATIO_WINDOW + 1
    if first >= 2 and all(abs(shell_sums[k]) > shell_noise[k]
                          for k in range(first - 1, n + 1)):
        drift = max(abs(shell_sums[k] / shell_sums[k - 1] - r)
                    for k in range(first, n + 1))
        if q + drift < 1.0:
            spread = min(spread, abs(last) * ((q + drift) / (1.0 - q - drift)
                                              - q / (1.0 - q)))
    return remainder, spread + floor


def vieta_sums(sys, w, max_support):
    """First two Viete aggregates of y_sigma = (w - b)/g_sigma(w).

    Returns (S1, S2) with S1 = sum y_sigma and S2 = sum over unordered pairs
    y_sigma y_tau = (S1^2 - sum y_sigma^2) / 2.
    """
    w = complex(w)
    if abs(w - sys.b) <= W_NEAR_B:
        raise ValueError("Viete sums need an anchor away from the fixed point")
    sweep = _anchor_sweep(sys, w, max_support)
    y = (w - sys.b) / sweep.values
    p1 = _complex_sum(y)
    p2 = _complex_sum(y * y)
    return p1, (p1 * p1 - p2) / 2.0


def _log_budget(scale, log_excess):
    """scale (e^log_excess - 1): the bound on a product of modulus scale
    whose log is off by at most log_excess. A budget too large for a
    double is an infinite one."""
    try:
        return scale * math.expm1(log_excess)
    except OverflowError:
        return math.inf


def wh_eval(sys, z, w_anchor, max_support):
    """Evaluate f(z) by its genus-zero product over branch addresses.

    For an anchor w != b:  f(z) = w + (b - w) prod (1 - z / g_sigma(w)),
    one explicit factor per enumerated address.

    For w = b the solutions ladder in powers of a and the product becomes

        f(z) = b + z prod_{k>=0} prod_bases (1 - z / (a^k base)).

    Rung k is near while |z| |a|^-k > g_min / 4 (g_min = min |base|) and
    takes one explicit factor per base. From the first far rung K on, every
    |z / (a^k base)| <= 1/4, and with z' = z / a^K all the far rungs sum in
    closed form:

        log prod_{k>=K} prod_bases (...) = -sum_{m<=M} z'^m / m * S_m,

    S_m = sum_base base^-m / (1 - a^-m) (M = LADDER_TERMS), from power sums
    computed once per sweep (_ladder_sums). tail_bound adds three terms in
    the log: the bases beyond max_support, |z| sum 1/|base| / (1 - 1/|a|)
    over them; the series truncation, at most r^M / ((M + 1)(1 - r)) |z'|
    sum 1/|base| / (1 - 1/|a|) with r = |z'| / g_min <= 1/4; and the
    rounding of the S_m reductions. factors_used counts the explicit
    factors plus the bases summed once.

    Requires d < |a| and max_support >= 1; z = 0 returns b exactly.
    """
    a_abs = abs(sys.a)
    if sys.d >= a_abs:
        raise OrderTooLarge(
            f"product form needs d < |a|, got d = {sys.d}, |a| = {a_abs:.6f}"
        )
    _require_support(max_support)
    z = complex(z)
    w = complex(w_anchor)
    if not cmath.isfinite(z):
        raise ValidationError(f"product form needs a finite z, got {z}")
    if z == 0:
        return WHEvaluation(z=z, w_anchor=w, product_value=complex(sys.b),
                            factors_used=1, tail_bound=0.0)
    inv_a = 1.0 / a_abs

    if abs(w - sys.b) <= W_NEAR_B:
        ladder = _ladder_sums(sys, max_support)
        bases = ladder.bases
        total = 1.0 + 0j
        scaled = z
        rungs = 0
        while abs(scaled) > FAR_RATIO * ladder.g_min:
            total *= _factor_product(scaled, bases)
            scaled /= sys.a
            rungs += 1
        log_far = 0j
        for coeff in reversed(ladder.series):
            log_far = (log_far + coeff) * scaled
        total *= cmath.exp(-log_far)
        ratio = abs(scaled) / ladder.g_min
        far_sum = abs(scaled) * ladder.inv_sum / (1.0 - inv_a)
        log_excess = (
            abs(z) * ladder.missing / (1.0 - inv_a)
            + far_sum * ratio ** LADDER_TERMS
            / ((LADDER_TERMS + 1) * (1.0 - ratio))
            + far_sum * ladder.rounding / (1.0 - ratio)
        )
        bound = _log_budget(abs(z) * abs(total), log_excess)
        return WHEvaluation(z=z, w_anchor=w,
                            product_value=sys.b + z * total,
                            factors_used=(rungs + 1) * bases.size,
                            tail_bound=bound)

    sweep = _anchor_sweep(sys, w, max_support)
    prod = _factor_product(z, sweep.values)
    log_excess = abs(z) * geometric_tail(_anchor_floor(sys, w, max_support),
                                         sys.d, a_abs, max_support + 1, 1)
    bound = _log_budget(abs(sys.b - w) * abs(prod), log_excess)
    return WHEvaluation(z=z, w_anchor=w,
                        product_value=w + (sys.b - w) * prod,
                        factors_used=sweep.values.size,
                        tail_bound=bound)
