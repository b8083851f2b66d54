"""Momenta identities and the genus-zero product evaluation of f."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spzeros import branches, factor
from spzeros import (
    ComplexPolynomial,
    DivergentMoment,
    OrderTooLarge,
    ProblemSpec,
    ValidationError,
    build_system,
    closed_form_momentum,
    eval_f_direct,
    moment_sum,
    moment_sums,
    system_from_spec,
    taylor_at_zero,
    vieta_sums,
    wh_eval,
)
from spzeros.factor import (
    _anchor_sweep,
    _geometric_completion,
    _ladder_sums,
    _pairwise_product,
)
from spzeros.verify import (
    chebyshev_system,
    cubic_system,
    golden_system,
    oracle_chebyshev,
)

SQRT5 = math.sqrt(5)


def test_closed_form_first_momenta():
    # m = 1: the momentum is (w - b) (log(f - w))'(0) = 1 for every anchor
    # in the image, because f'(0) = 1 and f(0) = b.
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        for w in (0j, -1.0 + 0.3j):
            assert abs(closed_form_momentum(sys, 1, w) - 1) <= 1e-14


def test_closed_form_second_momentum_from_taylor():
    # p2 = 1 - (b - w) f''(0); with f''(0) = P''(b)/(a^2 - a).
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        f2 = taylor_at_zero(sys, 2).derivative_at_zero(2)
        for w in (0j, 0.5 - 0.2j):
            want = 1 - (sys.b - w) * f2
            got = closed_form_momentum(sys, 2, w)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_golden_momenta_values():
    sys = golden_system()
    # 1 - 1/sqrt(5) and 2/5 via the Taylor data of the golden system
    assert abs(closed_form_momentum(sys, 1, 0j) - 1) <= 1e-14
    assert abs(closed_form_momentum(sys, 2, 0j) - (1 - 1 / SQRT5)) <= 1e-14
    assert abs(closed_form_momentum(sys, 3, 0j) - 0.4) <= 1e-14


def _bernoulli(n):
    """B_0 .. B_n as exact fractions, from sum_{i<=k} C(k+1, i) B_i = 0."""
    b = [Fraction(1)]
    for k in range(1, n + 1):
        b.append(-sum(math.comb(k + 1, i) * b[i] for i in range(k)) / (k + 1))
    return b


def test_closed_form_chebyshev_momenta_exact():
    # At w = 0 the zeros of cos(sqrt(-2z)) are -((2k+1) pi)^2 / 8, so with
    # c = w - b = -1 the momentum of order m is
    # (8/pi^2)^m (1 - 4^-m) zeta(2m) = (1 - 4^-m) 32^m |B_2m| / (2 (2m)!),
    # a rational number.
    sys = chebyshev_system()
    bern = _bernoulli(24)
    for m in range(1, 13):
        want = float((1 - Fraction(1, 4 ** m)) * 32 ** m * abs(bern[2 * m])
                     / (2 * math.factorial(2 * m)))
        got = closed_form_momentum(sys, m, 0j)
        assert abs(got - want) <= 1e-15 * want, m


def test_closed_form_cubic_second_momentum_exact():
    # P = z^3 - 6, b = 2, a = 12: f''(0) = P''(b) / (a^2 - a) = 1/11, so
    # p_2 = 1 - b f''(0) = 9/11 at w = 0, to the last bit.
    assert closed_form_momentum(cubic_system(), 2, 0j) == 9 / 11


def _bell_form_reference(sys, m, w, mpmath):
    """The Bell-form identity for the order-m momentum, in mpmath.

    f^(n)(0) = (a^n - a)^-1 sum_j j! V_j B_{n,j}(f'(0), ...), and the
    momentum is sum_j (w - b)^(m-j) (j-1)!/(m-1)! B_{m,j}(f'(0), ...); the
    partial Bell polynomials come from the recurrence
    B_{n,k} = sum_i C(n-1, i-1) x_i B_{n-i,k-1}.
    """
    def bell(x, n):
        table = [[mpmath.mpc(0)] * (n + 1) for _ in range(n + 1)]
        table[0][0] = mpmath.mpc(1)
        for r in range(1, n + 1):
            for k in range(1, r + 1):
                table[r][k] = mpmath.fsum(
                    math.comb(r - 1, i - 1) * x[i - 1] * table[r - i][k - 1]
                    for i in range(1, r - k + 2) if i <= len(x))
        return table[n]

    a = mpmath.mpc(sys.a)
    V = [mpmath.mpc(c) for c in sys.V.coefficients]
    raw = [mpmath.mpc(1)]
    for n in range(2, m + 1):
        row = bell(raw, n)
        raw.append(mpmath.fsum(math.factorial(j) * V[j] * row[j]
                               for j in range(2, min(n, sys.d) + 1))
                   / (a ** n - a))
    row = bell(raw, m)
    c = mpmath.mpc(w) - mpmath.mpc(sys.b)
    return mpmath.fsum(c ** (m - j) * math.factorial(j - 1) * row[j]
                       for j in range(1, m + 1)) / math.factorial(m - 1)


@pytest.mark.parametrize("m", [10, 12])
def test_closed_form_quartic_against_bell_form(m):
    # (-1+0.2i) + 0.3 z^2 + z^4 has a complex b and a; at w = -1+0.3i the
    # Bell form loses digits to cancellation in double precision.
    mpmath = pytest.importorskip("mpmath")
    sys = build_system(ComplexPolynomial((-1 + 0.2j, 0, 0.3, 0, 1)), 1.5)
    w = -1 + 0.3j
    with mpmath.workdps(60):
        want = complex(_bell_form_reference(sys, m, w, mpmath))
    got = closed_form_momentum(sys, m, w)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_moment_sum_converges_to_closed_form_golden():
    sys = golden_system()
    for m in (2, 3):
        rep = moment_sum(sys, m, 0j, 12)
        closed = closed_form_momentum(sys, m, 0j)
        assert abs(rep.computed_sum - closed) <= rep.tail_bound + 1e-8
        # partials are cumulative and end at the computed sum
        supports = [s for s, _ in rep.shells]
        assert supports == sorted(supports)
        assert rep.shells[-1][1] == rep.computed_sum


def test_moment_sum_converges_cubic():
    sys = cubic_system()
    rep = moment_sum(sys, 2, 0j, 8)
    closed = closed_form_momentum(sys, 2, 0j)
    # 9/11 from f''(0) = 1/11 at b = 2
    assert abs(closed - 9 / 11) <= 1e-13
    assert abs(rep.computed_sum - closed) <= rep.tail_bound + 1e-8


def test_moment_anchor_independence_m1():
    sys = golden_system()
    for w in (0j, -1.0 + 0j, 0.4 + 0.7j):
        rep = moment_sum(sys, 1, w, 12)
        assert abs(rep.computed_sum - 1) <= rep.tail_bound + 1e-6


@functools.lru_cache(maxsize=None)
def _moments_at_zero(make, depth):
    """Reports of orders 1 to 3 at w = 0, one pass per system and depth."""
    return moment_sums(make(), (1, 2, 3), 0j, depth)


@pytest.mark.parametrize("make, m, depths", [
    (cubic_system, 1, (6, 8, 10)),
    # cubic m = 2 and golden m = 3 shells fall far below the partial sum's
    # rounding level by depth 10
    (cubic_system, 2, (8, 10)),
    (golden_system, 1, (10, 12, 16, 20)),
    (golden_system, 2, (10, 12, 16, 20)),
    (golden_system, 3, (10, 12, 16, 20)),
    (chebyshev_system, 1, (8, 12)),
])
def test_extrapolated_momentum_within_its_error(make, m, depths):
    sys = make()
    closed = closed_form_momentum(sys, m, 0j)
    for depth in depths:
        rep = _moments_at_zero(make, depth)[m - 1]
        err = abs(rep.extrapolated_sum - closed)
        assert math.isfinite(rep.extrapolation_error)
        assert err <= rep.extrapolation_error
        # the raw partial sum is untouched by the tail completion
        assert rep.shells[-1][1] == rep.computed_sum
        assert abs(rep.computed_sum - closed) <= rep.tail_bound + 1e-8


def test_extrapolation_beats_truncation_cubic():
    # Cubic m = 1 shells shrink by exactly d/|a| = 1/4: completing the
    # series removes the 9.2e-8 truncation mass of the depth-10 sum.
    rep = moment_sum(cubic_system(), 1, 0j, 10)
    assert abs(rep.computed_sum - 1) > 1e-8
    assert abs(rep.extrapolated_sum - 1) <= 1e-12
    # steady shell ratios make the estimate far tighter than the a-priori
    # tail bound it falls back to
    assert rep.extrapolation_error <= 1e-12 < rep.tail_bound


def test_geometric_completion_zero_and_noise_shells():
    # An exactly zero last shell falls back to the rate and the floor.
    rem, err = _geometric_completion([1.0, 0.25, 0.0, 0.0], [1e-16] * 4,
                                     0.25, 1e-3)
    assert rem == 0 and err == pytest.approx(4e-16 / 0.75)
    # A zero inside the ratio window yields no ratio; the a-priori bound
    # (tail_bound + |remainder|) plus the floor stands instead.
    rem, err = _geometric_completion([1.0, 0.25, 0.0, 1e-3, 2.5e-4],
                                     [1e-16] * 5, 0.25, 1e-3)
    assert rem == pytest.approx(2.5e-4 / 3)
    assert err == pytest.approx(1e-3 + 2.5e-4 / 3 + 5e-16 / 0.75)
    # Shells at their noise level in the window: no division by them.
    rem, err = _geometric_completion([1.0, 0.5, 0.0, 1e-20, 1e-3],
                                     [1e-16, 1e-16, 1e-16, 1e-16, 1e-18],
                                     0.25, 1e-2)
    assert math.isfinite(err) and err >= 1e-2
    # Everything zero with zero noise: finite zeros, no NaN.
    assert _geometric_completion([0.0] * 6, [0.0] * 6, 0.5, 0.0) == (0.0, 0.0)


def test_vieta_pair_sum():
    # e2 = (p1^2 - p2)/2 = (b - w) f''(0) / 2; golden at w = 0 gives
    # phi/(phi sqrt5 * 2) = 1/(2 sqrt5).
    sys = golden_system()
    s1, e2 = vieta_sums(sys, 0j, 12)
    assert abs(s1 - 1) <= 1e-3
    assert abs(e2 - 1 / (2 * SQRT5)) <= 1e-3


def test_divergent_moment_refused():
    # P = z^3 - z + 1 fixes b = 1 with multiplier 2; d/|a| = 1.5 >= 1 so
    # the m = 1 momentum diverges and must be refused up front.
    sys = build_system(ComplexPolynomial((1 + 0j, -1 + 0j, 0j, 1 + 0j)), 1.0)
    with pytest.raises(DivergentMoment):
        moment_sum(sys, 1, 0j, 4)
    # m = 2 has d/|a|^2 = 0.75 < 1 and converges toward p2 = 1 - b f''(0)
    # = -2 (f''(0) = P''(b)/(a^2 - a) = 3).
    rep = moment_sum(sys, 2, 0j, 8)
    assert abs(rep.computed_sum - (-2)) <= rep.tail_bound + 1e-8


def test_unconverged_tails_make_the_error_estimate_infinite():
    # Chebyshev at n_cap 2: leaves still outside the contraction ball keep
    # their partial products, with an infinite tail_estimate, so their
    # noise is inf. The exact shell sums stay finite and the extrapolation
    # error is inf, as it must be.
    sys = system_from_spec(ProblemSpec(
        coefficients=(-1 + 0j, 0j, 2 + 0j), fixed_point_hint=1 + 0j,
        max_support=5, product_tolerance=1e-12, n_cap=2,
        root_tolerance=1e-13))
    for rep in moment_sums(sys, (1, 2), 0j, 5):
        assert all(math.isfinite(abs(partial)) for _, partial in rep.shells)
        assert rep.extrapolation_error == math.inf


def test_moment_sums_refuse_every_order_before_the_sweep(monkeypatch):
    # A divergent order listed after one that converges is refused before
    # any leaf is computed.
    sys = build_system(ComplexPolynomial((1 + 0j, -1 + 0j, 0j, 1 + 0j)), 1.0)

    def no_sweep(*args):
        raise AssertionError("swept before refusing")

    monkeypatch.setattr(factor, "_leaf_chunks", no_sweep)
    with pytest.raises(DivergentMoment, match="order 1 diverges"):
        moment_sums(sys, (2, 1), 0j, 4)
    with pytest.raises(ValidationError, match="max_support >= 1"):
        moment_sums(sys, (2,), 0j, 0)


def test_wh_eval_matches_direct_evaluation():
    rng = np.random.default_rng(71)
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        for _ in range(4):
            z = 1.5 * (rng.normal() + 1j * rng.normal())
            direct = eval_f_direct(sys, z)
            ev = wh_eval(sys, z, 0j, 10)
            assert abs(ev.product_value - direct) <= 1e-6 + ev.tail_bound


def test_wh_eval_anchor_consistency():
    sys = golden_system()
    z = 0.8 - 0.6j
    ev0 = wh_eval(sys, z, 0j, 10)
    ev1 = wh_eval(sys, z, -2.0 + 0j, 10)
    evb = wh_eval(sys, z, sys.b, 10)  # fixed-point ladder route
    tol = ev0.tail_bound + ev1.tail_bound + evb.tail_bound + 1e-6
    assert abs(ev0.product_value - ev1.product_value) <= tol
    assert abs(ev0.product_value - evb.product_value) <= tol


def test_ladder_within_budget_of_chebyshev_oracle():
    # g_min / 4 is about 4.9 on Chebyshev: 2 - 1j takes no explicit rung,
    # -40 + 3j and -2000 + 500j take some before the closed-form sum.
    sys = chebyshev_system()
    depth = 12
    bases = _ladder_sums(sys, depth).bases
    near = 0.25 * np.min(np.abs(bases))
    for z, explicit in ((2 - 1j, False), (-40 + 3j, True),
                        (-2000 + 500j, True)):
        ev = wh_eval(sys, z, sys.b, depth)
        rungs = sum(abs(z) * abs(sys.a) ** -k > near for k in range(64))
        assert (rungs > 0) == explicit
        assert ev.factors_used == (rungs + 1) * bases.size
        assert abs(ev.product_value - oracle_chebyshev(z)) <= ev.tail_bound


def test_ladder_sum_matches_explicit_rungs():
    # The same enumerated bases multiplied rung by rung until the dropped
    # rungs are below 1e-17 relative, against the closed-form rung sum.
    for sys, depth in ((golden_system(), 6), (cubic_system(), 4)):
        bases = _ladder_sums(sys, depth).bases
        g_min = float(np.min(np.abs(bases)))
        for z in (0.7 - 0.4j, 2 + 1j, -15 + 2j, 60 - 30j):
            total = 1.0 + 0j
            k = 0
            while abs(z) * abs(sys.a) ** -k > 1e-17 * g_min:
                total *= _pairwise_product(1.0 - z / (sys.a ** k * bases))
                k += 1
            got = wh_eval(sys, z, sys.b, depth).product_value
            assert abs(got - (sys.b + z * total)) <= 1e-12 * abs(z * total)


def test_wh_eval_at_zero_is_b():
    for sys in (chebyshev_system(), golden_system()):
        ev = wh_eval(sys, 0j, 0j, 6)
        assert ev.product_value == sys.b
        assert ev.tail_bound == 0


def test_wh_eval_refuses_non_finite_z():
    sys = chebyshev_system()
    for z in (complex(math.inf, 0), complex(0, math.nan)):
        for anchor in (sys.b, 0j):
            with pytest.raises(ValidationError):
                wh_eval(sys, z, anchor, 4)


def test_wh_eval_needs_subexponential_zero_counting():
    # The ladder form requires d < |a|; the z^3 - z + 1 system has d = 3,
    # |a| = 2 and must be refused.
    sys = build_system(ComplexPolynomial((1 + 0j, -1 + 0j, 0j, 1 + 0j)), 1.0)
    with pytest.raises(OrderTooLarge):
        wh_eval(sys, 0.5 + 0j, sys.b, 8)


def test_moment_sum_shells_match_per_mask_sums():
    # Shell sums and shell noise are exactly rounded, so each must equal,
    # bit for bit, the fsum of its boolean mask, and with them the
    # extrapolation error.
    sys = golden_system()
    depth = 10
    sweep = branches.sweep_products(sys, 0j, depth)
    rel = branches.relative_error(sweep.tail_estimate, sweep.terms_used)
    for m in (1, 2, 3):
        rep = moment_sum(sys, m, 0j, depth)
        terms = ((0j - sys.b) / sweep.values) ** m
        noise = m * np.abs(terms) * rel
        running = 0j
        sums, noises = [], []
        for support, (shell, partial) in enumerate(rep.shells):
            mask = sweep.support == support
            sums.append(complex(math.fsum(terms[mask].real),
                                math.fsum(terms[mask].imag)))
            noises.append(math.fsum(noise[mask]))
            running = running + sums[-1]
            assert shell == support and partial == running
        _, error = _geometric_completion(sums, noises, sys.d * sys.a ** (-m),
                                         rep.tail_bound)
        assert rep.extrapolation_error == error


def _moment_by_sorting(sys, m, w, depth):
    """moment_sum by one stable argsort of the supports, on the same cached
    sweep: the shells are contiguous runs of the sorted terms, fsum'd run
    by run, their noise summed by reduceat, and the floor a masked minimum.
    Returns the fields of MomentReport that the shells feed."""
    sweep = _anchor_sweep(sys, w, depth)
    supp = np.full(sweep.values.size, depth, dtype=np.int16)
    for k in range(1, depth + 1):
        supp[::sys.d ** k] -= 1
    order = np.argsort(supp, kind="stable")
    edges = np.searchsorted(supp[order], np.arange(depth + 2)).tolist()
    terms = ((w - sys.b) / sweep.values[order]) ** m
    noise = np.abs(terms) * m * branches.relative_error(
        sweep.tail_estimate[order], sweep.terms_used[order])
    shell_noise = np.add.reduceat(noise, edges[:-1]).tolist()
    running, shells, sums = 0j, [], []
    for s in range(depth + 1):
        run = terms[edges[s]:edges[s + 1]]
        sums.append(complex(math.fsum(run.real), math.fsum(run.imag)))
        running = running + sums[-1]
        shells.append((s, running))
    a_abs = abs(sys.a)
    mask = supp >= 1
    floor = float(np.min(np.abs(sweep.values[mask])
                         * a_abs ** -supp[mask].astype(np.float64)))
    bound = abs(w - sys.b) ** m * branches.geometric_tail(
        floor, sys.d, a_abs, depth + 1, m)
    remainder, error = _geometric_completion(
        sums, shell_noise, sys.d * sys.a ** (-m), bound)
    return running, tuple(shells), bound, running + remainder, error


@pytest.mark.parametrize("make, depth", [
    (golden_system, 18), (chebyshev_system, 16), (cubic_system, 10),
], ids=["golden", "chebyshev", "cubic"])
def test_moment_sum_matches_sorted_reference(make, depth):
    # The shells, views of the chunks reduced as the sweep driver yields
    # them, give every field of the report bit for bit as the sorted
    # partition of the whole sweep does: golden at depth 18 spans sixteen
    # chunks.
    sys = make()
    for w in (0j, -2 + 0.5j):
        for m, rep in zip((1, 2, 3), moment_sums(sys, (1, 2, 3), w, depth)):
            got = (rep.computed_sum, rep.shells, rep.tail_bound,
                   rep.extrapolated_sum, rep.extrapolation_error)
            assert got == _moment_by_sorting(sys, m, w, depth), (w, m)


@pytest.mark.parametrize("make, depth", [
    (golden_system, 17), (cubic_system, 11),
], ids=["golden", "cubic"])
def test_moment_sums_independent_of_chunk_size(monkeypatch, make, depth):
    # Chunks of 2^10 and 2^12 leaves, the default and 2^20 (the whole
    # sweep) give every field of every report bit for bit. Cubic's chunks
    # hold whole 3^k-leaf subtrees, one or two of them, so most start off
    # the powers of 3 and cut its support shells.
    sys = make()
    runs = {}
    for leaves in (1 << 10, 1 << 12, branches.CHUNK_LEAVES, 1 << 20):
        with monkeypatch.context() as patch:
            patch.setattr(branches, "CHUNK_LEAVES", leaves)
            runs[leaves] = moment_sums(sys, (1, 2, 3), -2 + 0.5j, depth)
    default = runs[branches.CHUNK_LEAVES]
    assert all(reports == default for reports in runs.values())
    assert [rep.order_m for rep in default] == [1, 2, 3]


def test_moment_sums_hold_no_sweep():
    # The traced peak of golden's orders 1 to 3 at depth 18 (2^18
    # addresses). Holding the sweep took 16.9 MB, and each order's terms
    # and noise 15.3 MB more; the chunks take a few MB at any depth.
    sys = golden_system()
    moment_sums(sys, (1,), 0j, 2)  # certify the tail's radii untraced
    tracemalloc.start()
    try:
        moment_sums(sys, (1, 2, 3), 0j, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
