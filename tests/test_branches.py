"""Digit addresses, Viete-type products, zeros, and inverse branches."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spzeros import (
    ComplexPolynomial,
    InvalidIndices,
    NonConvergence,
    ProblemSpec,
    SigmaSequence,
    branch_labels,
    build_system,
    check_hypothesis1,
    contraction_delta,
    cross_check,
    enumerate_sigma,
    eval_f_batch,
    eval_f_direct,
    g0_and_derivative,
    growth_floor,
    inverse_branch,
    load_problem,
    moment_sum,
    principal_branch,
    sweep_products,
    sweep_solutions_at_b,
    system_from_spec,
    serialize_problem,
    tail_bound,
    wh_eval,
    zero_product,
)
from spzeros import branches, cli, factor, system
from spzeros.branches import labels_batch
from spzeros.system import unicritical_point
from spzeros.verify import chebyshev_system, cubic_system, golden_system

# First zero of the golden-ratio system, frozen from a 50-digit
# backward-orbit product run (value = -2 times the nested-radical constant
# 1.09864196439415648573466...).
GOLDEN_FIRST_ZERO = -2.1972839287883129714

# Deep-address solution of the degree-3 system at w = 0, address
# (0,0,0,0,0,1), frozen from a 60-digit backward-orbit iteration.
CUBIC_DEEP_ZERO = -9664069.6880619615722324628807 - 7099306.42653883973453098127315j

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
# (-1+0.2i) + 0.3 z^2 + z^4: not unicritical, so its inverse steps take the
# root solver, and its b and a are complex.
QUARTIC = ProblemSpec(coefficients=(-1 + 0.2j, 0j, 0.3 + 0j, 0j, 1 + 0j),
                      fixed_point_hint=1.5 + 0j, max_support=6,
                      product_tolerance=1e-12, n_cap=200,
                      root_tolerance=1e-13)
# z^2 + (-1 + 0.3i): unicritical, with complex a and t_b, so its complex
# products round by the order of their operands.
COMPLEX_QUADRATIC = ProblemSpec(coefficients=(-1 + 0.3j, 0j, 1 + 0j),
                                fixed_point_hint=1.6 + 0j, max_support=6,
                                product_tolerance=1e-12, n_cap=200,
                                root_tolerance=1e-13)
# z^3 - z + 1 (b = 1, a = 2): not unicritical, with d = 3 > |a|.
Z3 = ProblemSpec(coefficients=(1 + 0j, -1 + 0j, 0j, 1 + 0j),
                 fixed_point_hint=1 + 0j, max_support=4,
                 product_tolerance=1e-12, n_cap=200, root_tolerance=1e-10)
# 2 z^11 - 1 (b = 1, a = 22): eleven digits.
WIDE = ProblemSpec(coefficients=(-1 + 0j,) + (0j,) * 10 + (2 + 0j,),
                   fixed_point_hint=1 + 0j, max_support=2,
                   product_tolerance=1e-12, n_cap=200, root_tolerance=1e-13)


def test_sigma_sequence_canonical_form():
    s = SigmaSequence((0, 1, 2))
    assert s.support == 3
    assert s.first_nonzero() == 2  # 1-based position of the first nonzero
    assert SigmaSequence(()).support == 0
    with pytest.raises(ValueError):
        SigmaSequence((1, 0))
    assert SigmaSequence.from_digits((1, 0, 0)).digits == (1,)


def test_enumerate_sigma_counts():
    shells = {}
    for s in enumerate_sigma(2, 3):
        shells.setdefault(s.support, []).append(s)
    assert [len(shells[k]) for k in sorted(shells)] == [1, 1, 2, 4]
    total = sum(len(v) for v in shells.values())
    assert total == 2**3

    count = sum(1 for _ in enumerate_sigma(3, 2))
    assert count == 3**2


def test_enumerate_sigma_lexicographic_within_shell():
    strings = ["".join(map(str, s.digits))
               for s in enumerate_sigma(2, 3) if s.support == 3]
    assert strings == sorted(strings)


def test_branch_labels_cubic_order():
    # The three preimages of w = 2 under P = z^3 - 6 are the cube roots
    # of 8: the principal label b = 2 first, then by (re, im).
    sys = cubic_system()
    labels = branch_labels(sys, 2.0 + 0j)
    r3 = math.sqrt(3)
    want = [2.0 + 0j, -1.0 - r3 * 1j, -1.0 + r3 * 1j]
    for got, expect in zip(labels, want):
        assert abs(got - expect) <= 1e-12


def _lexsort_order(rel):
    # The tie rule written with two lexsorts, as a reference: nearest b
    # first by (|rel|, arg rel, re, im), the rest by (arg rel, re, im).
    n, d = rel.shape
    ang = np.angle(rel)
    first = np.lexsort((rel.imag, rel.real, ang, np.abs(rel)), axis=-1)[:, :1]
    by_angle = np.lexsort((rel.imag, rel.real, ang), axis=-1)
    rest = by_angle[by_angle != first].reshape(n, d - 1)
    return np.concatenate([first, rest], axis=1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_branch_order_matches_lexsort(d):
    rng = np.random.default_rng(40 + d)
    rel = rng.normal(size=(500, d)) + 1j * rng.normal(size=(500, d))
    rel[::5, 1] = np.conj(rel[::5, 0])  # a distance tie, broken by angle
    rel[1::5, 1] = rel[1::5, 0]  # a full tie, broken by column
    rel[2::5, :] = np.round(rel[2::5, :])  # ties on single keys
    rel[3::25, :] = rel[3::25, :1]  # every column tied, as at v = -kappa
    # Conjugate pairs, as the closed form gives at real v: the two members
    # tie in |rel| and the angle breaks the tie.
    rel[8::25, 1] = np.conj(rel[8::25, 0])
    rel[8::25, d - 1] = np.conj(rel[8::25, d - 2])
    rel[13::25, :] = complex("nan+nanj")
    rel[18::25, :] = np.array([np.inf, -np.inf, complex(0, np.inf),
                               complex(0, -np.inf)])[:d]
    order = branches._branch_order(rel)
    assert np.array_equal(order, _lexsort_order(rel))
    assert np.array_equal(branches._first_branch(rel), order[:, 0])


def test_principal_branch_contracts_to_fixed_point():
    rng = np.random.default_rng(61)
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        delta = contraction_delta(sys)
        assert delta > 0
        for _ in range(5):
            u = 5 * (rng.normal() + 1j * rng.normal())
            for _ in range(60):
                u = principal_branch(sys, u)
            assert abs(u - sys.b) < delta
            # one more step contracts by at least (1 + 1/|a|)/2
            nxt = principal_branch(sys, u)
            assert abs(nxt - sys.b) <= 0.51 * (1 + 1 / abs(sys.a)) * abs(u - sys.b) + 1e-15


def test_zero_product_cosine_family():
    # Zeros of cos(sqrt(-2z)) sit at -(2k-1)^2 pi^2 / 8; the first four
    # addresses in digit order are (), (1,), (1,1), (0,1).
    sys = dataclasses.replace(chebyshev_system(), product_tolerance=1e-13)
    pairs = [
        ((), -(math.pi**2) / 8),
        ((1,), -9 * math.pi**2 / 8),
        ((1, 1), -25 * math.pi**2 / 8),
        ((0, 1), -49 * math.pi**2 / 8),
    ]
    for digits, want in pairs:
        got = zero_product(sys, SigmaSequence(digits)).value
        assert abs(got - want) <= 1e-12 * abs(want)


def test_zero_product_golden_first_zero():
    sys = dataclasses.replace(golden_system(), product_tolerance=1e-13)
    got = zero_product(sys, SigmaSequence(())).value
    assert abs(got - GOLDEN_FIRST_ZERO) <= 1e-12 * abs(GOLDEN_FIRST_ZERO)


def test_zero_product_cubic_deep_address():
    sys = dataclasses.replace(cubic_system(), product_tolerance=1e-13)
    got = zero_product(sys, SigmaSequence((0, 0, 0, 0, 0, 1))).value
    assert abs(got - CUBIC_DEEP_ZERO) <= 1e-13 * abs(CUBIC_DEEP_ZERO)


def test_zero_product_rejects_bad_digits():
    sys = chebyshev_system()
    with pytest.raises(InvalidIndices):
        zero_product(sys, SigmaSequence((2,)))


def test_zero_product_reports_nonconvergence():
    # The tail of (1, 1) takes three factors, two steps and the series.
    sys = dataclasses.replace(chebyshev_system(), n_cap=2)
    with pytest.raises(NonConvergence):
        zero_product(sys, SigmaSequence((1, 1)))


def _row_index(digits, d):
    """Padded index of an address in the sweep of depth its support."""
    return sum(dig * d ** k for k, dig in enumerate(reversed(digits)))


def _is_row(product, sweep, index):
    """product is row `index` of sweep, byte for byte."""
    assert (np.array([product.value]).tobytes()
            == sweep.values[index:index + 1].tobytes())
    assert product.terms_used == sweep.terms_used[index]
    assert (np.float64(product.tail_estimate).tobytes()
            == sweep.tail_estimate[index].tobytes())
    assert product.converged and sweep.converged[index]


def test_single_products_are_sweep_rows():
    # A single product runs the sweep's kernel on a one-node array with the
    # sweep's scaling, so it is its own row in value, terms_used and
    # tail_estimate: for real and complex a and t_b, on the closed-form and
    # the root-solver route, and at w = b, where it takes the rung rule.
    for sys in (golden_system(), chebyshev_system(), cubic_system(),
                system_from_spec(COMPLEX_QUADRATIC), system_from_spec(QUARTIC)):
        top = 5 if sys.d == 2 else 3
        for w in (0j, 0.3 + 0.2j, -2 + 0j, sys.b):
            sweeps = [sweep_products(sys, w, n) for n in range(top + 1)]
            for sigma in enumerate_sigma(sys.d, top):
                sweep = sweeps[sigma.support]
                index = _row_index(sigma.digits, sys.d)
                _is_row(inverse_branch(sys, sigma, w), sweep, index)
                if w == 0:
                    _is_row(zero_product(sys, sigma), sweep, index)


def test_sweep_matches_scalar_products():
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        for w in (0j, -2.0 + 0.5j, sys.b):
            sweep = sweep_products(sys, w, 3)
            assert bool(np.all(sweep.converged))
            for pos, idx in enumerate(sweep.indices()):
                digits = sweep.digits_of(idx)
                sigma = SigmaSequence.from_digits(digits)
                want = inverse_branch(sys, sigma, w).value
                got = sweep.values[pos]
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_sweep_order_is_lexicographic():
    sys = cubic_system()
    sweep = sweep_products(sys, 0j, 3)
    strings = ["".join(map(str, sweep.digits_of(i))) for i in sweep.indices()]
    assert strings == sorted(strings)
    assert len(strings) == 3**3
    # and the address set matches the enumerator's
    assert set(strings) == {"".join(map(str, s.digits))
                            for s in enumerate_sigma(3, 3)}


def _sweeps(sys, depth):
    """An anchored, the w = b and the ladder-base sweep of sys."""
    return (sweep_products(sys, -2 + 0.5j, depth),
            sweep_products(sys, sys.b, depth),
            sweep_solutions_at_b(sys, depth))


def test_supports_match_digit_addresses():
    # The support of every row against the length of its digit string, with
    # offset 0 (anchor and w = b sweeps) and the ladder offset d^(depth - 1),
    # for d = 2, 3 and 11; it is derived from the index, not stored.
    wide = system_from_spec(WIDE)
    cases = ([(chebyshev_system(), n) for n in (1, 2, 9)]
             + [(cubic_system(), n) for n in (1, 2, 6)]
             + [(wide, n) for n in (1, 2)])
    for sys, depth in cases:
        for sweep in _sweeps(sys, depth):
            assert sweep.offset == (0 if sweep.anchor is not None
                                    else sys.d ** (depth - 1))
            want = [len(sweep.digits_of(i)) for i in sweep.indices()]
            assert sweep.support.dtype == np.int16
            assert sweep.support.tolist() == want
    assert "support" not in {f.name for f in dataclasses.fields(sweep)}


def _support_by_valuation(j, d, depth):
    """Support of padded index j: depth less the power of d dividing j,
    and 0 for j = 0."""
    if j == 0:
        return 0
    zeros = 0
    while j % d == 0:
        j //= d
        zeros += 1
    return depth - zeros


def _chunk(d, depth, offset, values):
    """A BranchSweep of the given values over indices from offset."""
    size = values.size
    return branches.BranchSweep(
        depth=depth, d=d, anchor=0j, offset=offset, values=values,
        terms_used=np.zeros(size, dtype=np.int64),
        tail_estimate=np.zeros(size), converged=np.ones(size, bool))


@pytest.mark.parametrize("d, depth", [(2, 8), (3, 5), (11, 3)])
def test_shells_at_any_offset_match_valuation(d, depth):
    # Index ranges from any offset, as the chunks of a sweep hold them:
    # every row's support is the one its d-adic valuation gives, and the
    # length of its digit string.
    rng = np.random.default_rng(d)
    total = d ** depth
    ranges = [(0, total), (0, 1), (1, total - 1), (total - 1, 1),
              (total // d, total - total // d), (d, 0)]
    for _ in range(60):
        offset = int(rng.integers(0, total))
        ranges.append((offset, int(rng.integers(0, total - offset + 1))))
    for offset, size in ranges:
        chunk = _chunk(d, depth, offset, np.zeros(size, dtype=np.complex128))
        idx = range(offset, offset + size)
        supp = chunk.support
        assert supp.dtype == np.int16
        assert supp.tolist() == [
            _support_by_valuation(j, d, depth) for j in idx], (offset, size)
        assert supp.tolist() == [len(chunk.digits_of(j)) for j in idx]


def _support_by_digits(sweep):
    """Support of every row, from the base-d digits of its padded index,
    least significant first: depth less the run of trailing zero digits."""
    j = sweep.indices()
    supp = np.full(j.size, sweep.depth)
    trailing = np.ones(j.size, dtype=bool)
    for _ in range(sweep.depth):
        j, digit = np.divmod(j, sweep.d)
        trailing &= digit == 0
        supp -= trailing
    return supp


def _floor_by_masks(sweep, a_abs):
    """growth_floor by masks over the support of every row: min |value|
    |a|^-support over support >= 1, the supports from the index digits."""
    supp = _support_by_digits(sweep)
    mask = supp >= 1
    scaled = np.abs(sweep.values[mask]) * a_abs ** (-supp[mask]
                                                   .astype(np.float64))
    return float(scaled.min())


@pytest.mark.parametrize("make, top", [
    (chebyshev_system, 8), (golden_system, 8), (cubic_system, 8),
    (lambda: system_from_spec(QUARTIC), 6), (lambda: system_from_spec(Z3), 8),
], ids=["chebyshev", "golden", "cubic", "quartic", "z3-z+1"])
def test_growth_floor_matches_masked_reference(make, top):
    # Per-shell minima scaled by |a|^-s are the masked minimum, bit for
    # bit, on anchored, w = b and ladder sweeps. The quartic's root solver
    # stops at 4^6 rows.
    sys = make()
    for depth in (1, 2, 5, top):
        for sweep in _sweeps(sys, depth):
            got = growth_floor(sweep, abs(sys.a))
            assert got == _floor_by_masks(sweep, abs(sys.a)), (depth, sweep)


def test_growth_floor_matches_masked_reference_over_chunks():
    # Golden at depth 18: sixteen chunks of the sweep driver.
    sys = golden_system()
    sweep = sweep_products(sys, 0j, 18)
    assert growth_floor(sweep, abs(sys.a)) == _floor_by_masks(sweep,
                                                              abs(sys.a))


def test_growth_floor_edge_cases():
    # By hand at d = 2, depth 3, supports 0 3 2 3 1 3 2 3: index 0 (support
    # 0, the value 0 of a w = b sweep) never enters the floor, whatever its
    # value, and a nan anywhere else makes the floor nan.
    a_abs = 1.5
    values = np.array([0, 4, 2j, -5, 1 + 1j, 4, 7, 4 + 4j])
    sweep = _chunk(2, 3, 0, values)
    assert sweep.support.tolist() == [0, 3, 2, 3, 1, 3, 2, 3]
    want = min(abs(v) * a_abs ** -float(s)
               for v, s in zip(values[1:], sweep.support[1:]))
    assert growth_floor(sweep, a_abs) == want == 2 * a_abs ** -2.0
    for at_zero in (np.nan, 1e-300):
        first = values.copy()
        first[0] = at_zero
        assert growth_floor(_chunk(2, 3, 0, first), a_abs) == want
    for j in range(1, values.size):
        spoiled = values.copy()
        spoiled[j] = complex(np.nan, 0)
        assert np.isnan(growth_floor(_chunk(2, 3, 0, spoiled), a_abs)), j
    assert growth_floor(_chunk(2, 3, 0, values[:1]), a_abs) == np.inf


def test_growth_floor_of_chunks_cut_inside_runs():
    # Cubic at depth 6 (d = 3) cut at offsets off the multiples of 3: the
    # least of the chunks' floors, taken with np.minimum, is the held
    # sweep's floor bit for bit, in any order.
    sys = cubic_system()
    a_abs = abs(sys.a)
    for sweep in _sweeps(sys, 6):
        held = growth_floor(sweep, a_abs)
        rng = np.random.default_rng(3)
        cuts = np.unique(np.concatenate([
            [1, 2, 4, 3 ** 5 + 1],
            rng.integers(1, sweep.values.size, 20)]))
        cuts = cuts[cuts < sweep.values.size]
        assert np.any((cuts + sweep.offset) % 3)
        floors = [growth_floor(_chunk(3, 6, sweep.offset + lo,
                                      sweep.values[lo:hi]), a_abs)
                  for lo, hi in zip([0, *cuts], [*cuts, sweep.values.size])]
        least = np.inf
        for floor in floors[::-1]:
            least = np.minimum(least, floor)
        assert least == held == min(floors)


def test_solutions_at_fixed_point_ladder():
    # At w = b the solution set is a geometric ladder: multiplying a
    # depth-K base by a gives the depth-(K+1) value whose address gains a
    # leading zero.
    sys = golden_system()
    k1 = sweep_solutions_at_b(sys, 1)
    k2 = sweep_solutions_at_b(sys, 2)
    assert k1.values.shape == (1,)
    assert k2.values.shape == (2,)
    # address (1,) lifted to (0,1): value scales by a exactly
    lifted = inverse_branch(sys, SigmaSequence((0, 1)), sys.b).value
    assert abs(lifted - sys.a * k1.values[0]) <= 1e-12 * abs(lifted)
    # every ladder point really solves f(z) = b
    pts = np.concatenate([k1.values, k2.values])
    back = eval_f_batch(sys, pts)
    assert float(np.max(np.abs(back - sys.b))) <= 1e-9


def _ladder_table(sys, depth):
    """The w = b table rung by rung: index segment [d^(K-1), d^K) is the
    depth-K ladder sweep times a^(depth-K), index 0 the solution 0."""
    d = sys.d
    values = np.zeros(d ** depth, dtype=np.complex128)
    terms = np.zeros(d ** depth, dtype=np.int64)
    est = np.zeros(d ** depth)
    conv = np.ones(d ** depth, dtype=bool)
    for K in range(1, depth + 1):
        rung = sweep_solutions_at_b(sys, K)
        lo, hi = d ** (K - 1), d ** K
        values[lo:hi] = sys.a ** (depth - K) * rung.values
        terms[lo:hi] = rung.terms_used
        est[lo:hi] = rung.tail_estimate
        conv[lo:hi] = rung.converged
    return values, terms, est, conv


@pytest.mark.parametrize("problem, depth", [
    ("chebyshev2.json", None), ("chebyshev2.json", 18),
    ("golden.json", None), ("golden.json", 18),
    ("cubic6.json", None), ("cubic6.json", 12),
    pytest.param(QUARTIC, None, id="quartic"),
    pytest.param(COMPLEX_QUADRATIC, None, id="complex-quadratic"),
    pytest.param(COMPLEX_QUADRATIC, 16, id="complex-quadratic-16"),
])
def test_sweep_at_b_matches_ladder_rungs(problem, depth):
    # One sweep from v = 0 holds every depth-K ladder sweep, bit for bit:
    # at the problem's own depth and at depths of several chunks.
    spec = (problem if isinstance(problem, ProblemSpec)
            else load_problem(PROBLEMS / problem))
    sys = system_from_spec(spec)
    depth = depth or spec.max_support
    sweep = sweep_products(sys, sys.b, depth)
    values, terms, est, conv = _ladder_table(sys, depth)
    assert sweep.anchor == sys.b and sweep.offset == 0
    assert np.array_equal(sweep.values.view(np.float64),
                          values.view(np.float64))
    assert np.array_equal(sweep.terms_used, terms)
    assert np.array_equal(sweep.tail_estimate, est)
    assert np.array_equal(sweep.converged, conv)


def test_sweep_at_b_chebyshev_oracle():
    # f(z) = cos(sqrt(-2z)) = 1 exactly at z = -2 pi^2 k^2, a double
    # solution for k >= 1, since f' vanishes there. At depth 12 the table
    # holds 0, k = 1 .. 2047 twice each, and k = 2048 once.
    sys = chebyshev_system()
    sweep = sweep_products(sys, 1.0, 12)
    assert sweep.values[0] == 0
    g = sweep.values[1:]
    k = np.rint(np.sqrt(np.abs(g) / (2 * math.pi ** 2))).astype(np.int64)
    exact = -2 * math.pi ** 2 * k.astype(np.float64) ** 2
    assert float(np.max(np.abs(g - exact) / np.abs(exact))) <= 1e-12
    counts = np.bincount(k, minlength=2049)
    assert counts[0] == 0
    assert np.all(counts[1:2048] == 2) and counts[2048] == 1
    assert counts.size == 2049


def test_inverse_branch_at_b_zero_address():
    sys = golden_system()
    bp = inverse_branch(sys, SigmaSequence(()), sys.b)
    assert bp.value == 0
    assert bp.converged


def test_roundtrip_small_support():
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        sweep = sweep_products(sys, -2.0 + 0j, 4)
        back = eval_f_batch(sys, sweep.values)
        assert float(np.max(np.abs(back - (-2.0)))) <= 1e-8


def test_g0_derivative_against_finite_difference():
    sys = golden_system()
    w = 0.3 + 0.1j
    g, dg = g0_and_derivative(sys, w)
    h = 1e-6
    gp, _ = g0_and_derivative(sys, w + h)
    gm, _ = g0_and_derivative(sys, w - h)
    fd = (gp - gm) / (2 * h)
    assert abs(g - inverse_branch(sys, SigmaSequence(()), w).value) <= 1e-12 * abs(g)
    assert abs(dg - fd) <= 1e-6 * abs(dg)


def test_hypothesis_probe_passes_on_examples():
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        rep = check_hypothesis1(sys)
        assert rep.passed
        assert rep.converged_points == rep.sampled_points == 64


def _probe_grid(radius, count):
    # The probe's grid: `count` points on min(8, count) circles of radii
    # radius * i / circles, the odd circles turned by half a spacing.
    circles = min(8, count)
    base, extra = divmod(count, circles)
    pts = []
    for i in range(1, circles + 1):
        m = base + (1 if i <= extra else 0)
        pts += [radius * i / circles * np.exp(2j * np.pi * (k + 0.5 * (i % 2))
                                              / m) for k in range(m)]
    return pts


def _scalar_orbit_length(sys, z, cap):
    # Principal steps by principal_branch, one point at a time, until
    # |u - b| < contraction_delta; None when cap steps do not get there.
    delta = contraction_delta(sys)
    u = complex(z)
    for steps in range(cap + 1):
        if abs(u - sys.b) < delta:
            return steps
        u = principal_branch(sys, u)
    return None


def test_hypothesis_orbit_lengths_match_scalar_walk():
    grid = _probe_grid(10.0, 64)
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        lengths = [_scalar_orbit_length(sys, z, 100) for z in grid]
        rep = check_hypothesis1(sys)
        assert rep.passed and None not in lengths
        assert rep.max_orbit_length == max(lengths) >= 2
        assert rep.worst_point == grid[lengths.index(max(lengths))]


def test_hypothesis_probe_reports_unconverged_orbits(monkeypatch):
    sys = chebyshev_system()
    grid = _probe_grid(10.0, 64)
    lengths = [_scalar_orbit_length(sys, z, 1) for z in grid]
    assert None in lengths and lengths.count(None) < len(grid)
    monkeypatch.setattr(branches, "HYPOTHESIS_ORBIT_CAP", 1)
    rep = check_hypothesis1(sys)
    assert not rep.passed
    assert rep.sampled_points == 64
    assert rep.converged_points == 64 - lengths.count(None)
    assert rep.worst_point == grid[lengths.index(None)]
    assert rep.max_orbit_length == max(n for n in lengths if n is not None)
    assert rep.max_orbit_length <= 1


def test_growth_floor_positive_and_stable():
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        sweep = sweep_products(sys, 0j, 5)
        a_abs = abs(sys.a)
        assert growth_floor(sweep, a_abs) > 0
        per_level = {}
        for s in range(1, 6):
            mask = sweep.support == s
            per_level[s] = float(
                np.min(np.abs(sweep.values[mask])) * a_abs**-s)
        vals = [per_level[s] for s in range(3, 6)]
        assert min(vals) > 0
        assert max(vals) / min(vals) < 10


def _same_bits(one, two):
    for name in ("values", "terms_used", "tail_estimate", "converged"):
        assert np.array_equal(getattr(one, name).view(np.uint8),
                              getattr(two, name).view(np.uint8)), name


def _in_chunks(monkeypatch, leaves, run):
    """run() with the sweeps' chunks set to `leaves` leaves."""
    with monkeypatch.context() as m:
        m.setattr(branches, "CHUNK_LEAVES", leaves)
        return run()


def test_sweep_independent_of_chunk_size(monkeypatch):
    # Golden's anchored and w = b sweeps at depth 17 and its ladder sweep
    # at depth 18 span eight default chunks each, cubic's at depth 11
    # fourteen, and those of z^2 + (-1 + 0.3i), whose a and t_b are
    # complex, at depth 16 two to four. Chunks of 2^12 leaves split them
    # further and chunks of 2^20 hold each whole, with the same bits. In
    # one-leaf chunks every product of the kernel runs on a one-element
    # array, with the same bits too.
    golden, cubic = golden_system(), cubic_system()
    quad = system_from_spec(COMPLEX_QUADRATIC)
    runs = (lambda: sweep_products(golden, -2 + 0.5j, 17),
            lambda: sweep_products(golden, golden.b, 17),
            lambda: sweep_solutions_at_b(golden, 18),
            lambda: sweep_products(cubic, 0j, 11),
            lambda: sweep_products(quad, 0.3 + 0.2j, 16),
            lambda: sweep_products(quad, quad.b, 16),
            lambda: sweep_solutions_at_b(quad, 16))
    for run in runs:
        default = run()
        assert default.values.size > branches.CHUNK_LEAVES
        for leaves in (1 << 12, 1 << 20):
            _same_bits(_in_chunks(monkeypatch, leaves, run), default)
    for sys, depth in ((golden, 10), (cubic, 6), (quad, 10)):
        one_leaf = _in_chunks(monkeypatch, 1, lambda: _sweeps(sys, depth))
        for one, default in zip(one_leaf, _sweeps(sys, depth)):
            _same_bits(one, default)


def test_leaf_chunks_start_where_the_last_ended(monkeypatch):
    # Each chunk of _sweep_chunks starts where the last one ended, and the
    # chunks hold every row of the sweep. In chunks of 2^11 leaves, cubic's
    # anchored sweep at depth 9 holds two 3^6-leaf subtrees a chunk, so the
    # offsets are off the powers of 3; golden's sweep at b and its ladder
    # sweep, whose one seed is the digit-1 child of b and whose rows start
    # at offset d^(N-1), hold 2^11 leaves a chunk.
    cubic, golden = cubic_system(), golden_system()
    cases = ((cubic, 0j, 9, 0, 2 * 3 ** 6),
             (golden, golden.b, 12, 0, 1 << 11),
             (golden, None, 13, 1 << 12, 1 << 11))
    for sys, w, depth, offset, size in cases:
        chunks = _in_chunks(monkeypatch, 1 << 11, lambda: [
            (chunk.offset, chunk.values.size) for chunk in
            branches._sweep_chunks(sys, w, depth)])
        end = sys.d ** depth
        assert [start for start, _ in chunks] == list(range(offset, end, size))
        assert [n for _, n in chunks] == [min(size, end - start)
                                          for start, _ in chunks]


def test_sweep_products_joins_its_chunks_in_place():
    # The traced peak of golden's depth-18 sweep at w = 0, whose four
    # arrays hold 7.6 MB: joining a list of chunks took twice that, the
    # chunks and their copy at once. Written in place, only one chunk's
    # working memory comes on top, about half as much again.
    sys = golden_system()
    sweep_products(sys, 0j, 2)  # certify the tail's radii untraced
    tracemalloc.start()
    try:
        sweep = sweep_products(sys, 0j, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = (sweep.values.nbytes + sweep.terms_used.nbytes
            + sweep.tail_estimate.nbytes + sweep.converged.nbytes)
    assert peak <= 1.6 * held, (peak, held)


def test_sweep_kernel_working_memory():
    # The traced peak of one chunk of golden's depth-18 sweep at w = 0: its
    # 2^14-leaf subtree expanded over 14 levels, then its tails, output
    # (29 B per leaf) included. Stacking both roots, ordering and gathering
    # them and copying the tail's leaves took 196.6 B per leaf.
    sys = golden_system()
    sweep_products(sys, 0j, 2)  # certify the tail's radii untraced
    v = np.array([-sys.b])
    for _ in range(4):
        v = branches._expand_level(sys, v)
    v = v[:1].copy()
    tracemalloc.start()
    try:
        for _ in range(14):
            v = branches._expand_level(sys, v)
        branches._tail_products(sys, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.size == branches.CHUNK_LEAVES
    assert peak <= 128 * v.size, peak / v.size


def test_general_sweep_independent_of_chunk_size(monkeypatch):
    # The root-solver route in chunks far smaller than its sweeps: Chebyshev
    # at depth 10 in 16 chunks of 2^6 leaves, whose rows are still its exact
    # zeros -((2k+1) pi)^2 / 8, one k each, and the quartic at depth 7 in 16
    # chunks of 2^10.
    sys = _general(chebyshev_system())
    run = lambda: sweep_products(sys, 0j, 10)
    default = run()
    _same_bits(_in_chunks(monkeypatch, 1 << 6, run), default)
    k = np.rint((np.sqrt(-8 * default.values.real) / np.pi - 1) / 2)
    want = -((2 * k + 1) * np.pi) ** 2 / 8
    assert np.unique(k).size == default.values.size == 2 ** 10
    assert np.max(np.abs(default.values - want) / np.abs(want)) <= 1e-12
    quartic = system_from_spec(QUARTIC)
    run = lambda: sweep_products(quartic, 0j, 7)
    _same_bits(_in_chunks(monkeypatch, 1 << 10, run), run())


def test_eval_agrees_with_product_zero():
    # f really vanishes at the product-computed zeros.
    for sys in (chebyshev_system(), golden_system()):
        fine = dataclasses.replace(sys, product_tolerance=1e-13)
        z0 = zero_product(fine, SigmaSequence((1,))).value
        assert abs(eval_f_direct(sys, z0)) <= 1e-8


# Oracle tests for the scalar API: Chebyshev closed forms, not the sweep.
# f(z) = cos(sqrt(-2z)) solves f(z) = w exactly at z = -(+-acos w + 2 pi k)^2/2.


def _general(sys):
    """sys with its unicritical detection dropped, so that it runs the
    route of any other P: Aberth children, the v / Q quotient and the
    root-solver fallback of the tail."""
    return dataclasses.replace(sys, crit=None, kappa=None, t_b=None)


def _chebyshev_zero_oracle(sys):
    ks = []
    for sigma in enumerate_sigma(2, 6):
        got = zero_product(sys, sigma).value
        k = round((math.sqrt(-8 * got.real) / math.pi - 1) / 2)
        want = -((2 * k + 1) * math.pi) ** 2 / 8
        assert abs(got - want) <= 1e-12 * abs(want), (sigma, got, want)
        ks.append(k)
    assert sorted(ks) == list(range(64))


def test_zero_product_chebyshev_oracle_support_six():
    _chebyshev_zero_oracle(chebyshev_system())


@pytest.mark.parametrize("w", [-0.5, 0.3 + 0.2j, 5 - 2j])
def test_inverse_branch_chebyshev_oracle_support_four(w):
    sys = chebyshev_system()
    root = np.arccos(complex(w))
    exact = [-(s * root + 2 * math.pi * k) ** 2 / 2
             for k in range(-20, 21) for s in (1, -1)]
    matched = set()
    for sigma in enumerate_sigma(2, 4):
        got = inverse_branch(sys, sigma, w).value
        j = min(range(len(exact)), key=lambda i: abs(exact[i] - got))
        assert abs(got - exact[j]) <= 1e-12 * abs(exact[j]), (sigma, got)
        matched.add(j)
    assert len(matched) == 16


@pytest.mark.parametrize("w", [-0.5, 0.3 + 0.2j, 5 - 2j])
def test_g0_and_derivative_chebyshev_oracle(w):
    sys = chebyshev_system()
    root = np.arccos(complex(w))
    g, dg = g0_and_derivative(sys, w)
    want_g = -root ** 2 / 2
    want_dg = root / np.sqrt(1 - complex(w) ** 2)
    assert abs(g - want_g) <= 1e-12 * abs(want_g)
    assert abs(dg - want_dg) <= 1e-12 * abs(want_dg)


def test_n_cap_caps_tail_factors():
    # n_cap caps a product's tail factors, its digit prefix aside, in a
    # sweep row and a single product alike: at every cap the single product
    # converges exactly when its row does, and then it is that row. A long
    # prefix takes no factor of the cap.
    sys = chebyshev_system()
    for digits in ((1, 1), (0, 0, 1), ()):
        tail = zero_product(sys, digits).terms_used - len(digits)
        index = _row_index(digits, 2)
        for n_cap in range(1, tail + 2):
            capped = dataclasses.replace(sys, n_cap=n_cap)
            sweep = sweep_products(capped, 0j, len(digits))
            assert sweep.converged[index] == (n_cap >= tail)
            if n_cap >= tail:
                _is_row(zero_product(capped, digits), sweep, index)
            else:
                with pytest.raises(NonConvergence):
                    zero_product(capped, digits)
    assert zero_product(golden_system(), (1,) * 199).converged


# The principal step against an independent reference: b and the Taylor
# coefficients of V(x) = P(b + x) - b are rebuilt at 30 digits from P and
# the fixed-point hint alone, and V(x) = v is solved there by Newton.
STEP_SYSTEMS = (
    ((-1, 0, 2), 1.0),
    ((-1, 0, 1), 1.6),
    ((-6, 0, 0, 1), 2.0),
    ((-1 + 0.2j, 0, 0.3, 0, 1), 1.5),  # complex a
)


def _reference_inverse(coeffs, hint, vs):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        c = [mpmath.mpc(complex(x)) for x in coeffs]
        fixed = c[:]
        fixed[1] -= 1
        roots = mpmath.polyroots(fixed[::-1], maxsteps=200, extraprec=60)
        b = min(roots, key=lambda r: abs(r - hint))
        deg = len(c) - 1
        vc = [mpmath.mpc(0)] + [
            sum(c[i] * mpmath.binomial(i, j) * b ** (i - j)
                for i in range(j, deg + 1))
            for j in range(1, deg + 1)]
        dvc = [j * vc[j] for j in range(1, deg + 1)]
        out = []
        for v in vs:
            v = mpmath.mpc(complex(v))
            x = v / vc[1]
            for _ in range(100):
                step = (mpmath.polyval(vc[::-1], x) - v) / mpmath.polyval(
                    dvc[::-1], x)
                x -= step
                if abs(step) <= mpmath.mpf(10) ** -28 * abs(x):
                    break
            out.append(complex(x))
    return np.array(out)


def _log_spread_deviations(rng, count, top):
    mag = 10.0 ** rng.uniform(-300.0, math.log10(top), count)
    return mag * np.exp(2j * np.pi * rng.uniform(size=count))


@pytest.mark.parametrize("coeffs,hint", STEP_SYSTEMS)
def test_principal_step_matches_reference_newton(coeffs, hint):
    sys = build_system(ComplexPolynomial(coeffs), hint)
    delta = contraction_delta(sys)
    v = _log_spread_deviations(np.random.default_rng(71), 300, 0.49 * delta)
    x = branches._principal_step(sys, v)
    want = _reference_inverse(coeffs, hint, v)
    assert np.all(np.abs(x) < np.abs(v))
    assert np.all(np.abs(x - want) <= 1e-14 * np.abs(want))
    _, bad = branches._conjugate_newton(sys, v)
    assert not bad.any()


def _root_solver_route(sys, v):
    u = labels_batch(sys, sys.b + v)[:, 0]
    return v / sys.Q.eval_array(u)


def _flag_every_point_bad(monkeypatch):
    newton = branches._conjugate_newton
    monkeypatch.setattr(branches, "_conjugate_newton", lambda s, v: (
        newton(s, v)[0], np.ones(v.size, dtype=bool)))


@pytest.mark.parametrize("coeffs,hint", STEP_SYSTEMS)
def test_principal_step_root_solver_route(coeffs, hint, monkeypatch):
    sys = _general(build_system(ComplexPolynomial(coeffs), hint))
    delta = contraction_delta(sys)
    rng = np.random.default_rng(72)
    far = rng.uniform(0.5 * delta, 3.0, 50) * np.exp(
        2j * np.pi * rng.uniform(size=50))
    assert np.array_equal(branches._principal_step(sys, far),
                          _root_solver_route(sys, far))

    _flag_every_point_bad(monkeypatch)
    near = rng.uniform(0.0, 0.49 * delta, 50) * np.exp(
        2j * np.pi * rng.uniform(size=50))
    v = np.concatenate([near, far])
    assert np.array_equal(branches._principal_step(sys, v),
                          _root_solver_route(sys, v))


UNICRITICAL_STEP_SYSTEMS = [
    pytest.param(coeffs, hint, id=f"coeffs{i}-{hint}")
    for i, (coeffs, hint) in enumerate(STEP_SYSTEMS)
    if unicritical_point(ComplexPolynomial(coeffs)) is not None]


@pytest.mark.parametrize("coeffs,hint", UNICRITICAL_STEP_SYSTEMS)
def test_principal_step_closed_form_route(coeffs, hint, monkeypatch):
    # Beyond delta/2, and where Newton is flagged, a unicritical P steps by
    # the principal column of the closed form instead of the root solver.
    sys = build_system(ComplexPolynomial(coeffs), hint)
    delta = contraction_delta(sys)
    rng = np.random.default_rng(73)
    far = rng.uniform(0.5 * delta, 3.0, 50) * np.exp(
        2j * np.pi * rng.uniform(size=50))
    closed = lambda v: branches._closed_children(sys, v)[:, 0]  # noqa: E731
    assert np.array_equal(branches._principal_step(sys, far),
                          closed(far))
    near = _log_spread_deviations(rng, 50, 0.49 * delta)
    want = _reference_inverse(coeffs, hint, near)
    assert np.all(np.abs(closed(near) - want) <= 1e-14 * np.abs(want))

    _flag_every_point_bad(monkeypatch)
    v = np.concatenate([near, far, _tie_rows(sys)])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(branches._principal_step(sys, v),
                              closed(v), equal_nan=True)
    # The reference's lexsort sorts NaN keys as equal, the tie rule never
    # lets a NaN key decide, so the orders are compared on finite rows.
    rel = branches._closed_roots(sys, v[np.isfinite(v)]) - sys.t_b
    assert np.array_equal(branches._branch_order(rel), _lexsort_order(rel))


def _tie_rows(sys):
    # Deviations whose closed-form roots tie in |root - t_b|: at v = -kappa
    # every root is the critical point; at real v < -kappa the quadratic
    # roots are +-i y and the cubic's two complex roots are conjugate, each
    # pair tied and broken by angle. The last two rows are not finite.
    return np.array([-sys.kappa, -sys.kappa - 0.5, -sys.kappa - 3.0,
                     -4.0 * sys.kappa, complex("nan+nanj"), np.inf],
                    dtype=np.complex128)


def _general_quadratic_root(sys, v):
    # Both roots from _dth_roots, the principal one picked by the lexsort
    # reference of the tie rule: none of _quadratic_root's sign rule.
    s = branches._dth_roots((v + sys.kappa) / sys.P.coefficients[-1], 2)
    return s[np.arange(v.size), _lexsort_order(s - sys.t_b)[:, 0]]


def _band_edge_rows(sys):
    # Deviations whose root s is perpendicular to t_b, or turned off it by
    # 1e-17 to 1e-12 rad either way, at |s| from 1e-3 to 1e3 times |t_b|;
    # and the np.nextafter neighbours of each part of every one.
    turn = np.concatenate([[0.0], np.logspace(-17, -12, 11),
                           -np.logspace(-17, -12, 11)])
    s = 1j * sys.t_b * np.outer(np.logspace(-3, 3, 13), np.exp(1j * turn))
    v = (sys.P.coefficients[-1] * s * s - sys.kappa).ravel()
    rows = [v]
    for toward in (-np.inf, np.inf):
        rows.append(np.nextafter(v.real, toward) + 1j * v.imag)
        rows.append(v.real + 1j * np.nextafter(v.imag, toward))
    return np.concatenate(rows)


@pytest.mark.parametrize("make", [
    golden_system, chebyshev_system,
    # z^2 + (-1 + 0.3i): complex b and t_b.
    lambda: build_system(ComplexPolynomial((-1 + 0.3j, 0, 1)), 1.6)],
    ids=["golden", "chebyshev2", "complex"])
def test_quadratic_root_matches_the_general_tie_rule(make, monkeypatch):
    # The one-root rule of d = 2 against both roots ordered by the lexsort
    # reference, bit for bit: on log-spread rows, the tie rows, rows at the
    # edge of the rounding band and rows that are not finite. Some rows, not
    # all, fall in the band and take _first_branch.
    sys = make()
    rng = np.random.default_rng(74)
    v = np.concatenate([
        _log_spread_deviations(rng, 300, 1e6) - sys.kappa,
        _log_spread_deviations(rng, 300, 1e3),
        _tie_rows(sys), _band_edge_rows(sys),
        np.array([-np.inf, complex(0, np.inf), complex(np.inf, -np.inf),
                  complex(1, np.nan), complex(np.nan, 0)])])
    banded = []
    first_branch = branches._first_branch
    with np.errstate(invalid="ignore", over="ignore"):
        want = _general_quadratic_root(sys, v)
        with monkeypatch.context() as m:
            m.setattr(branches, "_first_branch", lambda rel: (
                banded.append(len(rel)), first_branch(rel))[1])
            got = branches._quadratic_root(sys, v)
        kids = branches._closed_children(sys, v)
        quotient = branches._principal_quotient(sys, v, want.copy())
        principal = branches._closed_principal(sys, v)
    assert 0 < sum(banded) < v.size
    finite = np.isfinite(want)
    assert np.array_equal(got[finite].view(np.uint8),
                          want[finite].view(np.uint8))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(kids[:, 1], -want - sys.t_b, equal_nan=True)
    assert np.array_equal(kids[:, 0], quotient, equal_nan=True)
    assert np.array_equal(principal, quotient, equal_nan=True)


def test_root_tolerance_reaches_every_root_solve(monkeypatch):
    # The problem file's root_tolerance is set once on the system; every
    # root solve of a P that is not unicritical must use it, the
    # contraction ball's certification included.
    spec = ProblemSpec(coefficients=(-1 + 0.2j, 0j, 0.3 + 0j, 0j, 1 + 0j),
                       fixed_point_hint=1.5 + 0j, max_support=3,
                       product_tolerance=1e-12, n_cap=200,
                       root_tolerance=1e-9)
    sys = system_from_spec(spec)
    assert sys.crit is None and sys.root_tolerance == 1e-9
    seen = []
    solve = branches.roots_batch

    def recording(p, w, tolerance):
        seen.append(tolerance)
        return solve(p, w, tolerance)

    monkeypatch.setattr(branches, "roots_batch", recording)
    runs = {
        "contraction_delta": lambda: contraction_delta.__wrapped__(sys),
        "sweep_products": lambda: sweep_products(sys, 0j, 2),
        "sweep_solutions_at_b": lambda: sweep_solutions_at_b(sys, 2),
        "check_hypothesis1": lambda: check_hypothesis1(sys),
        "zero_product": lambda: zero_product(sys, (1,)),
        "tail_bound": lambda: tail_bound(sys, 4, 2),
    }
    for name, run in runs.items():
        seen.clear()
        run()
        assert seen and set(seen) == {1e-9}, (name, seen)


def test_product_settings_reach_every_product(monkeypatch, tmp_path):
    # The problem file's product_tolerance and n_cap are set once on the
    # system; every tail must stop at them and every evaluation of f must
    # converge at the product tolerance, the CLI's --tol included.
    spec = ProblemSpec(coefficients=(-1 + 0j, 0j, 2 + 0j),
                       fixed_point_hint=1 + 0j, max_support=3,
                       product_tolerance=1e-9, n_cap=50,
                       root_tolerance=1e-13)
    sys = system_from_spec(spec)
    assert (sys.product_tolerance, sys.n_cap) == (1e-9, 50)
    path = tmp_path / "problem.json"
    path.write_text(serialize_problem(
        dataclasses.replace(spec, product_tolerance=1e-12)))
    seen = []
    tails = branches._tail_products
    evaluate = system._eval_f_with_slope

    def tail_recording(sys_, v):
        seen.append(("tail", sys_.product_tolerance, sys_.n_cap))
        return tails(sys_, v)

    def eval_recording(sys_, z):
        # The evaluator reads only the tolerance (its depth cap is a
        # constant); n_cap is recorded to show it was given this system.
        seen.append(("eval", sys_.product_tolerance, sys_.n_cap))
        return evaluate(sys_, z)

    monkeypatch.setattr(branches, "_tail_products", tail_recording)
    for module in (system, branches, cli):
        monkeypatch.setattr(module, "_eval_f_with_slope", eval_recording)
    runs = {
        "sweep_products": lambda: sweep_products(sys, 0j, 2),
        "sweep_solutions_at_b": lambda: sweep_solutions_at_b(sys, 2),
        "zero_product": lambda: zero_product(sys, ()),
        "inverse_branch": lambda: inverse_branch(sys, (), 0.5),
        "g0_and_derivative": lambda: g0_and_derivative(sys, 0.5),
        "tail_bound": lambda: tail_bound(sys, 4, 2),
        "moment_sum": lambda: moment_sum(sys, 2, 0j, 2),
        "wh_eval": lambda: wh_eval(sys, 0.5, 0j, 2),
        "cross_check": lambda: cross_check(sys, [0.5, -1j], 2),
        "check": lambda: cli.main(["check", str(path), "--max-support", "3",
                                   "--tol", "1e-9",
                                   "-o", str(tmp_path / "check.txt")]),
    }
    evaluating = {"g0_and_derivative", "cross_check", "check"}
    caches = [f for f in vars(factor).values() if hasattr(f, "cache_clear")]
    assert {"_anchor_sweep", "_anchor_floor",
            "_ladder_sums"} <= {f.__name__ for f in caches}
    for name, run in runs.items():
        for cached in caches:
            cached.cache_clear()
        seen.clear()
        run()
        kinds = {kind for kind, *_ in seen}
        assert kinds == {"tail"} | ({"eval"} if name in evaluating else set())
        assert {tuple(rest) for _, *rest in seen} == {(1e-9, 50)}, (name, seen)


def test_zero_product_chebyshev_oracle_on_root_solver_route(monkeypatch):
    # Every route must give the exact zeros: the general one, and the
    # fallbacks alone, which keep the rounding error relative to v where
    # u - b would not.
    _chebyshev_zero_oracle(_general(chebyshev_system()))
    _flag_every_point_bad(monkeypatch)
    _chebyshev_zero_oracle(chebyshev_system())
    _chebyshev_zero_oracle(_general(chebyshev_system()))


# Oracles for the closed-form branches of unicritical P.


def _mp_golden_walk(digits, steps=80):
    """g_sigma(0) of the golden system by a 60-digit orbit walk.

    Each step takes the roots +-sqrt(u + 1) of z^2 - 1 = u in labels_batch's
    order: the root nearest b first, ties by the smaller arg(root - b), then
    by (re, im). After the digits, `steps` principal steps leave a^n (u_n - b)
    within 1e-30 of the limit.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        b = (1 + mpmath.sqrt(5)) / 2
        key = lambda z: (abs(z - b), mpmath.arg(z - b), z.real, z.imag)
        u = mpmath.mpc(0)
        for dig in list(digits) + [0] * steps:
            r = mpmath.sqrt(u + 1)
            first = min((r, -r), key=key)
            u = first if dig == 0 else (-r if first is r else r)
        return complex((2 * b) ** (len(digits) + steps) * (u - b))


def test_golden_zeros_match_mpmath_walk():
    sys = golden_system()
    sweep = sweep_products(sys, 0j, 5)
    for pos, idx in enumerate(sweep.indices()):
        digits = sweep.digits_of(idx)
        want = _mp_golden_walk(digits)
        assert abs(sweep.values[pos] - want) <= 1e-12 * abs(want), digits


def test_golden_zeros_self_similar():
    # P^{-1}(-1) = {0, 0} and -1 is the digit-1 child of 0, so the orbit of
    # the address (1, j, tau) returns to 0 after two steps for j = 0, 1:
    # g_(1,j,tau)(0) = a^2 g_tau(0). At depth N, tau padded to N - 2 digits
    # has index t, (1, j, tau) has 2^(N-1) + j 2^(N-2) + t, and tau padded
    # to N digits has 4 t.
    sys = golden_system()
    depth = 12
    values = sweep_products(sys, 0j, depth).values
    t = np.arange(2 ** (depth - 2))
    want = sys.a ** 2 * values[4 * t]
    for j in (0, 1):
        got = values[2 ** (depth - 1) + j * 2 ** (depth - 2) + t]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_golden_zeros_coincide_or_separate():
    # Multiple zeros must coincide to rounding, not split at the
    # (1e-13)^(1/k) level of a residual-stopped root solver.
    values = sweep_products(golden_system(), 0j, 8).values
    i, j = np.triu_indices(values.size, 1)
    rel = np.abs(values[i] - values[j]) / np.maximum(np.abs(values[i]),
                                                     np.abs(values[j]))
    assert not np.any((rel > 1e-13) & (rel < 1e-6))


def test_chebyshev_critical_anchor_oracle():
    # w = -1 is a critical value of f(z) = cos(sqrt(-2z)): every solution
    # -((2k + 1) pi)^2 / 2 is double, reached by two addresses.
    sys = chebyshev_system()
    sweep = sweep_products(sys, -1.0, 10)
    k = np.round((np.sqrt(-2.0 * sweep.values.real) / math.pi - 1) / 2)
    want = -((2 * k + 1) * math.pi) ** 2 / 2
    assert np.all(np.abs(sweep.values - want) <= 1e-12 * np.abs(want))
    assert np.array_equal(np.bincount(k.astype(np.int64)),
                          np.full(512, 2))


# The principal tail of Chebyshev in deviations is its Koenigs linearizer,
# known exactly: L(v) = g_0(1 + v) = -arccos(1 + v)^2 / 2.
def _chebyshev_linearizer(mpmath, v):
    return -mpmath.acos(1 + v) ** 2 / 2


def test_koenigs_coefficients_match_chebyshev_oracle():
    mpmath = pytest.importorskip("mpmath")
    ell = branches._koenigs_data(chebyshev_system())[0]
    assert ell.size == branches.KOENIGS_ORDER
    with mpmath.workdps(30):
        want = mpmath.taylor(lambda v: _chebyshev_linearizer(mpmath, v), 0,
                             branches.KOENIGS_ORDER)
    for m, got in enumerate(ell, start=1):
        ref = complex(want[m])
        assert abs(got - ref) <= 1e-13 * abs(ref), m


def test_koenigs_sample_matches_chebyshev_oracle():
    # kappa delta = C, the maximum of |L| on the DELTA_CIRCLE points of
    # |v| = delta, each reached by its principal orbit and a^k.
    mpmath = pytest.importorskip("mpmath")
    sys = chebyshev_system()
    delta = contraction_delta(sys)
    _, kappa, _ = branches._koenigs_data(sys)
    circle = branches.DELTA_CIRCLE
    v = delta * np.exp(2j * np.pi * np.arange(circle) / circle)
    with mpmath.workdps(30):
        exact = max(abs(complex(_chebyshev_linearizer(mpmath, mpmath.mpc(x))))
                    for x in v.tolist())
    assert abs(kappa * delta - exact) <= 1e-14 * exact


def test_series_truncation_bound_holds_on_chebyshev_oracle():
    # At tol 1e-8 the series is entered at a radius where the bound, not
    # the rounding, sets tail_estimate; on that circle the truncated series
    # must stay within tail_estimate |L(v)| of the exact L(v).
    mpmath = pytest.importorskip("mpmath")
    tol = 1e-8
    sys = dataclasses.replace(chebyshev_system(), product_tolerance=tol)
    _, kappa, r_s = branches._koenigs_data(sys)
    assert 0.0 < r_s < 0.5 * contraction_delta(sys)
    v = r_s * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    est = float(branches._series_bound(kappa, contraction_delta(sys), r_s))
    assert 0.0 < est <= tol
    # A leaf just inside the circle takes the series at once: one factor,
    # with the bound at its own radius as tail_estimate.
    inner = v * (1.0 - 1e-9)
    with mpmath.workdps(30):
        exact, exact_inner = (
            np.array([complex(_chebyshev_linearizer(mpmath, mpmath.mpc(x)))
                      for x in pts.tolist()]) for pts in (v, inner))
    series = v * branches._series(branches._koenigs_data(sys)[0], v)
    assert np.all(np.abs(series - exact) <= est * np.abs(exact))
    tail, steps, tail_est, conv = branches._tail_products(sys, inner)
    assert conv.all() and np.all(steps == 1) and np.all(tail_est <= est)
    assert np.all(np.abs(tail - exact_inner) <= tail_est * np.abs(exact_inner))
