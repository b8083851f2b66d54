"""Cross-checking helpers: oracles, clustering, and the three-route report."""

import cmath

import numpy as np
import pytest

from spzeros import (
    AmbiguousClustering,
    ValidationError,
    cluster_zeros,
    cross_check,
    eval_f_direct,
    oracle_chebyshev,
    sweep_products,
)
from spzeros.verify import chebyshev_system, cubic_system, golden_system


def test_oracle_chebyshev_is_the_cosine():
    assert abs(oracle_chebyshev(0j) - 1) <= 1e-15
    z = -(cmath.pi**2) / 8
    assert abs(oracle_chebyshev(z)) <= 1e-15
    sys = chebyshev_system()
    rng = np.random.default_rng(83)
    for _ in range(20):
        z = 2 * (rng.normal() + 1j * rng.normal())
        assert abs(oracle_chebyshev(z) - eval_f_direct(sys, z)) <= 1e-10


def test_oracle_chebyshev_at_large_argument():
    # The power series summed in double precision cancels to
    # 7.5e9+5.55e10i here; the reference is cos(sqrt(-2z)) in 40-digit
    # arithmetic (mpmath).
    exact = 795.450080242221 + 999.228644337208j
    assert abs(oracle_chebyshev(-2000 + 500j) - exact) <= 1e-13 * abs(exact)


def test_cluster_zeros_groups_coincident_addresses():
    pairs = [("a", 1.0 + 0j), ("b", 1.0 + 1e-12j), ("c", 5.0 + 0j)]
    clusters = cluster_zeros(pairs, 1e-9)
    sizes = sorted(c.multiplicity for c in clusters)
    assert sizes == [1, 2]
    big = next(c for c in clusters if c.multiplicity == 2)
    assert set(big.members) == {"a", "b"}


def test_cluster_zeros_reports_ambiguity():
    pairs = [("a", 0j), ("b", 3e-9 + 0j)]
    with pytest.raises(AmbiguousClustering):
        cluster_zeros(pairs, 1e-9)


def test_golden_sweep_has_collapsed_address_pairs():
    # The golden system's critical orbit is the 2-cycle {0, -1}, so branch
    # steps can pass through a double root and distinct addresses collapse
    # onto the same zero. A 60-digit walk of every address at support <= 5,
    # under labels_batch's tie rule, finds six multiple zeros: the real
    # double zero near -23.0102560 of (1,) ~ (1,1), two real fourfold zeros
    # near -240.97 and -2523.43, and three double zeros off the real axis,
    # near -693.52 +- 419.74i and -2163.40 - 1541.17i.
    # The closed-form branches pass the critical value exactly, so each
    # cluster coincides to rounding.
    sys = golden_system()
    sweep = sweep_products(sys, 0j, 5)
    pairs = [("".join(map(str, sweep.digits_of(i))), sweep.values[pos])
             for pos, i in enumerate(sweep.indices())]
    clusters = cluster_zeros(pairs, 1e-4)
    multis = {frozenset(c.members): c for c in clusters if c.multiplicity > 1}
    assert frozenset({"1", "11"}) in multis
    double = multis[frozenset({"1", "11"})]
    assert abs(double.center - (-23.010256034)) <= 1e-6
    sizes = sorted(c.multiplicity for c in multis.values())
    assert sizes == [2, 2, 2, 2, 4, 4]
    for c in multis.values():
        assert c.diameter <= 1e-14 * abs(c.center)


def test_cross_check_reports_agreement():
    rng = np.random.default_rng(89)
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        samples = rng.normal(size=4) + 1j * rng.normal(size=4)
        report = cross_check(sys, samples, 10)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.max_deviation <= 1e-6 + row.claimed_budget
        assert report.worst_roundtrip <= 1e-7


def test_cross_check_route_not_finite_is_nan():
    # At z = -1e8 both product routes overflow to nan. Every comparison
    # with nan is false, so max over the pairs would report 0 and max over
    # the rows would drop a nan after a finite row: both keep the nan.
    report = cross_check(chebyshev_system(), [0.5, -1e8], 8, roundtrip=False)
    finite, overflow = report.rows
    assert finite.max_deviation <= 1e-6 + finite.claimed_budget
    assert cmath.isnan(overflow.product_anchored)
    assert np.isnan(overflow.max_deviation)
    assert np.isnan(report.worst_deviation)


@pytest.mark.parametrize("make_system", [chebyshev_system, golden_system])
def test_cross_check_without_roundtrip(make_system):
    # Without the round trip only the direct route's batch shrinks: its
    # depth steps follow the batch, so direct moves by a few ulps at most,
    # and the product routes keep their bits.
    sys = make_system()
    rng = np.random.default_rng(13)
    samples = 3 * rng.normal(size=6) + 3j * rng.normal(size=6)
    full = cross_check(sys, samples, 8)
    bare = cross_check(sys, samples, 8, roundtrip=False)
    assert full.roundtrips != ()
    assert bare.roundtrips == ()
    assert bare.worst_roundtrip == 0.0
    assert len(bare.rows) == len(full.rows) == 6
    for row, ref in zip(bare.rows, full.rows):
        assert row.z == ref.z
        assert row.product_anchored == ref.product_anchored
        assert row.product_ladder == ref.product_ladder
        assert row.claimed_budget == ref.claimed_budget
        assert abs(row.direct - ref.direct) <= 2.0 ** -50 * abs(ref.direct)
        if make_system is chebyshev_system:
            assert abs(row.direct - oracle_chebyshev(row.z)) <= 1e-11


def test_cross_check_round_trips_the_fixed_point():
    # A sample at b is an anchor like any other: its table holds 0 and the
    # ladder solutions, and each solves f(z) = b.
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        report = cross_check(sys, [sys.b, 0.5j], 6, products=False)
        assert [w for w, _ in report.roundtrips] == [sys.b, 0.5j]
        assert report.worst_roundtrip <= 1e-7


def test_cross_check_refuses_an_anchor_at_b():
    # At b the anchored route would be the ladder route again, whose bound
    # claimed_budget would then count twice. Without the product routes an
    # anchor at b runs no anchored route, and the call goes through.
    for sys in (chebyshev_system(), golden_system(), cubic_system()):
        with pytest.raises(ValidationError, match="away from the fixed point"):
            cross_check(sys, [0.5], 6, anchor=sys.b)
        report = cross_check(sys, [0.5], 6, anchor=sys.b, products=False)
        assert report.rows == ()
