import math

import numpy as np
import pytest

from spzeros.exactsum import ExactSums


KINDS = ["cancel", "subnormal", "huge", "normal", "mixed"]


def _fsums(keys, values, nkeys):
    return [math.fsum(values[keys == k]) for k in range(nkeys)]


def _random_values(rng, n, kind):
    """n doubles of one hard kind: wide exponents with exact cancellation,
    subnormals, magnitudes near 1e300, plain normal draws, or all four."""
    if kind == "cancel":
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        return np.concatenate([x, -x[: n // 2], [1e-300, -1e-300]])
    if kind == "subnormal":
        return rng.standard_normal(n) * 2.0 ** -1060
    if kind == "huge":
        return rng.uniform(-1.0, 1.0, n) * 1e300
    if kind == "mixed":
        return np.concatenate([_random_values(rng, n, k) for k in
                               ("cancel", "subnormal", "huge", "normal")])
    return rng.standard_normal(n)


@pytest.mark.parametrize("kind", KINDS)
def test_matches_fsum_in_one_call(kind):
    rng = np.random.default_rng(20)
    for _ in range(25):
        x = _random_values(rng, int(rng.integers(1, 2000)), kind)
        acc = ExactSums(1)
        acc.add(np.zeros(x.size, dtype=np.intp), x)
        assert acc.sums() == [math.fsum(x)]


@pytest.mark.parametrize("kind", KINDS)
def test_matches_fsum_across_calls_and_keys(kind):
    # The same values under five keys, split at random into one to five
    # calls: each key's sum is its fsum whatever the split.
    rng = np.random.default_rng(21)
    for _ in range(25):
        x = _random_values(rng, int(rng.integers(1, 2000)), kind)
        keys = rng.integers(0, 5, x.size)
        cuts = np.sort(rng.integers(0, x.size + 1, rng.integers(0, 5)))
        acc = ExactSums(5)
        for part_keys, part in zip(np.split(keys, cuts), np.split(x, cuts)):
            acc.add(part_keys, part)
        assert acc.sums() == _fsums(keys, x, 5)


def test_order_of_values_moves_no_bit():
    rng = np.random.default_rng(22)
    x = _random_values(rng, 3000, "cancel")
    keys = rng.integers(0, 3, x.size)
    one, two = ExactSums(3), ExactSums(3)
    one.add(keys, x)
    perm = rng.permutation(x.size)
    two.add(keys[perm], x[perm])
    assert one.sums() == two.sums() == _fsums(keys, x, 3)


def test_zeros_and_signed_zeros():
    groups = [[0.0, 0.0], [-0.0, -0.0], [-0.0], [0.0, -0.0]]
    acc = ExactSums(len(groups))
    for k, group in enumerate(groups):
        acc.add([k] * len(group), group)
    for got, group in zip(acc.sums(), groups):
        want = math.fsum(group)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_key_without_values_sums_to_zero():
    acc = ExactSums(4)
    acc.add([1, 3], [2.5, -1e-310])
    acc.add(np.array([], dtype=np.intp), np.array([]))
    assert acc.sums() == [0.0, 2.5, 0.0, -1e-310]


def test_two_dimensional_views_add_row_major():
    # A complex array viewed as pairs of doubles, keyed 2 s + part: the
    # layout moment_sums hands over.
    rng = np.random.default_rng(23)
    z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    shell = rng.integers(0, 4, z.size)
    keys = 2 * shell[:, None] + np.arange(2)
    acc = ExactSums(8)
    acc.add(keys, z.view(np.float64))
    want = []
    for s in range(4):
        want += [math.fsum(z[shell == s].real), math.fsum(z[shell == s].imag)]
    assert acc.sums() == want


def test_non_finite_values_sum_as_floats():
    acc = ExactSums(3)
    acc.add([0, 0, 1, 1, 2], [1.0, math.inf, math.inf, -math.inf, math.nan])
    total, cancelled, missing = acc.sums()
    assert total == math.inf
    assert math.isnan(cancelled) and math.isnan(missing)
