"""float_fields against format(x, ".17g") on every kind of double."""

import math

import numpy as np

from spzeros import fields
from spzeros.fields import FLOAT_WIDTH, digit_fields, float_fields


def text_rows(block):
    newline = np.full((block.shape[0], 1), ord("\n"), dtype=np.uint8)
    text = np.concatenate([block, newline], axis=1).tobytes()
    return text.translate(None, b"\0").decode("ascii").split("\n")[:-1]


def rendered(x):
    block = float_fields(x)
    assert block.shape == (x.size, FLOAT_WIDTH) and block.dtype == np.uint8
    return text_rows(block)


def reference(x):
    return [format(v, ".17g") for v in x.tolist()]


def test_random_bit_patterns():
    # Uniform bit patterns cover every binary exponent about 150 times,
    # subnormals, nans and infinities included.
    rng = np.random.default_rng(20191)
    x = rng.integers(0, 2 ** 64, 300_000, dtype=np.uint64).view(np.float64)
    assert rendered(x) == reference(x)


def test_powers_of_two_and_ten():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    x = np.concatenate([twos, tens, np.nextafter(tens, 0.0),
                        np.nextafter(tens, math.inf)])
    x = np.concatenate([x, -x])
    assert rendered(x) == reference(x)


def test_edges_of_the_notation():
    # 2^-25 and 43 * 2^-22 lie exactly halfway between two 17-digit
    # decimals and round to even, down and up; 1e-5/1e-4 and 1e16/1e17
    # switch between fixed and scientific notation; 99999999999999999.0 is
    # 1e17 rounded to 17 digits.
    x = np.array([2.0 ** -25, 43 * 2.0 ** -22, 1e-5, 1e-4, 1e16, 1e17,
                  99999999999999999.0, 0.0, -0.0, math.nan, math.inf, -math.inf,
                  np.finfo(np.float64).max, np.finfo(np.float64).tiny,
                  np.finfo(np.float64).smallest_subnormal, 0.1, -1.5])
    with np.errstate(over="ignore"):
        x = np.concatenate([x, np.nextafter(x, 0.0),
                            np.nextafter(x, math.inf)])
    assert rendered(x) == reference(x)
    assert rendered(x[[0, 1, 6]]) == \
        ["2.9802322387695312e-08", "1.0251998901367188e-05", "1e+17"]


def test_format_prints_only_ties_and_non_finite_values(monkeypatch):
    # 1e-305 is a double just below 10^-305 whose 17 digits round up to
    # 10^17, a carry into the next exponent: the array path prints it.
    called = []

    def counted(value, spec):
        called.append(value)
        return format(value, spec)

    monkeypatch.setattr(fields, "format", counted, raising=False)
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.standard_normal(1000) * 1e5, [0.0, -0.0, 1e-305],
                        [2.0 ** -25, math.nan, -math.inf]])
    assert rendered(x) == reference(x)
    assert called[:1] == [2.0 ** -25] and len(called) == 3


def test_digit_fields_of_short_addresses():
    # Depths 0 to 2, where the quotes and commas of d > 10 start.
    for d in (2, 10, 11, 300):
        for depth in range(3):
            idx = np.arange(d ** depth, dtype=np.int64)
            expected = []
            for i in idx.tolist():
                digits = [i // d ** j % d for j in range(depth - 1, -1, -1)]
                while digits and digits[-1] == 0:
                    digits.pop()
                text = ("," if d > 10 else "").join(map(str, digits))
                expected.append(f'"{text}"' if len(digits) >= 2 and d > 10
                                else text)
            block = digit_fields(idx, d, depth)
            assert block.dtype == np.uint8
            assert text_rows(block) == expected
