"""Strict problem-file parsing, serialization, and validation."""

import math
from pathlib import Path

import pytest

from spzeros import (
    ParseError,
    ValidationError,
    load_problem,
    parse_problem,
    serialize_problem,
    system_from_spec,
)
from spzeros.problemfile import check_enumeration_size

GOLDEN_TEXT = """
{
  "coefficients": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
  "fixed_point_hint": [1.6, 0.0],
  "max_support": 12,
  "product_tolerance": 1e-12,
  "n_cap": 200,
  "root_tolerance": 1e-13
}
"""


def _base():
    return parse_problem(GOLDEN_TEXT)


def test_parse_valid_problem():
    spec = _base()
    assert spec.degree == 2
    assert spec.coefficients == (-1 + 0j, 0j, 1 + 0j)
    assert spec.fixed_point_hint == 1.6 + 0j
    assert spec.max_support == 12
    assert spec.n_cap == 200


def test_serialize_parse_identity():
    spec = _base()
    again = parse_problem(serialize_problem(spec))
    assert again == spec
    # and a second round trip is byte-stable
    assert serialize_problem(again) == serialize_problem(spec)


def test_parse_accepts_bytes():
    assert parse_problem(GOLDEN_TEXT.encode()) == _base()


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_problem('{"coefficients": [[1, 0],\n  broken')
    assert err.value.line == 2
    assert err.value.column is not None


def test_rejects_non_object():
    with pytest.raises(ValidationError):
        parse_problem("[1, 2, 3]")


def test_rejects_unknown_key():
    text = GOLDEN_TEXT.replace('"n_cap": 200,', '"n_cap": 200, "ncap": 1,')
    with pytest.raises(ValidationError, match="unknown key"):
        parse_problem(text)


def test_rejects_missing_key():
    text = GOLDEN_TEXT.replace('  "n_cap": 200,\n', "")
    with pytest.raises(ValidationError, match="missing key: n_cap"):
        parse_problem(text)


def test_rejects_short_coefficient_list():
    text = GOLDEN_TEXT.replace("[[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]",
                               "[[-1.0, 0.0], [1.0, 0.0]]")
    with pytest.raises(ValidationError, match="at least 3"):
        parse_problem(text)


def test_rejects_zero_leading_coefficient():
    text = GOLDEN_TEXT.replace("[[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]",
                               "[[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]")
    with pytest.raises(ValidationError, match="highest-degree"):
        parse_problem(text)


def test_rejects_malformed_pair():
    text = GOLDEN_TEXT.replace("[1.6, 0.0]", "[1.6]")
    with pytest.raises(ValidationError, match="re, im"):
        parse_problem(text)
    text = GOLDEN_TEXT.replace("[1.6, 0.0]", '[1.6, "x"]')
    with pytest.raises(ValidationError):
        parse_problem(text)


def test_rejects_bad_max_support():
    for bad in ("-1", "25", "3.5", "true"):
        text = GOLDEN_TEXT.replace('"max_support": 12', f'"max_support": {bad}')
        with pytest.raises(ValidationError):
            parse_problem(text)


def test_rejects_oversized_enumeration():
    # degree 3 at depth 16 gives 3^16 > 2^24 leaves: refused at parse time.
    text = GOLDEN_TEXT.replace("[[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]",
                               "[[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]")
    with pytest.raises(ValidationError, match="2\\^24"):
        parse_problem(text.replace('"max_support": 12', '"max_support": 16'))
    assert 3**16 > 2**24 and 3**15 <= 2**24
    spec = parse_problem(text.replace('"max_support": 12',
                                      '"max_support": 15'))
    assert spec.max_support == 15


def test_enumeration_bound_counts_every_table():
    # invert --circle R,K holds K tables of d^N rows at once.
    check_enumeration_size(2, 22, tables=4)
    with pytest.raises(ValidationError, match="5 x 2\\^22 exceeds 2\\^24"):
        check_enumeration_size(2, 22, tables=5)


def test_rejects_bad_tolerances_and_cap():
    for key, bad in (("product_tolerance", "0"), ("product_tolerance", "-1e-9"),
                     ("root_tolerance", "0"), ("n_cap", "0"), ("n_cap", "7.5")):
        if key == "product_tolerance":
            text = GOLDEN_TEXT.replace('"product_tolerance": 1e-12',
                                       f'"product_tolerance": {bad}')
        elif key == "root_tolerance":
            text = GOLDEN_TEXT.replace('"root_tolerance": 1e-13',
                                       f'"root_tolerance": {bad}')
        else:
            text = GOLDEN_TEXT.replace('"n_cap": 200', f'"n_cap": {bad}')
        with pytest.raises(ValidationError):
            parse_problem(text)


@pytest.mark.parametrize("old, new", [
    ('"product_tolerance": 1e-12', '"product_tolerance": NaN'),
    ('"product_tolerance": 1e-12', '"product_tolerance": Infinity'),
    ('"root_tolerance": 1e-13', '"root_tolerance": Infinity'),
    ('"root_tolerance": 1e-13', '"root_tolerance": 1' + "0" * 400),
    ("[1.6, 0.0]", "[Infinity, 0]"),
    ("[1.6, 0.0]", "[1.6, NaN]"),
    ("[-1.0, 0.0], [0.0, 0.0]", "[-Infinity, 0.0], [0.0, 0.0]"),
])
def test_rejects_nonfinite_numbers(old, new):
    # json.loads takes NaN and +-Infinity, and an integer literal past the
    # float range; none of them is a usable problem value.
    assert old in GOLDEN_TEXT
    with pytest.raises(ValidationError, match="finite"):
        parse_problem(GOLDEN_TEXT.replace(old, new))


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_load_and_build_shipped_problems():
    phi = (1 + math.sqrt(5)) / 2
    spec = load_problem(PROBLEMS / "golden.json")
    sys = system_from_spec(spec)
    assert abs(sys.b - phi) <= 1e-14
    assert abs(sys.a - 2 * phi) <= 1e-13

    spec = load_problem(PROBLEMS / "chebyshev2.json")
    sys = system_from_spec(spec)
    assert abs(sys.b - 1) <= 1e-14 and abs(sys.a - 4) <= 1e-13

    spec = load_problem(PROBLEMS / "cubic6.json")
    sys = system_from_spec(spec)
    assert abs(sys.b - 2) <= 1e-14 and abs(sys.a - 12) <= 1e-12
