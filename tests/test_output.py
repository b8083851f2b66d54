"""Block CSV writer of `zeros` and `invert` against a per-row reference."""

import csv
import io
import math

import numpy as np
import pytest

from spzeros.branches import BranchSweep
from spzeros.cli import BLOCK_ROWS, _write_rows

SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e-300, 0.1]


def synthetic_sweep(d, depth, offset, size=None, seed=0):
    """A BranchSweep of made-up values over padded indices from `offset`."""
    rng = np.random.default_rng(seed)
    if size is None:
        size = d ** depth - offset
    assert offset + size <= d ** depth
    re = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    im = rng.standard_normal(size)
    est = rng.random(size) * 1e-12
    for k, x in enumerate(SPECIAL):
        if k < size:
            re[k], im[-1 - k], est[(3 * k) % size] = x, x, abs(x)
    values = np.empty(size, dtype=np.complex128)
    values.real, values.imag = re, im
    return BranchSweep(
        depth=depth, d=d, anchor=0j, offset=offset, values=values,
        terms_used=rng.integers(0, 300, size),
        tail_estimate=est,
        converged=rng.random(size) < 0.7)


def reference_rows(sweep, w=None, pref=None, flags=False):
    """The rows as the per-row writer printed them: digits_of, csv.writer
    and format(x, ".17g") for every float."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    sep = "" if sweep.d <= 10 else ","
    for pos, idx in enumerate(sweep.indices()):
        value = sweep.values[pos]
        row = [sep.join(str(v) for v in sweep.digits_of(idx))]
        if w is not None:
            row += [format(w.real, ".17g"), format(w.imag, ".17g")]
        row += [format(float(value.real), ".17g"),
                format(float(value.imag), ".17g"),
                str(int(sweep.terms_used[pos])),
                format(float(sweep.tail_estimate[pos]), ".17g")]
        if pref is not None:
            row.append(pref[pos])
        if flags:
            row.append("true" if sweep.converged[pos] else "false")
        writer.writerow(row)
    return buf.getvalue()


def ladder_prefactors(sweep):
    """invert's prefactor_exponent column of a w = b table, counted from
    the digits: leading zeros plus one, empty for the all-zero address."""
    column = []
    for idx in sweep.indices():
        digits = sweep.digits_of(idx)
        zeros = next((k for k, v in enumerate(digits) if v), None)
        column.append("" if zeros is None else str(zeros + 1))
    return column


def block_rows(sweep, **kwargs):
    buf = io.StringIO()
    _write_rows(buf, sweep, **kwargs)
    return buf.getvalue()


def parsed_digits(field, d):
    if d <= 10:
        return tuple(int(c) for c in field)
    return tuple(int(p) for p in field.split(",")) if field else ()


SWEEPS = [(2, 0, 0), (2, 5, 16), (3, 4, 27), (11, 3, 0), (16, 2, 16)]


@pytest.mark.parametrize("d,depth,offset", SWEEPS)
@pytest.mark.parametrize("flags", [False, True])
def test_zeros_rows_match_reference(d, depth, offset, flags):
    sweep = synthetic_sweep(d, depth, offset)
    text = block_rows(sweep, flags=flags)
    assert text == reference_rows(sweep, flags=flags)
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == sweep.values.size
    assert [parsed_digits(r[0], d) for r in rows] == \
        [sweep.digits_of(i) for i in sweep.indices()]
    assert all(len(r) == 5 + flags for r in rows)


@pytest.mark.parametrize("d,depth,offset", SWEEPS)
@pytest.mark.parametrize("w", [complex(-0.0, 5e-324), complex(2.0, -1e300)])
def test_invert_rows_match_reference(d, depth, offset, w):
    sweep = synthetic_sweep(d, depth, offset, seed=1)
    pref = ladder_prefactors(sweep)
    text = block_rows(sweep, w=w, at_b=True, flags=True)
    assert text == reference_rows(sweep, w=w, pref=pref, flags=True)
    rows = list(csv.reader(io.StringIO(text)))
    assert [parsed_digits(r[0], d) for r in rows] == \
        [sweep.digits_of(i) for i in sweep.indices()]
    assert [r[7] for r in rows] == pref
    # Away from w = b the prefactor field is empty.
    empty = [""] * sweep.values.size
    text = block_rows(sweep, w=w, flags=True)
    assert text == reference_rows(sweep, w=w, pref=empty, flags=True)
    assert [r[7] for r in csv.reader(io.StringIO(text))] == empty


def test_rows_cross_a_block_boundary():
    depth = math.ceil(math.log(BLOCK_ROWS + 1 + 5, 3))
    sweep = synthetic_sweep(3, depth, 5, size=BLOCK_ROWS + 1, seed=2)
    assert block_rows(sweep, flags=True) == reference_rows(sweep, flags=True)
    w = complex(math.inf, -0.0)
    text = block_rows(sweep, w=w, at_b=True)
    assert text == reference_rows(sweep, w=w, pref=ladder_prefactors(sweep))
    assert text.count("\n") == BLOCK_ROWS + 1
