"""Correctness checks for the benchmark's CLI outputs, made apart from spzeros.

Each check takes the CSV text a subcommand wrote, compares it with answers
computed here (exact Chebyshev zeros, hard-coded closed-form momenta,
cos(sqrt(-2z)) in mpmath) and returns ``(failures, notes)``: a list of
failure messages, empty when the output is right, and a dict of figures
worth printing. Nothing here imports spzeros, so a fault in the program
cannot hide in its own check.
"""

import csv
import io
import math

import mpmath
import numpy as np

# zeros-chebyshev: every zero within this relative distance of
# -((2k+1) pi)^2 / 8. The worst row sits at 3.9e-12 at depth 16 and 5.4e-12
# at depth 17 (zeros whose orbits pass near the critical point of P); a 1e-9
# error must fail.
ZERO_REL_BAR = 1e-10
# moments-golden: the program's own slack on the final partial sum
# (MOMENT_SLACK in spzeros.cli), and the floor of the shell-by-shell bar.
# Product rounding leaves about 2e-13 on m = 2, 3.
MOMENT_SLACK = 1e-8
MOMENT_FLOOR = 1e-11
# Band for the m = 1 cumulative-error ratios, shells 12..N (d/|a| = 0.618).
RATIO_BAND = (0.4, 0.8)
RATIO_FIRST_SHELL = 12
# wh-chebyshev: slack on each route's claimed budget, and the bar for the
# direct-iteration route, which is accurate to the product tolerance.
WH_SLACK = 1e-6
WH_DIRECT_BAR = 1e-11


def _rows(text, header):
    reader = csv.reader(io.StringIO(text))
    first = next(reader, None)
    if first != header:
        raise ValueError(f"unexpected header {first!r}")
    return list(reader)


def _complex_column(rows, re_col, im_col):
    return np.array([float(r[re_col]) for r in rows]) \
        + 1j * np.array([float(r[im_col]) for r in rows])


def _address_failures(sigmas, d, depth, label):
    """Every address of support <= depth exactly once, in canonical form.

    A canonical digit string padded with zeros to `depth` digits and read
    in base d is the address's index in [0, d^depth).
    """
    try:
        index = [int(s.ljust(depth, "0"), d) for s in sigmas
                 if len(s) <= depth and not s.endswith("0")]
    except ValueError:
        return [f"{label}: a digit string is not in base {d}"]
    if len(index) != len(sigmas):
        return [f"{label}: an address is longer than {depth} digits or "
                "has a trailing zero"]
    counts = np.bincount(index, minlength=d ** depth)
    if counts.size != d ** depth or np.any(counts != 1):
        return [f"{label}: {len(sigmas)} rows do not hold every address of "
                f"support <= {depth} exactly once"]
    return []


def check_zeros_chebyshev(text, depth):
    """Zeros of f(z) = cos(sqrt(-2z)): -((2k+1) pi)^2 / 8, k = 0 .. 2^N - 1.

    Every row maps to k through sqrt(-2g); the k must be exactly
    {0, ..., 2^N - 1}, each once, and every row must lie within
    ZERO_REL_BAR of its exact zero.
    """
    rows = _rows(text, ["sigma", "re", "im", "terms_used", "tail_estimate"])
    failures = _address_failures([r[0] for r in rows], 2, depth, "zeros")
    count = 2 ** depth
    g = _complex_column(rows, 1, 2)
    est = np.array([float(r[4]) for r in rows])
    half_turns = np.sqrt(-2.0 * g).real / (math.pi / 2.0)
    k = np.rint((half_turns - 1.0) / 2.0).astype(np.int64)
    if k.size and (k.min() < 0 or k.max() >= count):
        failures.append(f"zeros: k out of [0, {count}) "
                        f"({k.min()} .. {k.max()})")
    elif np.any(np.bincount(k, minlength=count) != 1):
        failures.append("zeros: the rows do not map one-to-one onto "
                        f"k = 0 .. {count - 1}")
    exact = -((2 * k + 1) * math.pi) ** 2 / 8.0
    rel = np.abs(g - exact) / np.abs(exact)
    worst = int(np.argmax(rel)) if rel.size else 0
    if rel.size and not rel[worst] <= ZERO_REL_BAR:
        failures.append(f"zeros: row {rows[worst][0]!r} relative error "
                        f"{rel[worst]:.3e} > {ZERO_REL_BAR:.0e}")
    notes = {
        "worst_rel_error": float(rel[worst]) if rel.size else 0.0,
        "worst_row": rows[worst][0] if rel.size else "",
        "rows_over_tail_estimate": int(np.sum(rel > est)),
    }
    return failures, notes


def golden_closed_forms():
    """p_1, p_2, p_3 for P(z) = z^2 - 1 at w = 0 (derived in README.md)."""
    return {1: 1.0, 2: 1.0 - 1.0 / math.sqrt(5.0), 3: 0.4}


def check_moments_golden(text, depth, orders):
    """Partial sums of ((w - b)/g)^m at w = 0 against the closed forms."""
    rows = _rows(text, ["m", "shell", "partial_re", "partial_im", "closed_re",
                        "closed_im", "abs_error", "tail_bound"])
    closed = golden_closed_forms()
    d, a_abs = 2, 1.0 + math.sqrt(5.0)
    failures = []
    notes = {}
    for m in orders:
        block = [r for r in rows if r[0] == str(m)]
        if [r[1] for r in block] != [str(s) for s in range(depth + 1)]:
            failures.append(f"m={m}: shells are not 0..{depth}, once each")
            continue
        partial = _complex_column(block, 2, 3)
        printed_closed = _complex_column(block, 4, 5)
        bound = float(block[-1][7])
        err = np.abs(partial - closed[m])
        if not np.all(np.abs(printed_closed - closed[m])
                      <= 1e-12 * abs(closed[m])):
            failures.append(f"m={m}: printed closed form differs from "
                            f"{closed[m]!r}")
        if not err[-1] <= bound + MOMENT_SLACK:
            failures.append(f"m={m}: final error {err[-1]:.3e} > tail_bound "
                            f"{bound:.3e} + {MOMENT_SLACK:.0e}")
        # The tail beyond shell s is bounded by the same geometric series
        # as the printed tail_bound, started q^(s - N) earlier.
        q = d / a_abs ** m
        shell_bar = bound * q ** (np.arange(depth + 1) - depth) + MOMENT_FLOOR
        over = np.flatnonzero(~(err <= shell_bar))
        if over.size:
            s = int(over[0])
            failures.append(f"m={m}: shell {s} error {err[s]:.3e} > "
                            f"{shell_bar[s]:.3e}")
        notes[f"m{m}_final_error"] = float(err[-1])
        if m == 1:
            ratios = err[RATIO_FIRST_SHELL:] / err[RATIO_FIRST_SHELL - 1:-1]
            lo, hi = RATIO_BAND
            if ratios.size == 0 or not np.all((ratios >= lo) & (ratios <= hi)):
                failures.append(f"m=1: error ratios {ratios} leave "
                                f"[{lo}, {hi}]")
            else:
                notes["m1_ratio_range"] = [float(ratios.min()),
                                           float(ratios.max())]
    return failures, notes


def check_wh_chebyshev(text, points):
    """Three routes to f(z) = cos(sqrt(-2z)) at the requested points."""
    rows = _rows(text, ["z_re", "z_im", "limit_re", "limit_im", "anchored_re",
                        "anchored_im", "ladder_re", "ladder_im",
                        "max_deviation", "claimed_budget"])
    z = _complex_column(rows, 0, 1)
    if z.size != len(points) or np.any(z != np.asarray(points)):
        return [f"wh: {z.size} rows do not match the {len(points)} "
                "requested points in order"], {}
    failures = []
    worst_direct = 0.0
    worst_excess = -math.inf
    with mpmath.workdps(30):
        exact = np.array([complex(mpmath.cos(mpmath.sqrt(-2 * mpmath.mpc(p))))
                          for p in points])
    budget = np.array([float(r[9]) for r in rows])
    for name, col in (("limit", 2), ("anchored", 4), ("ladder", 6)):
        err = np.abs(_complex_column(rows, col, col + 1) - exact)
        excess = err - (budget + WH_SLACK)
        worst_excess = max(worst_excess, float(np.max(excess)))
        if np.any(~(excess <= 0)):
            i = int(np.argmax(excess))
            failures.append(f"wh: {name} route at z={z[i]:.6g} is {err[i]:.3e}"
                            f" from cos(sqrt(-2z)), budget {budget[i]:.3e}")
        if name == "limit":
            rel = err / np.maximum(1.0, np.abs(exact))
            worst_direct = float(np.max(rel))
            if not worst_direct <= WH_DIRECT_BAR:
                failures.append(f"wh: direct route off by {worst_direct:.3e}"
                                f" > {WH_DIRECT_BAR:.0e}")
    notes = {"worst_direct_rel": worst_direct,
             "worst_budget_excess": worst_excess}
    return failures, notes
