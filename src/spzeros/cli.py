"""Command-line interface: problem files in, CSV tables and figures out.

A problem file is a strict JSON object naming the polynomial (coefficients
lowest-degree-first, complex numbers as [re, im] pairs), the fixed point
hint, and every truncation knob. Subcommands:

    zeros    all zeros g_sigma(0) up to the configured support
    invert   all solutions of f(z) = w, optionally for a circle of anchors
    moments  per-shell convergence of power sums against closed forms
    wh       three-route evaluation comparison at chosen points
    check    Hypothesis-1 probe plus the invariant suite

Exit codes: 0 success, 1 bad input (a usage error, or a problem file that
fails to parse or validate), 2 numeric failure (non-convergence, divergent
moment, identity violation beyond its budget), 3 Hypothesis-1 probe failure.
Output ordering is fixed by the padded address index (equivalently,
digit-string lexicographic order), and every sweep runs in one thread, so
two runs on the same input print the same bytes.

The tables of zeros and invert, one row per address, are written by one
block writer, BLOCK_ROWS rows per write: every column of a block is a
NUL-padded uint8 matrix built by whole-array arithmetic (spzeros.fields),
and the block is the columns side by side with every NUL deleted. It
prints the bytes csv.writer printed with format(x, ".17g") for every float
(tests/test_output.py holds that per-row writer as the reference). The few
rows of moments and wh go through csv.writer.
"""

import argparse
import cmath
import contextlib
import csv
import math
import sys as _sys
from dataclasses import replace

import numpy as np

from .branches import (
    W_NEAR_B,
    check_hypothesis1,
    relative_error,
    sweep_products,
)
from .errors import ParseError, SPZerosError, ValidationError
# moment_sum stays a name of this module, unused: bench/tracer.py wraps
# cli.moment_sum by name, and its checks require every layer to resolve.
from .factor import moment_sum, moment_sums  # noqa: F401
from .fields import digit_fields, float_fields, int_fields
from .pngwriter import scatter_png
from .problemfile import (
    ProblemSpec,
    check_enumeration_size,
    check_tolerance,
    load_problem,
    parse_problem,
    serialize_problem,
    system_from_spec,
)
from .system import (
    _eval_f_with_slope,
    eval_f_batch,
    eval_f_direct,
    taylor_at_zero,
)
from .verify import cross_check

# Slack added to computed tail bounds when a command judges an identity.
MOMENT_SLACK = 1e-8
WH_SLACK = 1e-6
ROUNDTRIP_TOL = 1e-7
# A row's relative error rel (relative_error: its tail series' truncation
# bound plus one rounding per factor) leaves out how the digit prefix
# conditions the value: |f(g) - w| runs up to 0.84x |f'(g)| |g| rel on the
# shipped problems (cubic6 at depth 6 and w = -3e4+i; 0.60 at its default
# depth), and 1.2e3x on the rows of Chebyshev at depths 15 and 16 whose
# orbit passes near the critical point, which fail. The --verify budget
# grants this factor before flagging a row.
SLOPE_SLACK = 8.0
# Rows of zeros and invert formatted per write. A write makes the same
# numpy calls at any size, so 2^10 rows took 1.1-1.3 us per row of the
# depth-16 Chebyshev table against 0.8-1.1 us at 2^12. A block's matrices
# raise the peak memory of cubic6's 98,415-row `invert --max-support 9
# --circle 2,5` from 39.1 MB at 2^10 to 40.5-40.8 MB at 2^12.
BLOCK_ROWS = 1 << 12
# Largest --png raster, width * height pixels: 64 MiB of uint8, which the
# PNG writer copies once more.
PNG_MAX_PIXELS = 1 << 26
# Largest momentum order --m accepts. The closed form is a series recursion
# of O(d m^2) double-double products: one golden call took 12 ms of CPU at
# m = 24 and 19 ms at m = 32 on a 2-vCPU Xeon, so the bound no longer
# guards its cost; whether to raise it is a decision of its own.
MAX_MOMENT_ORDER = 32

__all__ = [
    "ProblemSpec",
    "load_problem",
    "main",
    "parse_problem",
    "serialize_problem",
    "system_from_spec",
]


def _fmt(x):
    return format(float(x), ".17g")


def _ascii(text):
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


_COMMA, _NEWLINE = _ascii(","), _ascii("\n")
_TRUE, _FALSE = _ascii(",true\0"), _ascii(",false")


def _write_rows(fh, sweep, w=None, pref=None, flags=False):
    """Write one CSV row per address of `sweep`, BLOCK_ROWS rows per write.

    A row holds the address, the anchor w when given (invert's w_re,w_im),
    re, im, terms_used, tail_estimate, then, with w, invert's
    prefactor_exponent (the row's entry of `pref`, or empty where pref is
    None) and, with `flags`, the converged column. Each float is printed as
    format(x, ".17g") prints it.
    A block is one uint8 matrix of NUL-padded fields (spzeros.fields),
    written with its NULs deleted.
    """
    lead = _COMMA
    if w is not None:
        w_re, w_im = float_fields([w.real, w.imag])
        lead = np.concatenate([_COMMA, w_re, _COMMA, w_im, _COMMA])
    size = sweep.values.size
    for lo in range(0, size, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, size)
        n = hi - lo
        idx = np.arange(lo, hi, dtype=np.int64) + sweep.offset
        floats = float_fields(np.concatenate([
            sweep.values.real[lo:hi], sweep.values.imag[lo:hi],
            sweep.tail_estimate[lo:hi]]))
        fields = [digit_fields(idx, sweep.d, sweep.depth), lead,
                  floats[:n], _COMMA, floats[n:2 * n], _COMMA,
                  int_fields(sweep.terms_used[lo:hi]), _COMMA, floats[2 * n:]]
        if w is not None:
            fields.append(_COMMA)
        if pref is not None:
            fields.append(np.array(pref[lo:hi], dtype="S")
                          .view(np.uint8).reshape(n, -1))
        if flags:
            fields.append(np.where(sweep.converged[lo:hi, None],
                                   _TRUE, _FALSE))
        fields.append(_NEWLINE)
        block = np.concatenate(
            [np.broadcast_to(f, (n, f.shape[-1])) for f in fields], axis=1)
        fh.write(block.tobytes().translate(None, b"\0").decode("ascii"))


def _require_finite(value, text):
    # Raised past argparse, so that main reports it as bad input (exit 1).
    if not cmath.isfinite(value):
        raise ValidationError(f"expected a finite value, got {text!r}")
    return value


def _parse_complex(text):
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return _require_finite(complex(float(parts[0]), 0.0), text)
        if len(parts) == 2:
            return _require_finite(
                complex(float(parts[0]), float(parts[1])), text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected 're' or 're,im', got {text!r}")


def _parse_png(text):
    parts = text.lower().split("x")
    if len(parts) == 2:
        try:
            width, height = int(parts[0]), int(parts[1])
            if width >= 1 and height >= 1 and width * height <= PNG_MAX_PIXELS:
                return width, height
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"expected WIDTHxHEIGHT with at most {PNG_MAX_PIXELS} pixels, "
        f"got {text!r}")


def _parse_circle(text):
    parts = text.split(",")
    if len(parts) == 2:
        try:
            radius, count = float(parts[0]), int(parts[1])
            if _require_finite(radius, text) > 0 and count >= 1:
                return radius, count
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"expected 'radius,count' with radius > 0, got {text!r}")


def _parse_orders(text):
    try:
        orders = tuple(int(p) for p in text.split(","))
    except ValueError:
        orders = ()
    if not orders or any(not 1 <= m <= MAX_MOMENT_ORDER for m in orders):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated orders from 1 to {MAX_MOMENT_ORDER}, "
            f"got {text!r}")
    return orders


@contextlib.contextmanager
def _output(path):
    """Single-writer sink: a file path or '-' for stdout."""
    if path == "-":
        yield _sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _hypothesis_gate(sys_):
    """Run the Hypothesis-1 probe; True when every orbit contracted."""
    report = check_hypothesis1(sys_)
    if not report.passed:
        print(
            f"hypothesis probe failed: {report.converged_points}/"
            f"{report.sampled_points} orbits contracted, worst point "
            f"{report.worst_point}", file=_sys.stderr)
    return report.passed


def _prefactor_exponents(sys_, w, N):
    """invert's prefactor_exponent column, padded-index order, as bytes, or
    None at any anchor but w = b, whose rows leave it empty. At w = b it is
    the m of a row's a^m ladder prefactor, its address's leading zeros plus
    one: N - K + 1 on index segment [d^(K-1), d^K); index 0, the solution 0,
    is empty."""
    d = sys_.d
    if abs(w - sys_.b) > W_NEAR_B:
        return None
    labels = [b""] + [b"%d" % (N - K + 1) for K in range(1, N + 1)]
    counts = [1] + [d ** K - d ** (K - 1) for K in range(1, N + 1)]
    return np.repeat(np.array(labels), counts)


def cmd_zeros(spec, args):
    sys_ = system_from_spec(spec)
    if args.check_hypothesis and not _hypothesis_gate(sys_):
        return 3
    sweep = sweep_products(sys_, 0j, spec.max_support)
    all_ok = bool(np.all(sweep.converged))
    header = ["sigma", "re", "im", "terms_used", "tail_estimate"]
    if not all_ok:
        header.append("converged")
    with _output(args.output) as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, sweep, flags=not all_ok)
    if args.png is not None:
        width, height = args.png
        scatter_png(args.png_path or _default_png_path(args.output),
                    sweep.values, width, height)
    return 0 if all_ok else 2


def _default_png_path(output):
    if output == "-":
        return "zeros.png"
    return output + ".png" if not output.endswith(".csv") \
        else output[:-4] + ".png"


def _roundtrip_budget(sys_, w, sweep):
    """Round-trip violations |f(g) - w| with per-row error budgets.

    Each solution g carries a relative error rel (relative_error: its tail
    series' truncation bound plus one rounding per factor); propagated
    through f it permits about |f'(g)| * |g| * rel of round-trip error, so
    the budget scales with the slope f'(g), which the evaluator returns
    with f(g), instead of holding deep, large-|g| rows to an absolute bar
    their requested product tolerance cannot meet.  ROUNDTRIP_TOL absorbs
    evaluator noise and the quadratic remainder at multiple zeros, where
    the slope vanishes.
    """
    g = sweep.values
    back, slope = _eval_f_with_slope(sys_, g)
    violation = np.abs(back - w)
    rel = relative_error(sweep.tail_estimate, sweep.terms_used)
    budget = ROUNDTRIP_TOL + SLOPE_SLACK * np.abs(slope) * np.abs(g) * rel
    return violation, budget


def cmd_invert(spec, args):
    anchors = [args.w]
    if args.circle is not None:
        radius, count = args.circle
        # The tables of all anchors are held until the first row is written.
        check_enumeration_size(spec.degree, spec.max_support, tables=count)
        anchors = [radius * cmath.exp(2j * math.pi * k / count)
                   for k in range(count)]
    sys_ = system_from_spec(spec)
    if args.check_hypothesis and not _hypothesis_gate(sys_):
        return 3

    blocks = []
    all_ok = True
    worst_excess = None  # (excess, violation, budget) at the worst row
    for w in anchors:
        sweep = sweep_products(sys_, w, spec.max_support)
        pref = _prefactor_exponents(sys_, w, spec.max_support)
        all_ok = all_ok and bool(np.all(sweep.converged))
        if args.verify:
            violation, budget = _roundtrip_budget(sys_, w, sweep)
            j = int(np.argmax(violation - budget))
            excess = float(violation[j] - budget[j])
            if worst_excess is None or excess > worst_excess[0]:
                worst_excess = (excess, float(violation[j]), float(budget[j]))
        blocks.append((w, sweep, pref))

    verified_ok = worst_excess is None or worst_excess[0] <= 0.0
    header = ["sigma", "w_re", "w_im", "re", "im", "terms_used",
              "tail_estimate", "prefactor_exponent"]
    if not all_ok:
        header.append("converged")
    with _output(args.output) as fh:
        fh.write(",".join(header) + "\n")
        for w, sweep, pref in blocks:
            _write_rows(fh, sweep, w=w, pref=pref, flags=not all_ok)
    if args.verify and not verified_ok:
        print(f"verification failed: worst |f(g) - w| = "
              f"{worst_excess[1]:.3e} exceeds its error budget "
              f"{worst_excess[2]:.3e}", file=_sys.stderr)
        return 2
    return 0 if all_ok else 2


def cmd_moments(spec, args):
    sys_ = system_from_spec(spec)
    failed = False
    # Every order is summed, in one pass, before the first row, so that an
    # error leaves no partial table behind.
    reports = moment_sums(sys_, args.m, args.w, spec.max_support)
    with _output(args.output) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["m", "shell", "partial_re", "partial_im",
                         "closed_re", "closed_im", "abs_error", "tail_bound"])
        for m, report in zip(args.m, reports):
            closed = report.closed_form_rhs
            for support, partial in report.shells:
                writer.writerow([
                    str(m), str(support),
                    _fmt(partial.real), _fmt(partial.imag),
                    _fmt(closed.real), _fmt(closed.imag),
                    _fmt(abs(partial - closed)),
                    _fmt(report.tail_bound),
                ])
            final_error = abs(report.computed_sum - closed)
            if final_error > report.tail_bound + MOMENT_SLACK:
                print(f"moment m={m}: |computed - closed form| = "
                      f"{final_error:.3e} exceeds tail bound "
                      f"{report.tail_bound:.3e} + {MOMENT_SLACK:.1e}",
                      file=_sys.stderr)
                failed = True
    return 2 if failed else 0


def cmd_wh(spec, args):
    sys_ = system_from_spec(spec)
    samples = np.array(args.z, dtype=np.complex128)
    report = cross_check(sys_, samples, spec.max_support, anchor=args.anchor,
                         roundtrip=False)
    over_budget = False
    not_finite = []
    with _output(args.output) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["z_re", "z_im", "limit_re", "limit_im",
                         "anchored_re", "anchored_im", "ladder_re",
                         "ladder_im", "max_deviation", "claimed_budget"])
        for row in report.rows:
            # The deviation is nan when a route is not finite: no budget
            # applies, so the message names those routes instead.
            if math.isnan(row.max_deviation):
                routes = zip(("limit", "anchored", "ladder"),
                             (row.direct, row.product_anchored,
                              row.product_ladder))
                not_finite.append(
                    f"route not finite at z = {_fmt(row.z.real)},"
                    f"{_fmt(row.z.imag)}: " + ", ".join(
                        name for name, value in routes
                        if not cmath.isfinite(value)))
            elif not row.max_deviation <= WH_SLACK + row.claimed_budget:
                over_budget = True
            writer.writerow([
                _fmt(row.z.real), _fmt(row.z.imag),
                _fmt(row.direct.real), _fmt(row.direct.imag),
                _fmt(row.product_anchored.real),
                _fmt(row.product_anchored.imag),
                _fmt(row.product_ladder.real), _fmt(row.product_ladder.imag),
                _fmt(row.max_deviation), _fmt(row.claimed_budget),
            ])
    for line in not_finite:
        print(line, file=_sys.stderr)
    if over_budget:
        print("three-route deviation exceeded tail budget "
              f"+ {WH_SLACK:.1e}", file=_sys.stderr)
    return 2 if over_budget or not_finite else 0


def cmd_check(spec, args):
    sys_ = system_from_spec(spec)
    lines = []
    code = 0

    hyp = check_hypothesis1(sys_)
    lines.append(
        f"hypothesis1: sampled={hyp.sampled_points} "
        f"converged={hyp.converged_points} "
        f"max_orbit={hyp.max_orbit_length} "
        f"{'PASS' if hyp.passed else 'FAIL'}")
    if not hyp.passed:
        code = 3

    if hyp.passed:
        # Deterministic sample ring; radius 2 stays inside every example's
        # comfortable evaluation zone while exercising both half-planes.
        grid = np.array([2.0 * cmath.exp(2j * math.pi * (k + 0.25) / 8) /
                         (1 + k % 3) for k in range(8)])
        products = sys_.d < abs(sys_.a)
        report = cross_check(sys_, grid, min(spec.max_support, 12),
                             anchor=args.anchor, products=products)
        if products:
            route_ok = all(r.max_deviation <= WH_SLACK + r.claimed_budget
                           for r in report.rows)
            lines.append(f"three_routes: worst_deviation="
                         f"{report.worst_deviation:.3e} "
                         f"{'PASS' if route_ok else 'FAIL'}")
        else:
            route_ok = True
            lines.append(f"three_routes: SKIP (product form needs d < |a|, "
                         f"got d = {sys_.d}, |a| = {abs(sys_.a):.6f})")

        rt_ok = report.worst_roundtrip <= ROUNDTRIP_TOL
        lines.append(f"roundtrip: worst={report.worst_roundtrip:.3e} "
                     f"{'PASS' if rt_ok else 'FAIL'}")

        fz = eval_f_batch(sys_, grid)
        faz = eval_f_batch(sys_, sys_.a * grid)
        resid = float(np.max(np.abs(faz - sys_.P.eval_array(fz))))
        scale = float(np.max(np.maximum(1.0, np.abs(faz))))
        eq_ok = resid <= 1e-9 * scale
        lines.append(f"functional_equation: residual={resid:.3e} "
                     f"{'PASS' if eq_ok else 'FAIL'}")

        d2 = taylor_at_zero(sys_, 2).derivative_at_zero(2)
        h = 1e-4
        fd = (eval_f_direct(sys_, h) - 2 * eval_f_direct(sys_, 0.0)
              + eval_f_direct(sys_, -h)) / h ** 2
        taylor_ok = abs(d2 - fd) <= 1e-5 * max(1.0, abs(d2))
        lines.append(f"taylor_d2: recursion={d2.real:.12g} "
                     f"difference={fd.real:.12g} "
                     f"{'PASS' if taylor_ok else 'FAIL'}")

        if not (route_ok and rt_ok and eq_ok and taylor_ok):
            code = 2

    with _output(args.output) as fh:
        for line in lines:
            print(line, file=fh)
    return code


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input, which main turns into one error
    line and exit 1; subparsers inherit the class."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser():
    parser = _Parser(
        prog="spzeros",
        description="Zeros, inverse branches, and factorizations of entire "
                    "solutions of f(az) = P(f(z)).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument("-o", "--output", default="-",
                       help="output path ('-' for stdout)")
        p.add_argument("--max-support", type=int, default=None,
                       help="override the problem file's max_support")
        p.add_argument("--tol", type=float, default=None,
                       help="override the problem file's product_tolerance")

    p_zeros = sub.add_parser("zeros", help="enumerate zeros of f")
    common(p_zeros)
    p_zeros.add_argument("--png", type=_parse_png, default=None,
                         metavar="WxH", help="also write a scatter PNG")
    p_zeros.add_argument("--png-path", default=None,
                         help="path for the scatter PNG")
    p_zeros.add_argument("--check-hypothesis", action="store_true",
                         help="probe principal-orbit contraction first")
    p_zeros.set_defaults(func=cmd_zeros)

    p_inv = sub.add_parser("invert", help="enumerate solutions of f(z) = w")
    common(p_inv)
    p_inv.add_argument("--w", type=_parse_complex, default=0j,
                       metavar="RE,IM", help="anchor value (default 0)")
    p_inv.add_argument("--circle", type=_parse_circle, default=None,
                       metavar="R,K", help="sweep K anchors on |w| = R")
    p_inv.add_argument("--verify", action="store_true",
                       help="check f(g) = w on every row")
    p_inv.add_argument("--check-hypothesis", action="store_true",
                       help="probe principal-orbit contraction first")
    p_inv.set_defaults(func=cmd_invert)

    p_mom = sub.add_parser("moments", help="power sums of inverse solutions")
    common(p_mom)
    p_mom.add_argument("--m", type=_parse_orders, default=(1, 2),
                       metavar="M1,M2,...", help="orders (default 1,2)")
    p_mom.add_argument("--w", type=_parse_complex, default=0j,
                       metavar="RE,IM", help="anchor value (default 0)")
    p_mom.set_defaults(func=cmd_moments)

    p_wh = sub.add_parser("wh", help="three-route evaluation comparison")
    common(p_wh)
    p_wh.add_argument("--z", type=_parse_complex, action="append",
                      required=True, metavar="RE,IM",
                      help="evaluation point (repeatable)")
    p_wh.add_argument("--anchor", type=_parse_complex, default=0j,
                      metavar="RE,IM",
                      help="generic anchor for the factored route")
    p_wh.set_defaults(func=cmd_wh)

    p_chk = sub.add_parser("check", help="hypothesis probe + invariants")
    common(p_chk)
    p_chk.add_argument("--anchor", type=_parse_complex, default=0j,
                       metavar="RE,IM",
                       help="generic anchor for the factored route")
    p_chk.set_defaults(func=cmd_check)

    return parser


def _apply_overrides(spec, args):
    if args.max_support is not None:
        check_enumeration_size(spec.degree, args.max_support)
        spec = replace(spec, max_support=args.max_support)
    if args.tol is not None:
        spec = replace(spec, product_tolerance=check_tolerance(
            args.tol, "product_tolerance"))
    return spec


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        spec = load_problem(args.problem)
        spec = _apply_overrides(spec, args)
        return args.func(spec, args)
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except SPZerosError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
