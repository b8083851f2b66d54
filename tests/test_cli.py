"""Command-line interface: CSV schemas, ordering, exit codes, determinism."""

import argparse
import csv
import io
import json
import math
import shutil
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from spzeros.branches import HypothesisReport
from spzeros.cli import _parse_orders, _parse_png, main

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
CHEB = str(PROBLEMS / "chebyshev2.json")
GOLD = str(PROBLEMS / "golden.json")
CUBIC = str(PROBLEMS / "cubic6.json")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_zeros_depth_three_chebyshev(capsys):
    code, out, _ = run_cli(["zeros", CHEB, "--max-support", "3"], capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["sigma", "re", "im", "terms_used", "tail_estimate"]
    assert len(rows) == 8
    sigmas = [r[0] for r in rows]
    assert sigmas == sorted(sigmas)
    empty = next(r for r in rows if r[0] == "")
    assert abs(float(empty[1]) - (-math.pi**2 / 8)) <= 1e-9
    assert float(empty[2]) == 0.0
    assert int(empty[3]) > 0
    assert 0 <= float(empty[4]) < 1e-11


def test_zeros_depth_zero_single_row(capsys):
    code, out, _ = run_cli(["zeros", CHEB, "--max-support", "0"], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][0] == ""


def test_zeros_floats_round_trip(capsys):
    _, out, _ = run_cli(["zeros", GOLD, "--max-support", "4"], capsys)
    _, rows = read_csv(out)
    for r in rows:
        for field in (r[1], r[2], r[4]):
            v = float(field)
            assert format(v, ".17g") == field


def test_invert_at_zero_matches_zeros(capsys):
    code, zeros_out, _ = run_cli(["zeros", GOLD, "--max-support", "3"], capsys)
    assert code == 0
    code, inv_out, _ = run_cli(
        ["invert", GOLD, "--max-support", "3", "--w", "0,0", "--verify"],
        capsys)
    assert code == 0
    _, zrows = read_csv(zeros_out)
    header, irows = read_csv(inv_out)
    assert header == ["sigma", "w_re", "w_im", "re", "im", "terms_used",
                      "tail_estimate", "prefactor_exponent"]
    assert [(r[0], r[1], r[2]) for r in zrows] == \
        [(r[0], r[3], r[4]) for r in irows]
    assert all(r[7] == "" for r in irows)


def test_invert_at_fixed_point_ladder(capsys):
    phi = (1 + math.sqrt(5)) / 2
    code, out, _ = run_cli(
        ["invert", GOLD, "--max-support", "3", "--w", f"{phi!r},0",
         "--verify"], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 8
    by_sigma = {r[0]: r for r in rows}
    # the zero address solves f(0) = b exactly and carries no exponent
    assert complex(float(by_sigma[""][3]), float(by_sigma[""][4])) == 0
    assert by_sigma[""][7] == ""
    # ladder exponents count the leading zeros plus one
    assert by_sigma["1"][7] == "1"
    assert by_sigma["01"][7] == "2"
    assert by_sigma["001"][7] == "3"
    # gaining a leading zero multiplies the value by a = 2 phi
    v01 = complex(float(by_sigma["01"][3]), float(by_sigma["01"][4]))
    v001 = complex(float(by_sigma["001"][3]), float(by_sigma["001"][4]))
    assert abs(v001 - 2 * phi * v01) <= 1e-9 * abs(v001)


def test_invert_circle_row_count(capsys):
    code, out, _ = run_cli(
        ["invert", GOLD, "--max-support", "2", "--circle", "8,5", "--verify"],
        capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 5 * 4
    # anchors appear in sweep order, grouped
    anchors = [(r[1], r[2]) for r in rows]
    assert anchors == sorted(anchors, key=lambda t: anchors.index(t))
    assert len(set(anchors)) == 5


def test_invert_one_sweep_per_anchor(monkeypatch, capsys):
    # Every anchor of a circle is one sweep at the problem's depth, the
    # fixed point b = 2 of cubic6 (k = 0 of the circle of radius 2)
    # included; its rows carry the ladder exponents.
    from spzeros import cli
    swept = []
    real = cli.sweep_products

    def sweep_products(sys_, w, max_support):
        swept.append((w, max_support))
        return real(sys_, w, max_support)

    monkeypatch.setattr(cli, "sweep_products", sweep_products)
    code, out, _ = run_cli(
        ["invert", CUBIC, "--max-support", "4", "--circle", "2,5",
         "--verify"], capsys)
    assert code == 0
    assert [depth for _, depth in swept] == [4] * 5
    assert swept[0][0] == 2
    _, rows = read_csv(out)
    assert len(rows) == 5 * 3 ** 4
    # The exponent counts the leading zeros plus one.
    at_b = {r[0]: r[7] for r in rows[:3 ** 4]}
    assert [at_b[s] for s in ("", "2", "01", "0002")] == ["", "1", "2", "4"]
    assert all(r[7] == "" for r in rows[3 ** 4:])


def test_invert_verify_full_depth_cubic(capsys):
    # Deep degree-3 solutions reach |g| ~ 1e9, where the requested product
    # tolerance propagates to round-trip errors far above any fixed absolute
    # bar; the verifier must budget against each row's own tail estimate.
    code, _, err = run_cli(
        ["invert", CUBIC, "--w=-2,0.5", "--verify"], capsys)
    assert code == 0
    assert err == ""


def test_invert_verify_flags_broken_roundtrip(capsys, monkeypatch):
    from spzeros import cli
    real = cli._eval_f_with_slope

    def shifted(sys_, values, **kwargs):
        back, slope = real(sys_, values, **kwargs)
        return back + 1e-3, slope

    monkeypatch.setattr(cli, "_eval_f_with_slope", shifted)
    code, _, err = run_cli(
        ["invert", GOLD, "--max-support", "2", "--w", "0,0", "--verify"],
        capsys)
    assert code == 2
    assert "exceeds its error budget" in err


def test_invert_verify_independent_of_n_cap(tmp_path, capsys):
    # n_cap caps a product's factors, not the evaluator's depth: with the
    # series tail no row here needs 20 factors, and --verify evaluates f(g)
    # to its own depth cap, so the table is the one at n_cap 200.
    problem = json.loads(Path(CHEB).read_text())
    problem["n_cap"] = 20
    small_cap = tmp_path / "ncap20.json"
    small_cap.write_text(json.dumps(problem))
    args = ["--max-support", "5", "--w=-2,0.5", "--verify"]
    code, out, err = run_cli(["invert", str(small_cap), *args], capsys)
    assert (code, err) == (0, "")
    assert len(read_csv(out)[1]) == 32
    code, full, _ = run_cli(["invert", CHEB, *args], capsys)
    assert code == 0
    assert out == full


def test_moments_table_and_convergence(capsys):
    code, out, _ = run_cli(
        ["moments", GOLD, "--m", "1,2", "--max-support", "10"], capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["m", "shell", "partial_re", "partial_im", "closed_re",
                      "closed_im", "abs_error", "tail_bound"]
    m1 = [r for r in rows if r[0] == "1"]
    m2 = [r for r in rows if r[0] == "2"]
    assert [int(r[1]) for r in m1] == list(range(11))
    # errors shrink and the last is within the tail bound plus slack
    last = m2[-1]
    assert float(last[6]) <= float(last[7]) + 1e-8
    assert abs(float(last[4]) - (1 - 1 / math.sqrt(5))) <= 1e-12


def test_moments_divergent_order_refused(tmp_path, capsys):
    problem = {
        "coefficients": [[1, 0], [-1, 0], [0, 0], [1, 0]],
        "fixed_point_hint": [1, 0],
        "max_support": 4,
        "product_tolerance": 1e-12,
        "n_cap": 200,
        "root_tolerance": 1e-13,
    }
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(problem))
    code, _, err = run_cli(["moments", str(path), "--m", "1"], capsys)
    assert code == 2
    assert "diverges" in err


def test_wh_three_routes(capsys):
    code, out, _ = run_cli(
        ["wh", GOLD, "--max-support", "10", "--z", "1.5,0", "--z=-2,0.5"],
        capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header[:4] == ["z_re", "z_im", "limit_re", "limit_im"]
    assert len(rows) == 2
    for r in rows:
        assert float(r[8]) <= 1e-6 + float(r[9])


def test_wh_budget_beyond_double_range_is_infinite(capsys):
    # At z = -1e5 the anchored product's log budget overflows expm1: the
    # row carries an infinite budget instead of a traceback.
    code, out, err = run_cli(
        ["wh", CHEB, "--max-support", "4", "--z=-1e5,0"], capsys)
    assert code == 0
    assert err == ""
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][9] == "inf"
    assert abs(float(rows[0][2]) - math.cos(math.sqrt(2e5))) <= 1e-9


@pytest.mark.parametrize("problem", [CHEB, GOLD], ids=["chebyshev2", "golden"])
def test_wh_route_not_finite_fails_row(problem, capsys):
    # At z = -1e8 both product routes overflow to nan: the row's deviation
    # is nan, so the row fails with one line that names those routes, and
    # the overflow raises no numpy warning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            ["wh", problem, "--max-support", "8", "--z=-1e8,0"], capsys)
    assert code == 2
    assert caught == []
    assert err.splitlines() == [
        "route not finite at z = -100000000,0: anchored, ladder"]
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][8] == "nan"


def test_wh_failure_lines(monkeypatch, capsys):
    # A row whose route is not finite names that route; a finite deviation
    # over its budget keeps the budget line. Both fail the run.
    from spzeros import cli
    from spzeros.verify import CrossCheckReport, CrossCheckRow

    rows = (CrossCheckRow(z=2 + 1j, direct=1j, product_anchored=1j,
                          product_ladder=complex(math.nan, 0),
                          max_deviation=math.nan, claimed_budget=1e-9),
            CrossCheckRow(z=-1.5 + 0j, direct=1 + 0j,
                          product_anchored=1.5 + 0j, product_ladder=1 + 0j,
                          max_deviation=0.5, claimed_budget=1e-9))

    def cross_check(sys_, samples, max_support, anchor, roundtrip):
        return CrossCheckReport(rows=rows, roundtrips=(),
                                worst_deviation=math.nan,
                                worst_roundtrip=math.nan)

    monkeypatch.setattr(cli, "cross_check", cross_check)
    code, out, err = run_cli(
        ["wh", CHEB, "--max-support", "2", "--z=2,1", "--z=-1.5,0"], capsys)
    assert code == 2
    assert err.splitlines() == [
        "route not finite at z = 2,1: ladder",
        "three-route deviation exceeded tail budget + 1.0e-06"]
    _, printed = read_csv(out)
    assert [r[8] for r in printed] == ["nan", "0.5"]


def test_wh_runs_no_roundtrip(monkeypatch, capsys):
    # wh prints no round trip, so f is evaluated at the --z points alone
    # and no anchor is swept; check still runs both.
    import spzeros.verify as verify

    evaluated, swept = [], []

    def eval_f_batch(sys_, points):
        evaluated.append(np.array(points))
        return real_eval(sys_, points)

    def sweep_products(sys_, w, max_support):
        swept.append(w)
        return real_sweep(sys_, w, max_support)

    real_eval, real_sweep = verify.eval_f_batch, verify.sweep_products
    monkeypatch.setattr(verify, "eval_f_batch", eval_f_batch)
    monkeypatch.setattr(verify, "sweep_products", sweep_products)

    code, out, _ = run_cli(["wh", CHEB, "--max-support", "6",
                            "--z=-1.2,0.3", "--z=2,1"], capsys)
    assert code == 0
    assert len(read_csv(out)[1]) == 2
    assert len(evaluated) == 1
    assert evaluated[0].tolist() == [-1.2 + 0.3j, 2 + 1j]
    assert swept == []

    code, out, _ = run_cli(["check", CHEB, "--max-support", "6"], capsys)
    assert code == 0
    assert len(swept) == 8
    assert evaluated[1].size > 8
    assert "\nroundtrip: " in out


@pytest.mark.parametrize("max_support, depth", [(2, 2), (6, 4)])
def test_check_roundtrip_support_capped(max_support, depth, monkeypatch,
                                        capsys):
    # check round-trips the addresses of support up to 4 at each of its 8
    # anchors, and no deeper than --max-support.
    import spzeros.verify as verify

    depths = []

    def sweep_products(sys_, w, max_support):
        depths.append(max_support)
        return real_sweep(sys_, w, max_support)

    real_sweep = verify.sweep_products
    monkeypatch.setattr(verify, "sweep_products", sweep_products)
    code, out, _ = run_cli(["check", CHEB, "--max-support", str(max_support)],
                           capsys)
    assert code == 0
    assert depths == [depth] * 8
    assert "\nroundtrip: " in out


def test_check_reports_all_invariants(capsys):
    code, out, _ = run_cli(["check", GOLD, "--max-support", "8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    names = [ln.split(":")[0] for ln in lines]
    assert names == ["hypothesis1", "three_routes", "roundtrip",
                     "functional_equation", "taylor_d2"]
    assert all(ln.endswith("PASS") for ln in lines)


def test_check_all_shipped_problems(capsys):
    for path in (CHEB, GOLD, CUBIC):
        code, out, _ = run_cli(["check", path, "--max-support", "8"], capsys)
        assert code == 0, out


def test_check_skips_product_routes_when_d_exceeds_a(tmp_path, capsys):
    # z^3 - z + 1 at b = 1 has d = 3 >= |a| = 2: the product form does not
    # converge, so three_routes is skipped and every other check still runs.
    problem = tmp_path / "z3-z+1.json"
    problem.write_text(json.dumps({
        "coefficients": [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        "fixed_point_hint": [1.0, 0.0], "max_support": 4,
        "product_tolerance": 1e-12, "n_cap": 200, "root_tolerance": 1e-10}))
    code, out, err = run_cli(["check", str(problem), "--max-support", "5"],
                             capsys)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "hypothesis1", "three_routes", "roundtrip", "functional_equation",
        "taylor_d2"]
    assert lines[1] == ("three_routes: SKIP (product form needs d < |a|, "
                        "got d = 3, |a| = 2.000000)")
    assert all(ln.endswith("PASS") for ln in lines[:1] + lines[2:])


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"coefficients": [[1, 0]')
    code, _, err = run_cli(["zeros", str(bad)], capsys)
    assert code == 1
    assert "line" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({
        "coefficients": [[-1, 0], [0, 0], [2, 0]],
        "fixed_point_hint": [1, 0],
        "max_support": 3,
        "product_tolerance": 1e-12,
        "n_cap": 200,
        "root_tolerance": 1e-13,
        "extra": 1,
    }))
    code, _, err = run_cli(["zeros", str(unknown)], capsys)
    assert code == 1
    assert "unknown key" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(["zeros", "no-such-file.json"], capsys)
    assert code == 1
    assert err


def test_oversized_override_refused(capsys):
    code, _, err = run_cli(["zeros", CUBIC, "--max-support", "16"], capsys)
    assert code == 1
    assert "2^24" in err


@pytest.mark.parametrize("depth, circle", [("24", "1,4"),
                                          ("2", "1,1000000000")])
def test_oversized_circle_refused(depth, circle, monkeypatch, capsys):
    # K tables of d^N rows are held at once, so K d^N is bounded like d^N;
    # the check comes before any anchor, system or sweep.
    from spzeros import cli

    def no_system(spec):
        raise AssertionError("system built for a refused circle")

    monkeypatch.setattr(cli, "system_from_spec", no_system)
    code, out, err = run_cli(
        ["invert", CHEB, "--max-support", depth, "--circle", circle], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "2^24" in err


@pytest.mark.parametrize("args, edit", [
    (["invert", "--w=nan"], None),
    (["invert", "--w=inf"], None),
    (["invert", "--circle", "inf,2"], None),
    (["invert", "--circle", "nan,2"], None),
    (["moments", "--w=1,nan"], None),
    (["wh", "--z=nan"], None),
    (["wh", "--z=1", "--anchor=nan"], None),
    (["check", "--anchor=-inf"], None),
    (["zeros", "--tol", "nan"], None),
    (["zeros", "--tol", "inf"], None),
    (["zeros"], ('"product_tolerance": 1e-12', '"product_tolerance": NaN')),
    (["zeros"], ("[1.0, 0.0]", "[Infinity, 0]")),
])
def test_nonfinite_input_exit_code(args, edit, tmp_path, capsys):
    # Non-finite flags and problem-file values end in one error line and
    # exit 1: no rows, no traceback.
    problem = CHEB
    if edit is not None:
        text = Path(CHEB).read_text()
        assert edit[0] in text
        problem = tmp_path / "nonfinite.json"
        problem.write_text(text.replace(*edit))
    code, out, err = run_cli(
        [args[0], str(problem), "--max-support", "2", *args[1:]], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("args", [
    ["invert", CHEB, "--w=1,2,3"],
    ["invert", CHEB, "--circle", "0,3"],
    ["invert", CHEB, "--max-support", "x"],
    ["moments", CHEB, "--m", "0"],
    ["zeros", CHEB, "--png", "100000x100000"],
    ["frobnicate", CHEB],
    ["zeros"],
    ["moments", CHEB, "--m", "1,33"],
    ["zeros", CHEB, "--png-path", "zeros.png"],
])
def test_usage_error_exit_code(args, monkeypatch, capsys):
    # A usage error is bad input: one error line and exit 1, not argparse's
    # usage text and exit 2, the code of a numerical failure. It is found
    # before any system is built or swept: an order above MAX_MOMENT_ORDER
    # is refused at no cost, though its closed form would take only some
    # 20 ms.
    from spzeros import cli

    def no_system(spec):
        raise AssertionError("system built for a usage error")

    monkeypatch.setattr(cli, "system_from_spec", no_system)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("args", [
    ["moments", CHEB, "--max-support", "0"],
    ["wh", CHEB, "--max-support", "0", "--z=1,0"],
    ["check", CHEB, "--max-support", "0"],
    ["moments", CHEB, "--w=1"],
])
def test_input_without_tail_bound_exit_code(args, capsys):
    # max_support 0 leaves no address for the growth floor of the tail
    # bounds, and w = 1 is Chebyshev's fixed point, where no momentum is
    # defined: one error line and exit 1, before any row.
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["wh", CUBIC, "--max-support", "6", "--z=1,0.5", "--anchor=2,0"],
    ["check", CUBIC, "--anchor=2,0"],
])
def test_anchor_at_fixed_point_refused(args, capsys):
    # cubic6's b is 2. An anchored route there would be the ladder route
    # again, so wh and check refuse it as moments refuses w = b: one error
    # line and exit 1, before any row.
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: the anchored route needs an anchor away from "
                   "the fixed point b = (2+0j)\n")


def test_png_size_bound():
    # At most 2^26 pixels, checked by the parser before any raster exists.
    assert _parse_png("8192x8192") == (8192, 8192)
    assert _parse_png("1x67108864") == (1, 1 << 26)
    for text in ("8193x8192", "1x67108865", "100000x100000"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_png(text)


def test_moment_order_bound():
    # Orders 1 .. MAX_MOMENT_ORDER = 32 are accepted, checked by the parser.
    assert _parse_orders("1,32") == (1, 32)
    for text in ("33", "1,33", "0", "2,x"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_orders(text)


def test_help_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--help"])
    assert exc.value.code == 0
    assert "--verify" in capsys.readouterr().out


def test_hypothesis_gate_exit_code(monkeypatch, capsys):
    import spzeros.cli as cli

    def failing_probe(sys_):
        return HypothesisReport(sampled_points=64, converged_points=0,
                                max_orbit_length=0, worst_point=1j,
                                passed=False)

    monkeypatch.setattr(cli, "check_hypothesis1", failing_probe)
    code, _, err = run_cli(
        ["zeros", CHEB, "--max-support", "2", "--check-hypothesis"], capsys)
    assert code == 3
    assert "hypothesis" in err.lower()


def test_zeros_png_output(tmp_path, capsys):
    png = tmp_path / "zeros.png"
    code, _, _ = run_cli(
        ["zeros", GOLD, "--max-support", "5", "--png", "96x64",
         "--png-path", str(png)], capsys)
    assert code == 0
    data = png.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    width, height = struct.unpack(">II", data[16:24])
    assert (width, height) == (96, 64)
    bit_depth, color_type = data[24], data[25]
    assert (bit_depth, color_type) == (8, 0)
    # IDAT decompresses to height * (1 + width) filter-prefixed scanlines
    idat = data.find(b"IDAT")
    length = struct.unpack(">I", data[idat - 4:idat])[0]
    raw = zlib.decompress(data[idat + 4:idat + 4 + length])
    assert len(raw) == 64 * (1 + 96)
    # some pixels are dark (points actually got rastered)
    assert min(raw) == 0


def test_output_file_writing(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        ["zeros", CHEB, "--max-support", "2", "-o", str(out_path)], capsys)
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    header, rows = read_csv(text)
    assert len(rows) == 4
    assert text.count("\r") == 0  # unix line endings regardless of platform


def test_zeros_converged_column(tmp_path, capsys):
    # With n_cap = 2 a tail may take one principal step before its series;
    # the 165 of 256 depth-8 leaves that need more are flagged, and only
    # those, and the run exits 2.
    problem = json.loads(Path(CHEB).read_text())
    problem["n_cap"] = n_cap = 2
    capped_file = tmp_path / "capped.json"
    capped_file.write_text(json.dumps(problem))
    code, out, _ = run_cli(
        ["zeros", str(capped_file), "--max-support", "8"], capsys)
    assert code == 2
    header, rows = read_csv(out)
    assert header[-1] == "converged"
    assert len(rows) == 2 ** 8
    assert {r[-1] for r in rows} == {"true", "false"}
    capped = [r[-1] == "false" for r in rows]
    # A converged row may use all n_cap factors too, so capped rows are
    # told apart by the uncapped run: they are the rows that need more.
    assert all(int(r[3]) == n_cap + 8 for r, c in zip(rows, capped) if c)
    code, out, _ = run_cli(["zeros", CHEB, "--max-support", "8"], capsys)
    assert code == 0
    _, full = read_csv(out)
    assert capped == [int(r[3]) > n_cap + 8 for r in full]
    assert sum(capped) == 165


@pytest.mark.skipif(shutil.which("spzeros") is None,
                    reason="the spzeros console script exists only once the "
                           "package is installed")
def test_console_entry_point():
    r = subprocess.run(["spzeros", "zeros", CHEB, "--max-support", "1"],
                       capture_output=True, cwd=str(ROOT))
    assert r.returncode == 0
    assert r.stdout.startswith(b"sigma,re,im,")


def test_console_script_target_runs():
    # Runs the [project.scripts] target the way the installed wrapper does,
    # so the entry point is checked even where the package is not installed.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, attr = scripts["spzeros"].split(":")
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.exit({attr}())")
    r = subprocess.run([sys.executable, "-c", wrapper, "zeros", CHEB,
                        "--max-support", "1"],
                       capture_output=True, cwd=str(ROOT))
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith(b"sigma,re,im,")
