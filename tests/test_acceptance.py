"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
numbers and then asserts. Run with `-s` (or read failure output) to see the
lines. The suite is deterministic: every random draw is seeded.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spzeros import (
    SigmaSequence,
    cross_check,
    eval_f_batch,
    eval_f_direct,
    moment_sum,
    oracle_chebyshev,
    sweep_products,
    taylor_at_zero,
    zero_product,
)
from spzeros.verify import chebyshev_system, cubic_system, golden_system

ROOT = Path(__file__).resolve().parent.parent
PHI = (1 + math.sqrt(5)) / 2

ALL_SYSTEMS = (chebyshev_system, golden_system, cubic_system)


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_quadratic_zero_family():
    sys = dataclasses.replace(chebyshev_system(), product_tolerance=1e-13)
    t0 = time.perf_counter()
    pairs = [
        ((), -(math.pi**2) / 8),
        ((1,), -9 * math.pi**2 / 8),
        ((1, 1), -25 * math.pi**2 / 8),
        ((0, 1), -49 * math.pi**2 / 8),
    ]
    worst = 0.0
    for digits, want in pairs:
        got = zero_product(sys, SigmaSequence(digits)).value
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"worst rel err {worst:.3e} (<=1e-10), {elapsed:.3f}s (<1s)")


def test_criterion_02_golden_momenta_depth_twenty():
    sys = golden_system()
    t0 = time.perf_counter()
    closed = {1: 1.0, 2: 1 - 1 / math.sqrt(5), 3: 0.4}
    errs, bounds = {}, {}
    reports = {}
    for m in (1, 2, 3):
        rep = moment_sum(sys, m, 0j, 20)
        reports[m] = rep
        errs[m] = abs(rep.computed_sum - closed[m])
        bounds[m] = rep.tail_bound
    value_ok = all(errs[m] <= bounds[m] + 1e-8 for m in (1, 2, 3))

    partials = [p for _, p in reports[1].shells]
    cum_err = [abs(p - closed[1]) for p in partials]
    ratios = [cum_err[s] / cum_err[s - 1] for s in range(12, 21)]
    predicted = sys.d / abs(sys.a)
    ratio_ok = all(0.4 <= r <= 0.8 for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = value_ok and ratio_ok and elapsed < 60.0
    _report(2, ok,
            f"errs m1..m3 {errs[1]:.2e}/{errs[2]:.2e}/{errs[3]:.2e} vs "
            f"bounds+1e-8 {bounds[1] + 1e-8:.2e}/{bounds[2] + 1e-8:.2e}/"
            f"{bounds[3] + 1e-8:.2e}; m=1 error ratios "
            f"[{min(ratios):.4f}, {max(ratios):.4f}] in [0.4,0.8] "
            f"(predicted {predicted:.4f}); {elapsed:.1f}s (<60s)")


def test_criterion_03_cubic_momenta_depth_ten():
    # Scored on the tail-completed momentum: the support <= 10 partial sum
    # alone stops short by its truncation mass (9.2e-8 for m = 1, shells
    # shrinking by d/|a| = 1/4), which no per-product accuracy can reduce.
    sys = cubic_system()
    t0 = time.perf_counter()
    closed = {1: 1.0, 2: 9 / 11}
    reps = {m: moment_sum(sys, m, 0j, 10) for m in (1, 2)}
    elapsed = time.perf_counter() - t0
    raw = {m: abs(reps[m].computed_sum - closed[m]) for m in (1, 2)}
    ext = {m: abs(reps[m].extrapolated_sum - closed[m]) for m in (1, 2)}
    raw_ok = all(raw[m] <= reps[m].tail_bound + 1e-8 for m in (1, 2))
    ext_ok = all(ext[m] <= 1e-8 and ext[m] <= reps[m].extrapolation_error
                 for m in (1, 2))
    ok = raw_ok and ext_ok and elapsed < 10.0
    _report(3, ok,
            f"extrapolated m=1 err {ext[1]:.3e} (estimate "
            f"{reps[1].extrapolation_error:.3e}), m=2 err {ext[2]:.3e} "
            f"(estimate {reps[2].extrapolation_error:.3e}) (<=1e-8 and <= "
            f"estimate each); raw partial-sum errs {raw[1]:.3e}/{raw[2]:.3e} "
            f"vs tail bounds+1e-8 {reps[1].tail_bound + 1e-8:.3e}/"
            f"{reps[2].tail_bound + 1e-8:.3e}; {elapsed:.1f}s (<10s)")


def test_criterion_04_functional_equation_100_points():
    rng = np.random.default_rng(101)
    worst = 0.0
    for make in ALL_SYSTEMS:
        sys = make()
        z = rng.normal(size=100) + 1j * rng.normal(size=100)
        z *= rng.uniform(0, 1, size=100) / np.abs(z)
        resid = np.abs(eval_f_batch(sys, sys.a * z)
                       - sys.P.eval_array(eval_f_batch(sys, z)))
        worst = max(worst, float(resid.max()))
    ok = worst <= 1e-9
    _report(4, ok, f"worst |f(az) - P(f(z))| = {worst:.3e} (<=1e-9), "
                   f"100 points per system, |z|<=1")


def test_criterion_05_three_route_agreement_depth_fourteen():
    rng = np.random.default_rng(103)
    worst_excess = -np.inf
    worst_dev = 0.0
    for make in ALL_SYSTEMS:
        sys = make()
        z = rng.normal(size=10) + 1j * rng.normal(size=10)
        z *= 2 * rng.uniform(0, 1, size=10) / np.abs(z)
        report = cross_check(sys, z, 14)
        for row in report.rows:
            worst_excess = max(worst_excess,
                               row.max_deviation - (1e-6 + row.claimed_budget))
            worst_dev = max(worst_dev, row.max_deviation)
    ok = worst_excess <= 0
    _report(5, ok,
            f"max deviation {worst_dev:.3e}, worst (dev - 1e-6 - budget) = "
            f"{worst_excess:.3e} (<=0), 10 points per system, depth 14")


def test_criterion_06_roundtrip_support_six():
    # Products run at 1e-13 relative tolerance: the deepest degree-3
    # addresses sit at |z| ~ 1.2e7 where even a within-contract 1e-12 tail
    # costs more absolute position than the 1e-7 roundtrip budget.
    worst = 0.0
    for make in ALL_SYSTEMS:
        sys = make()
        for w in (0j, 0.3 + 0.1j, -2.0 + 0j):
            fine = dataclasses.replace(sys, product_tolerance=1e-13)
            sweep = sweep_products(fine, w, 6)
            back = eval_f_batch(sys, sweep.values)
            worst = max(worst, float(np.max(np.abs(back - w))))
    ok = worst <= 1e-7
    _report(6, ok, f"worst |f(g_sigma(w)) - w| = {worst:.3e} (<=1e-7), "
                   f"support<=6, three anchors, three systems")


def test_criterion_07_growth_floor_stability():
    details = []
    ok = True
    for make in ALL_SYSTEMS:
        sys = make()
        sweep = sweep_products(sys, 0j, 8)
        a_abs = abs(sys.a)
        floors = {}
        for s in range(1, 9):
            mask = sweep.support == s
            floors[s] = float(np.min(np.abs(sweep.values[mask])) * a_abs**-s)
        spread = max(floors[s] for s in range(4, 9)) / \
            min(floors[s] for s in range(4, 9))
        ok = ok and min(floors.values()) > 0 and spread < 10
        details.append(f"min {min(floors.values()):.3e} spread(4..8) "
                       f"{spread:.2f}x")
    _report(7, ok, "; ".join(details) + " (positive, <10x)")


def test_criterion_08_oracle_agreement_50_points():
    sys = chebyshev_system()
    rng = np.random.default_rng(107)
    z = rng.normal(size=50) + 1j * rng.normal(size=50)
    z *= 3 * rng.uniform(0, 1, size=50) / np.abs(z)
    worst = max(abs(eval_f_direct(sys, zi) - oracle_chebyshev(zi))
                for zi in z)
    ok = worst <= 1e-9
    _report(8, ok, f"worst |f - cos(sqrt(-2z))| = {worst:.3e} (<=1e-9), "
                   f"50 points, |z|<=3")


def test_criterion_09_taylor_second_derivative():
    cases = [(chebyshev_system(), 1 / 3), (golden_system(), 1 / (PHI * math.sqrt(5)))]
    details = []
    ok = True
    for sys, closed in cases:
        rec = taylor_at_zero(sys, 2).derivative_at_zero(2)
        h = 1e-4
        fd = (eval_f_direct(sys, h) - 2 * eval_f_direct(sys, 0.0)
              + eval_f_direct(sys, -h)) / h**2
        rel_closed = abs(rec - closed) / abs(closed)
        rel_fd = abs(rec - fd) / abs(rec)
        ok = ok and rel_closed <= 1e-12 and rel_fd <= 1e-5
        details.append(f"f''(0)={rec.real:.12f} vs closed {closed:.12f} "
                       f"(rel {rel_closed:.1e}), vs central diff rel "
                       f"{rel_fd:.1e}")
    _report(9, ok, "; ".join(details) + " (<=1e-5 rel)")


def test_criterion_10_byte_identical_across_threads():
    problem = str(ROOT / "problems" / "golden.json")
    outputs = []
    for threads in (1, 4):
        env = dict(os.environ, SPZEROS_THREADS=str(threads))
        r = subprocess.run(
            [sys.executable, "-m", "spzeros", "zeros", problem,
             "--max-support", "10"],
            capture_output=True, env=env, cwd=str(ROOT))
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    identical = outputs[0] == outputs[1]
    rows = outputs[0].count(b"\n") - 1
    ok = identical and rows == 1024
    _report(10, ok, f"SPZEROS_THREADS 1 vs 4: byte-identical={identical}, "
                    f"{rows} rows")
