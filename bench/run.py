"""spzeros benchmark: three CLI workloads, checked against exact answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/spzeros and
problems/). Each operation is one spzeros CLI call in a fresh child process
(bench/child.py), so no lru_cache of one call can serve the next. The run
repeats whole rounds until S seconds have passed, checks every output with
bench/checks.py outside the timed call, and prints one JSON object as the
last line of stdout:

    --trace 0  rounds of one call at SPZEROS_THREADS=2; the medians of
               cpu_s, peak_rss_mb and setup_s. The median wall time goes
               to stderr only: on a shared host it follows the host's load
               more than the program.
    --trace 1  rounds of one untraced and one traced call, both at
               SPZEROS_THREADS=1; the medians of the per-layer metrics of
               the traced calls, and trace.overhead_s (traced minus
               untraced median wall time).

Progress and the checks' figures go to stderr. The exit code is 0 when a
result was printed, 2 when the checkout cannot run the benchmark.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OP_TIMEOUT_S = 120
TIMED_THREADS = 2
TRACED_THREADS = 1

ZEROS_DEPTH = 16
MOMENTS_DEPTH = 18
MOMENT_ORDERS = (1, 2, 3)
WH_DEPTH = 15
WH_POINTS = 32
WH_RADIUS = 3.0

CHEBYSHEV = "problems/chebyshev2.json"
GOLDEN = "problems/golden.json"


def wh_points(seed):
    """WH_POINTS points uniform in the disk |z| <= WH_RADIUS."""
    rng = random.Random(seed)
    points = []
    for _ in range(WH_POINTS):
        r = WH_RADIUS * math.sqrt(rng.random())
        t = 2.0 * math.pi * rng.random()
        points.append(complex(r * math.cos(t), r * math.sin(t)))
    return points


def workload(name, seed):
    """(problem file, cli argv without -o, check of the output text)."""
    if name == "zeros-chebyshev":
        return (CHEBYSHEV,
                ["zeros", CHEBYSHEV, "--max-support", str(ZEROS_DEPTH)],
                lambda text: checks.check_zeros_chebyshev(text, ZEROS_DEPTH))
    if name == "moments-golden":
        orders = ",".join(str(m) for m in MOMENT_ORDERS)
        return (GOLDEN,
                ["moments", GOLDEN, "--m", orders,
                 "--max-support", str(MOMENTS_DEPTH)],
                lambda text: checks.check_moments_golden(
                    text, MOMENTS_DEPTH, MOMENT_ORDERS))
    if name == "wh-chebyshev":
        points = wh_points(seed)
        return (CHEBYSHEV,
                ["wh", CHEBYSHEV, "--max-support", str(WH_DEPTH)]
                + [f"--z={p.real!r},{p.imag!r}" for p in points],
                lambda text: checks.check_wh_chebyshev(text, points))
    raise ValueError(name)


WORKLOADS = ("zeros-chebyshev", "moments-golden", "wh-chebyshev")


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(op):
    """Per-layer metrics of one traced operation: name -> (value, unit)."""
    L = op["layers"]

    def get(layer, key):
        return L.get(layer, {}).get(key, 0)

    out = {}
    for layer, work in (("poly.roots_batch", "points"),
                        ("branches.expand_level", "nodes"),
                        ("branches.tail_products", "leaves"),
                        ("branches.principal_step", "points"),
                        ("branches.conjugate_newton", "points"),
                        ("factor.wh_eval", "values"),
                        ("system.eval_f_batch", "points")):
        out[f"{layer}.{work}"] = (get(layer, work), "count")
    for layer in ("poly.roots_batch", "factor.wh_eval", "factor.growth_floor",
                  "system.eval_f_batch", "system.eval_f_direct"):
        out[f"{layer}.calls"] = (get(layer, "calls"), "count")
    for layer in ("poly.roots_batch", "branches.expand_level",
                  "branches.tail_products", "branches.principal_step",
                  "branches.conjugate_newton", "branches.contraction",
                  "factor.wh_eval", "factor.growth_floor",
                  "factor.moment_sum", "system.eval_f_batch",
                  "system.eval_f_direct", "verify.cross_check",
                  "cli.output"):
        out[f"{layer}.self_s"] = (get(layer, "self_s"), "s")
    for layer, work, key, scale, unit in (
            ("poly.roots_batch", "points", "us_per_point", 1e6, "us"),
            ("branches.expand_level", "nodes", "us_per_node", 1e6, "us"),
            ("branches.tail_products", "leaves", "us_per_leaf", 1e6, "us"),
            ("factor.wh_eval", "values", "ns_per_value", 1e9, "ns"),
            ("system.eval_f_batch", "points", "us_per_point", 1e6, "us")):
        out[f"{layer}.{key}"] = (
            _ratio(get(layer, "self_s"), get(layer, work), scale), unit)
    tail = "branches.tail_products"
    out[f"{tail}.steps_per_leaf"] = (
        _ratio(get(tail, "steps"), get(tail, "leaves")), "steps/leaf")
    out[f"{tail}.unconverged"] = (get(tail, "unconverged"), "count")
    out[f"{tail}.deep_share"] = (
        _ratio(get("branches.conjugate_newton", "tail_points"),
               get(tail, "steps")), "ratio")
    out["cli.output.rows"] = (op["rows"], "count")
    out["cli.output.us_per_row"] = (
        _ratio(get("cli.output", "self_s"), op["rows"], 1e6), "us")
    return out


class Runner:
    """Spawns operations for one workload and collects their reports."""

    def __init__(self, name, seed, work):
        self.name = name
        self.problem, self.argv, self.check = workload(name, seed)
        self.out = work / "out.csv"
        self.correct = True
        self.ops = []

    def spawn(self, cfg, threads):
        env = dict(os.environ, SPZEROS_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}:\n"
                               f"{proc.stderr.strip()}")
        lines = proc.stdout.splitlines()
        return json.loads(lines[-1]) if lines else None

    def operation(self, threads, trace):
        """One timed CLI call, then its checks, outside the timed call."""
        op = self.spawn({"problem": self.problem, "trace": trace,
                         "argv": self.argv + ["-o", str(self.out)]}, threads)
        op["trace"] = trace
        text = self.out.read_text() if self.out.exists() else ""
        self.out.unlink(missing_ok=True)
        op["rows"] = max(0, text.count("\n") - 1)
        if op["exit_code"] == 0:
            try:
                failures, notes = self.check(text)
            except (ValueError, IndexError) as exc:
                failures, notes = [f"unreadable output: {exc}"], {}
            if trace and not op["self_s_total"] <= op["wall_s"]:
                failures.append(f"self times sum to {op['self_s_total']:.6f}"
                                f" s > wall {op['wall_s']:.6f} s")
            for failure in failures:
                print(f"CHECK FAILED {self.name}: {failure}", file=sys.stderr)
            self.correct = self.correct and not failures
        else:
            notes = {"exit_code": op["exit_code"]}
        print(f"{self.name} op {len(self.ops) + 1} trace={int(trace)} "
              f"threads={threads} wall_s={op['wall_s']:.4f} "
              f"setup_s={op['setup_s']:.4f} {json.dumps(notes)}",
              file=sys.stderr)
        self.ops.append(op)
        return op


def _median(ops, key):
    return statistics.median(op[key] for op in ops)


def run(name, seed, seconds, trace, work):
    runner = Runner(name, seed, work)
    runner.spawn({"warmup": True}, TIMED_THREADS)
    deadline = time.monotonic() + seconds
    while True:
        if trace:
            runner.operation(TRACED_THREADS, False)
            runner.operation(TRACED_THREADS, True)
        else:
            runner.operation(TIMED_THREADS, False)
        if time.monotonic() >= deadline:
            break

    if trace:
        traced = [op for op in runner.ops if op["trace"]]
        plain = [op for op in runner.ops if not op["trace"]]
        absent = sorted(set().union(*(op["absent"] for op in traced)))
        if absent:
            print(f"absent layers: {' '.join(absent)}", file=sys.stderr)
        per_op = [layer_metrics(op) for op in traced]
        metrics = {key: {"value": statistics.median(m[key][0] for m in per_op),
                         "unit": unit}
                   for key, (_, unit) in per_op[0].items()}
        untraced_wall = _median(plain, "wall_s")
        metrics["trace.overhead_s"] = {
            "value": _median(traced, "wall_s") - untraced_wall, "unit": "s"}
        print(f"{name}: untraced median wall_s {untraced_wall:.4f} at "
              f"SPZEROS_THREADS={TRACED_THREADS}", file=sys.stderr)
    else:
        metrics = {key: {"value": _median(runner.ops, key), "unit": unit}
                   for key, unit in (("cpu_s", "s"), ("peak_rss_mb", "MB"),
                                     ("setup_s", "s"))}
        print(f"{name}: median wall_s {_median(runner.ops, 'wall_s'):.4f} "
              f"at SPZEROS_THREADS={TIMED_THREADS}", file=sys.stderr)
    return {
        "correct": runner.correct,
        "attempted": len(runner.ops),
        "failed": sum(op["exit_code"] != 0 for op in runner.ops),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/spzeros/cli.py", CHEBYSHEV, GOLDEN)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a spzeros checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, work)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
