"""Digest of the command-line tool's output on the shipped problems.

Runs each subcommand on every problems/*.json at fixed small depths, once
each, in a fresh interpreter against this checkout's src/. Prints one line
per run:

    <arguments> exit=<code> stderr_lines=<n> sha256=<stdout's>
        stderr_sha256=<stderr's>

(on one line). Two checkouts whose digests are equal print the same bytes
on every run, so diffing the digests of two commits shows whether a
change kept the output. The count of stderr lines tells a one-line
`error:` message from a traceback, and the stderr hash shows a reworded
message or a new warning. Before hashing, stderr has the checkout's root
path replaced by ROOT, so that tracebacks and warnings compare across
checkouts. The last twelve runs of RUNS feed the CLI bad input: an
anchor whose momentum terms overflow, three non-finite values, an anchor
with three parts, which the argument parser rejects, max_support 0 for
the three commands whose tail bounds need an address of support >= 1,
the momenta at w = 1 (Chebyshev's fixed point; on the other problems an
ordinary anchor), a --png raster one column over the size bound, an
invert circle of a billion anchors, whose tables together exceed 2^24
rows, and a momentum order one above the bound on --m. A checkout that
lacks the circle bound would try to build the billion anchors, so run
this tool there without that run.

SHIPPED_RUNS adds runs made on one shipped problem only: golden's table
at its fixed point b, whose ladder rungs scale by the irrational a = 2b,
at depth 12 and at depth 17, where the w = b sweep spans eight chunks of
the sweep driver (2^14 leaves each); golden's momenta of orders 1 to 3 at
depth 17, eight chunks; golden's wh at depth 18, whose ladder sweep spans
eight chunks and whose anchored sweep spans sixteen; golden's momenta of
orders 12, 24 and 32 at depth 8, whose closed forms reach
MAX_MOMENT_ORDER = 32, the largest order --m accepts; and cubic6's momenta
of orders 2 and 3 at depth 11, fourteen chunks of two 3^8-leaf subtrees
(the last of one), whose offsets are multiples of 2 3^8, so that the
chunks cut the support shells of d = 3 unaligned.

The shipped P are all unicritical, so their inverse branches take a closed
form. GENERAL adds two P that are not, whose branches come from the root
solver; Chebyshev at n_cap 2, whose tails stop at the cap; and
z^2 + (-1+0.3i), a unicritical P whose a and t_b are complex, unlike those
of the shipped problems, so that its complex products round by the order
of their operands. WIDE is a P of degree 11, whose addresses are
comma-separated and, from two digits on, quoted. Their problem files are
written to a temporary directory, and the runs of GENERAL_RUNS and
WIDE_RUNS name them by file name alone.
Usage, from any directory:

    python3 tools/cli_digest.py > digest.txt
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Arguments after the problem path. The circle of radius 2 holds w = 2,
# which is the fixed point b of cubic6.json, so the w = b ladder is covered.
# The anchor -3e4+i gives solutions of large |g|, where the round-trip
# budget's slope |f'(g)| varies on short scales; 0.999 lies next to the
# critical value 1 of Chebyshev's f, so every row's slope f'(g) is small;
# w = 1 is that critical value itself, where solutions are double. The
# anchor 1e20 has inverse branches of size 1e10 at the first step. At
# tol 1e-17 the tail series is entered at a smaller radius, after more
# steps; no shipped P reaches n_cap there (chebyshev-ncap2.json of GENERAL
# does, which adds the converged column). check at tol 1e-10 evaluates f
# at that tolerance in every invariant, taylor_d2's included. The support-9
# runs cross a block of the row writer: 19,683 zeros of cubic6, and a
# circle whose w = b ladder table alone has 19,682 rows. wh at z = -40+3i
# lies beyond a quarter of the smallest ladder base on every shipped P, so
# the w = b ladder takes explicit rungs before its closed-form rung sum.
# At w = -3 Chebyshev's first step has v + kappa = -2, so its two roots
# are +-i and tie in distance from b: the tie rule's angle decides.
# wh at z = -1e5 has a product budget too large for a double: the row
# prints claimed_budget inf on Chebyshev and golden. At z = -1e8 both
# product routes overflow there, so the row's max_deviation is nan and
# fails, while cubic6's direct route ends in an orbit overflow error. The
# PNG of the last
# run is written to os.devnull wherever the size is accepted.
RUNS = (
    ("zeros", "--max-support", "6"),
    ("invert", "--max-support", "5", "--w=-2,0.5", "--verify"),
    ("invert", "--max-support", "4", "--circle", "2,5", "--verify"),
    ("invert", "--max-support", "6", "--w=-3e4,1", "--verify"),
    ("invert", "--max-support", "10", "--w=0.999", "--verify"),
    ("moments", "--max-support", "8", "--m", "1,2"),
    ("wh", "--max-support", "8", "--z=-1.2,0.3", "--z", "2,1"),
    ("wh", "--max-support", "8", "--z=-40,3"),
    ("check", "--max-support", "6"),
    ("check", "--max-support", "6", "--tol", "1e-10"),
    ("invert", "--w=1", "--verify"),
    ("invert", "--max-support", "2", "--w=1e20"),
    ("zeros", "--max-support", "8", "--tol", "1e-17"),
    ("zeros", "--max-support", "9"),
    ("invert", "--max-support", "9", "--circle", "2,5"),
    ("invert", "--max-support", "6", "--w=-3,0", "--verify"),
    ("wh", "--max-support", "4", "--z=-1e5,0"),
    ("wh", "--max-support", "8", "--z=-1e8,0"),
    ("moments", "--w=1e300"),
    ("invert", "--max-support", "2", "--w=nan"),
    ("wh", "--max-support", "2", "--z=inf"),
    ("zeros", "--max-support", "2", "--tol", "nan"),
    ("invert", "--w=1,2,3"),
    ("moments", "--max-support", "0"),
    ("wh", "--max-support", "0", "--z=1,0"),
    ("check", "--max-support", "0"),
    ("moments", "--w=1"),
    ("zeros", "--max-support", "2", "--png", "8193x8192",
     "--png-path", os.devnull),
    ("invert", "--circle", "1,1000000000"),
    ("moments", "--m", "33"),
)

# (file name under problems/, arguments after its path). The w = b table of
# golden.json at its default depth: 4,096 rows, every rung scaled by a
# power of a = 2b = 1 + sqrt(5); at depth 17 the same table has 131,072
# rows from eight sweep chunks. Golden's momenta at depth 17: 131,072
# addresses, eight sweep chunks, summed shell by shell for m = 1, 2, 3.
# Golden's wh at depth 18 beyond a quarter of the smallest ladder base:
# a ladder sweep of eight chunks and an anchored sweep of sixteen. Golden's
# momenta at orders up to the bound on --m, whose closed form is the
# series recursion at its longest. Cubic6's momenta at depth 11: 177,147
# addresses reduced in fourteen chunks that start off the powers of 3.
SHIPPED_RUNS = (
    ("golden.json", "invert", "--max-support", "12",
     "--w=1.618033988749895", "--verify"),
    ("golden.json", "invert", "--max-support", "17",
     "--w=1.618033988749895"),
    ("golden.json", "moments", "--max-support", "17", "--m", "1,2,3"),
    ("golden.json", "wh", "--max-support", "18", "--z=-40,3"),
    ("golden.json", "moments", "--max-support", "8", "--m", "12,24,32"),
    ("cubic6.json", "moments", "--max-support", "11", "--m", "2,3"),
)

# (file name, problem, fixed point b as an --w value). The quartic
# (-1+0.2i) + 0.3 z^2 + z^4 has a complex b and a; z^3 - z + 1 (b = 1,
# a = 2) runs at a root_tolerance other than the default 1e-13. Since
# d = 3 > |a| there, its moments end in an error line and exit 2 (order 1
# diverges), and check skips its product routes. chebyshev-ncap2.json is
# chebyshev2.json with n_cap 2: a tail may take one principal step before
# its series, so deeper leaves are flagged in the converged column.
# complex-quadratic.json is z^2 + (-1+0.3i): closed-form branches with
# complex a and t_b.
GENERAL = (
    ("quartic.json",
     {"coefficients": [[-1.0, 0.2], [0.0, 0.0], [0.3, 0.0], [0.0, 0.0],
                       [1.0, 0.0]],
      "fixed_point_hint": [1.5, 0.0], "max_support": 4,
      "product_tolerance": 1e-12, "n_cap": 200, "root_tolerance": 1e-13},
     "1.1524245917662395,-0.03443497606698552"),
    ("z3-z+1.json",
     {"coefficients": [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
      "fixed_point_hint": [1.0, 0.0], "max_support": 4,
      "product_tolerance": 1e-12, "n_cap": 200, "root_tolerance": 1e-10},
     "1"),
    ("chebyshev-ncap2.json",
     {"coefficients": [[-1.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
      "fixed_point_hint": [1.0, 0.0], "max_support": 12,
      "product_tolerance": 1e-12, "n_cap": 2, "root_tolerance": 1e-13},
     "1"),
    ("complex-quadratic.json",
     {"coefficients": [[-1.0, 0.3], [0.0, 0.0], [1.0, 0.0]],
      "fixed_point_hint": [1.6, 0.0], "max_support": 4,
      "product_tolerance": 1e-12, "n_cap": 200, "root_tolerance": 1e-13},
     "1.6259431631344106,-0.13322164467203534"),
)
# Arguments after the problem path; {b} is the problem's fixed point.
GENERAL_RUNS = (
    ("zeros", "--max-support", "5"),
    ("invert", "--max-support", "5", "--w=-2,0.5", "--verify"),
    ("invert", "--max-support", "5", "--w={b}"),
    ("moments", "--max-support", "5"),
    ("check", "--max-support", "5"),
)
# P(z) = 2 z^11 - 1 (b = 1, a = 22). Its runs stay at depth 2, 121 rows:
# depth 5 would be 161,051. Its momenta sum shells of 10 and 110 addresses.
WIDE = (
    "2z11-1.json",
    {"coefficients": [[-1.0, 0.0]] + [[0.0, 0.0]] * 10 + [[2.0, 0.0]],
     "fixed_point_hint": [1.0, 0.0], "max_support": 2,
     "product_tolerance": 1e-12, "n_cap": 200, "root_tolerance": 1e-13},
    "1")
WIDE_RUNS = (
    ("zeros", "--max-support", "2"),
    ("invert", "--max-support", "2", "--w=-2,0.5", "--verify"),
    ("moments", "--max-support", "2", "--m", "1,2,3"),
)


def _digest(env, argv, shown):
    """Run the CLI on argv and print its line, with `shown` as arguments."""
    proc = subprocess.run(
        [sys.executable, "-m", "spzeros", *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    stderr = proc.stderr.replace(str(ROOT).encode(), b"ROOT")
    print(f"{' '.join(shown)} exit={proc.returncode} "
          f"stderr_lines={len(proc.stderr.splitlines())} "
          f"sha256={hashlib.sha256(proc.stdout).hexdigest()} "
          f"stderr_sha256={hashlib.sha256(stderr).hexdigest()}", flush=True)


def main():
    problems = sorted((ROOT / "problems").glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, problem, _ in (*GENERAL, WIDE):
            path = Path(tmp) / name
            path.write_text(json.dumps(problem))
            paths[name] = str(path)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for command, *rest in RUNS:
            for problem in problems:
                argv = [command, str(problem.relative_to(ROOT)), *rest]
                _digest(env, argv, argv)
        for name, command, *rest in SHIPPED_RUNS:
            argv = [command, f"problems/{name}", *rest]
            _digest(env, argv, argv)
        for runs, entries in ((GENERAL_RUNS, GENERAL), (WIDE_RUNS, (WIDE,))):
            for command, *rest in runs:
                for name, _, b in entries:
                    rest_b = [arg.format(b=b) for arg in rest]
                    _digest(env, [command, paths[name], *rest_b],
                            [command, name, *rest_b])


if __name__ == "__main__":
    main()
