"""Cross-validation helpers: reference systems, zero clustering, route checks.

Three worked systems with known closed forms back the test suite:

* chebyshev: P(z) = 2z^2 - 1, b = 1, a = 4, where f(z) = cos(sqrt(-2z))
  extends to an entire function of z with zeros -(2k-1)^2 pi^2 / 8;
* golden:    P(z) = z^2 - 1 with b the golden ratio, a = 2b;
* cubic:     P(z) = z^3 - 6, b = 2, a = 12.

cross_check evaluates f along several independent routes (direct iteration,
the anchored product, the fixed-point ladder product) and reports the worst
pairwise disagreement together with the error budget the product routes
claim for themselves.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .branches import at_fixed_point, sweep_products
from .errors import AmbiguousClustering, ValidationError
from .factor import wh_eval
from .poly import ComplexPolynomial
from .system import build_system, eval_f_batch

# Largest support of the addresses cross_check round-trips at every anchor;
# a smaller max_support lowers it.
ROUNDTRIP_SUPPORT = 4


def chebyshev_system():
    """P(z) = 2z^2 - 1 at b = 1: f(z) = cos(sqrt(-2z))."""
    return build_system(ComplexPolynomial((-1, 0, 2)), fixed_point_hint=1.0)


def golden_system():
    """P(z) = z^2 - 1 at the golden ratio: a = 2b = 1 + sqrt(5)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    return build_system(ComplexPolynomial((-1, 0, 1)), fixed_point_hint=phi)


def cubic_system():
    """P(z) = z^3 - 6 at b = 2: a = 12, three-way branching."""
    return build_system(ComplexPolynomial((-6, 0, 0, 1)), fixed_point_hint=2.0)


def oracle_chebyshev(z):
    """cos(sqrt(-2z)), the Chebyshev solution f, in complex double arithmetic.

    cos is even, so the branch of the square root does not matter. This
    closed form is independent of the product routes and of eval_f_batch's
    iteration, and stays accurate at any |z|, where the power series
    sum (2z)^n/(2n)! would cancel: its terms grow to about e^sqrt(2|z|).
    """
    return cmath.cos(cmath.sqrt(-2.0 * complex(z)))


@dataclass(frozen=True)
class ZeroCluster:
    """A group of address products agreeing to within the clustering radius."""

    center: complex
    multiplicity: int
    diameter: float
    members: tuple


def cluster_zeros(pairs, tol):
    """Single-linkage clustering of (address, value) pairs at radius tol.

    Distinct zeros of f can be reached through several addresses when a
    critical orbit makes an inverse step collapse; the multiplicity of a
    cluster counts those coincident addresses. Raises AmbiguousClustering
    when some inter-cluster gap is below 10 tol, since then the grouping
    depends on the radius. Quadratic in len(pairs).
    """
    pairs = list(pairs)
    n = len(pairs)
    if n == 0:
        return []
    values = np.array([complex(v) for _, v in pairs])
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    dist = np.abs(values[:, None] - values[None, :])
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    roots = list(groups)
    for gi in range(len(roots)):
        for gj in range(gi + 1, len(roots)):
            gap = min(dist[i, j]
                      for i in groups[roots[gi]] for j in groups[roots[gj]])
            if gap < 10.0 * tol:
                raise AmbiguousClustering(
                    f"inter-cluster gap {gap:.3e} below 10 x tol = {10 * tol:.3e}"
                )

    clusters = []
    for members in groups.values():
        pts = values[members]
        center = complex(pts.mean())
        diameter = float(np.max(np.abs(pts[:, None] - pts[None, :]))) if len(members) > 1 else 0.0
        clusters.append(ZeroCluster(
            center=center,
            multiplicity=len(members),
            diameter=diameter,
            members=tuple(pairs[i][0] for i in members),
        ))
    clusters.sort(key=lambda c: (c.center.real, c.center.imag))
    return clusters


@dataclass(frozen=True)
class CrossCheckRow:
    """Values of f(z) along each route plus their worst disagreement,
    which is nan when a route is not finite."""

    z: complex
    direct: complex
    product_anchored: complex
    product_ladder: complex
    max_deviation: float
    claimed_budget: float


@dataclass(frozen=True)
class CrossCheckReport:
    rows: tuple
    roundtrips: tuple
    worst_deviation: float
    worst_roundtrip: float


def cross_check(sys, samples, max_support, anchor=0j, products=True,
                roundtrip=True):
    """Evaluate f at each sample by three routes and round-trip the branches.

    Routes: direct functional iteration, the product anchored at `anchor`,
    and the fixed-point ladder product. The round-trip leg treats each sample
    as an anchor w, inverts f through every address of support up to
    ROUNDTRIP_SUPPORT and max_support, and confirms f(g_sigma(w)) = w by
    direct iteration. With products False only the round trips run (the
    product routes need d < |a|), and rows is empty. With roundtrip False no anchor
    is swept, f is evaluated at the samples alone, roundtrips is empty and
    worst_roundtrip is 0. An anchor at b is refused where the product
    routes run: the anchored route would be the ladder route again.
    """
    if products and at_fixed_point(sys, anchor):
        raise ValidationError(f"the anchored route needs an anchor away "
                              f"from the fixed point b = {sys.b}")
    samples = [complex(z) for z in samples]
    anchors = samples if roundtrip else []
    depth = min(ROUNDTRIP_SUPPORT, max_support)
    solutions = [sweep_products(sys, w, depth).values for w in anchors]
    # One eval_f_batch call for the direct route at every sample and every
    # anchor's round trip: its cost is mostly per call, not per point.
    points = np.concatenate([np.array(samples, dtype=np.complex128),
                             *solutions])
    ends = np.cumsum([len(samples)] + [s.size for s in solutions])[:-1]
    limits, *back = np.split(eval_f_batch(sys, points), ends)
    roundtrips = [(w, float(np.max(np.abs(part - w))))
                  for w, part in zip(anchors, back)]

    rows = []
    for z, direct in zip(samples if products else (), limits):
        direct = complex(direct)
        anchored = wh_eval(sys, z, anchor, max_support)
        ladder = wh_eval(sys, z, sys.b, max_support)
        trio = (direct, anchored.product_value, ladder.product_value)
        # Python's abs(complex), not np.abs, which differs from it in the
        # last bit on about a third of values. A route that is not finite
        # makes the deviation nan: max would keep |direct - direct| = 0,
        # since every comparison with nan is false.
        deviation = (max(abs(x - y) for x in trio for y in trio)
                     if all(map(cmath.isfinite, trio)) else math.nan)
        rows.append(CrossCheckRow(
            z=z, direct=direct,
            product_anchored=anchored.product_value,
            product_ladder=ladder.product_value,
            max_deviation=deviation,
            claimed_budget=anchored.tail_bound + ladder.tail_bound,
        ))

    return CrossCheckReport(
        rows=tuple(rows),
        roundtrips=tuple(roundtrips),
        # np.max, unlike max, keeps a row's nan.
        worst_deviation=float(np.max([r.max_deviation for r in rows],
                                     initial=0.0)),
        worst_roundtrip=max((e for _, e in roundtrips), default=0.0),
    )
