"""Entire solutions of the polynomial self-similarity equation f(az) = P(f(z)).

Given a polynomial P with a repelling fixed point b (P(b) = b, |P'(b)| > 1,
b != 0), there is a unique entire f with f(0) = b, f'(0) = 1 satisfying
f(az) = P(f(z)) for a = P'(b). This package constructs f, enumerates its
zeros and all solutions of f(z) = w through convergent infinite products
indexed by inverse-branch addresses, evaluates f by genus-zero product
formulas, and verifies the momenta identities that the branch values satisfy.
"""

import os

# No spzeros BLAS call is big enough to thread, and spzeros itself runs in
# one thread. Set before numpy loads; a caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .branches import (
    BranchProduct,
    BranchSweep,
    HypothesisReport,
    SigmaSequence,
    check_hypothesis1,
    branch_labels,
    contraction_delta,
    enumerate_sigma,
    g0_and_derivative,
    geometric_tail,
    growth_floor,
    inverse_branch,
    principal_branch,
    sweep_products,
    sweep_solutions_at_b,
    tail_bound,
    zero_product,
)
from .errors import (
    AmbiguousClustering,
    DegreeTooLow,
    DivergentMoment,
    DivergentTail,
    FixedPointViolation,
    InvalidIndices,
    NoRepellingFixedPoint,
    NonConvergence,
    OrderTooLarge,
    ParseError,
    SPZerosError,
    ValidationError,
    ZeroDenominator,
    ZeroFixedPoint,
)
from .factor import (
    MomentReport,
    WHEvaluation,
    closed_form_momentum,
    moment_sum,
    moment_sums,
    vieta_sums,
    wh_eval,
)
from .poly import ComplexPolynomial, all_roots, q_polynomial, roots_batch
from .problemfile import (
    ProblemSpec,
    load_problem,
    parse_problem,
    serialize_problem,
    system_from_spec,
)
from .system import (
    SPSystem,
    TaylorCoefficients,
    bell_polynomial,
    build_system,
    eval_f_batch,
    eval_f_direct,
    taylor_at_zero,
)
from .verify import (
    CrossCheckReport,
    CrossCheckRow,
    ZeroCluster,
    chebyshev_system,
    cluster_zeros,
    cross_check,
    cubic_system,
    golden_system,
    oracle_chebyshev,
)

__version__ = "0.1.0"

__all__ = [
    "BranchProduct",
    "BranchSweep",
    "ComplexPolynomial",
    "CrossCheckReport",
    "CrossCheckRow",
    "HypothesisReport",
    "MomentReport",
    "ProblemSpec",
    "SPSystem",
    "SigmaSequence",
    "TaylorCoefficients",
    "WHEvaluation",
    "ZeroCluster",
    "all_roots",
    "bell_polynomial",
    "branch_labels",
    "build_system",
    "check_hypothesis1",
    "chebyshev_system",
    "closed_form_momentum",
    "cluster_zeros",
    "contraction_delta",
    "cross_check",
    "cubic_system",
    "enumerate_sigma",
    "eval_f_batch",
    "eval_f_direct",
    "g0_and_derivative",
    "geometric_tail",
    "golden_system",
    "growth_floor",
    "inverse_branch",
    "load_problem",
    "moment_sum",
    "moment_sums",
    "oracle_chebyshev",
    "parse_problem",
    "principal_branch",
    "q_polynomial",
    "roots_batch",
    "serialize_problem",
    "sweep_products",
    "sweep_solutions_at_b",
    "system_from_spec",
    "tail_bound",
    "taylor_at_zero",
    "vieta_sums",
    "wh_eval",
    "zero_product",
    # errors
    "SPZerosError",
    "AmbiguousClustering",
    "DegreeTooLow",
    "DivergentMoment",
    "DivergentTail",
    "FixedPointViolation",
    "InvalidIndices",
    "NoRepellingFixedPoint",
    "NonConvergence",
    "OrderTooLarge",
    "ParseError",
    "ValidationError",
    "ZeroDenominator",
    "ZeroFixedPoint",
]
