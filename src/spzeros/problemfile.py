"""Problem files: strict JSON descriptions of one equation instance.

A problem file is a JSON object with exactly six keys:

    coefficients       P lowest-degree-first, each entry a [re, im] pair,
                       at least three entries (degree >= 2)
    fixed_point_hint   [re, im] seed for locating the repelling fixed point
    max_support        address enumeration depth, 0..24, d^depth <= 2^24
    product_tolerance  relative tail target for every infinite product,
                       and the evaluator's convergence tolerance
    n_cap              hard cap on a product's tail factors
    root_tolerance     residual target for polynomial root extraction

system_from_spec sets the last three once, as the SPSystem fields of the
same names, after the CLI's --tol has replaced product_tolerance.

Unknown keys are rejected so a typo in a tolerance name cannot silently
fall back to a default. parse_problem and serialize_problem are inverse
to each other on valid inputs.
"""

import json
import math
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .poly import ComplexPolynomial

_REQUIRED_KEYS = (
    "coefficients",
    "fixed_point_hint",
    "max_support",
    "product_tolerance",
    "n_cap",
    "root_tolerance",
)


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem instance: polynomial plus truncation knobs."""

    coefficients: tuple
    fixed_point_hint: complex
    max_support: int
    product_tolerance: float
    n_cap: int
    root_tolerance: float

    @property
    def degree(self):
        return len(self.coefficients) - 1


def _require_number(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    # json.loads accepts NaN, Infinity and -Infinity.
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite")
    return number


def check_tolerance(value, name):
    """A finite, positive tolerance: a problem-file value or a --tol."""
    value = _require_number(value, name)
    if value <= 0:
        raise ValidationError(f"{name} must be positive")
    return value


def _require_int(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer")
    return value


def _require_pair(value, name):
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"{name} must be a [re, im] pair")
    return complex(_require_number(value[0], name),
                   _require_number(value[1], name))


def check_enumeration_size(degree, max_support, tables=1):
    """Refuse max_support when `tables` tables of degree^max_support rows,
    held at once, would exceed 2^24 rows."""
    if max_support < 0:
        raise ValidationError("max_support must be nonnegative")
    if max_support > 24:
        raise ValidationError("max_support must be at most 24")
    # 2^24 rows is depth 24 for d = 2, 15 for d = 3, 12 for d = 4. A held
    # table adds about 28 B of peak memory per row, invert --verify 240 B
    # more. The message keeps its "about 1.9 GB", since its bytes are output.
    if tables * degree ** max_support > 2 ** 24:
        size = f"{degree}^{max_support}"
        if tables > 1:
            size = f"{tables} x {size}"
        raise ValidationError(
            f"enumeration size {size} exceeds 2^24 rows, "
            "about 1.9 GB of memory")


def parse_problem(text):
    """Parse and validate a problem file (bytes or str, UTF-8 JSON)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"problem file is not UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno, column=exc.colno,
        ) from exc
    if not isinstance(data, dict):
        raise ValidationError("problem file must be a JSON object")
    unknown = sorted(set(data) - set(_REQUIRED_KEYS))
    if unknown:
        raise ValidationError(f"unknown key(s): {', '.join(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise ValidationError(f"missing key: {key}")

    raw = data["coefficients"]
    if not isinstance(raw, list) or len(raw) < 3:
        raise ValidationError("coefficients must list at least 3 entries "
                              "(degree >= 2)")
    coefficients = tuple(_require_pair(c, "coefficients entry") for c in raw)
    if coefficients[-1] == 0:
        raise ValidationError("highest-degree coefficient must be nonzero")

    hint = _require_pair(data["fixed_point_hint"], "fixed_point_hint")
    max_support = _require_int(data["max_support"], "max_support")
    check_enumeration_size(len(coefficients) - 1, max_support)
    product_tolerance = check_tolerance(data["product_tolerance"],
                                        "product_tolerance")
    n_cap = _require_int(data["n_cap"], "n_cap")
    if n_cap <= 0:
        raise ValidationError("n_cap must be positive")
    root_tolerance = check_tolerance(data["root_tolerance"], "root_tolerance")

    return ProblemSpec(
        coefficients=coefficients,
        fixed_point_hint=hint,
        max_support=max_support,
        product_tolerance=product_tolerance,
        n_cap=n_cap,
        root_tolerance=root_tolerance,
    )


def serialize_problem(spec):
    """Inverse of parse_problem: canonical JSON text for a ProblemSpec."""
    return json.dumps(
        {
            "coefficients": [[c.real, c.imag] for c in spec.coefficients],
            "fixed_point_hint": [spec.fixed_point_hint.real,
                                 spec.fixed_point_hint.imag],
            "max_support": spec.max_support,
            "product_tolerance": spec.product_tolerance,
            "n_cap": spec.n_cap,
            "root_tolerance": spec.root_tolerance,
        },
        indent=2,
    ) + "\n"


def load_problem(path):
    with open(path, "rb") as fh:
        return parse_problem(fh.read())


def system_from_spec(spec):
    from .system import build_system

    return build_system(ComplexPolynomial(spec.coefficients),
                        spec.fixed_point_hint,
                        root_tolerance=spec.root_tolerance,
                        product_tolerance=spec.product_tolerance,
                        n_cap=spec.n_cap)
