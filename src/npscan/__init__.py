"""Exact Newton polygons of exponential-sum L-functions, Artin-Schreier
zeta numerators, and Dickson/permutation structure over Q.

Everything is exact: finite-field arithmetic on canonical models,
coefficients in Z[zeta_p], polygon vertices in Q^2.  The Zech
trace-histogram kernel sums integers in float32 below 2^24 and float64
below 2^53, where both are exact, and raises BudgetExceeded for a field
past those bounds.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .cyclotomic import CycInt, pi_valuation, zeta_power
from .curvezeta import (
    count_curve_points,
    curve_newton_polygon,
    divisibility_check,
    p1_polynomial,
    product_formula_check,
    slope_length_relation_check,
)
from .dickson import (
    AdmissibleTriple,
    CompositionChain,
    DicksonFactorisation,
    DicksonForm,
    DicksonSpec,
    decompose,
    dickson,
    dickson_over_field,
    dickson_perm_criterion,
    find_dickson_factor,
    gpp_over_q,
    is_admissible,
    is_permutation_bruteforce,
    recognize_dickson,
)
from .errors import (
    BadPlace,
    BudgetExceeded,
    InvariantViolation,
    NotDivisible,
    NotPrime,
    NpscanError,
)
from .fields import (
    DEFAULT_ENUM_BUDGET,
    Embedding,
    FieldElement,
    FieldPolynomial,
    FiniteField,
    build_field,
    embed,
    is_prime,
)
from .lfunction import (
    Character,
    LPolynomial,
    exp_sum,
    l_polynomial,
    monomial_polygon,
    newton_polygon,
    np_at_prime,
    np_base_change_check,
    reduce_mod_p,
    trace_counts,
)
from .polygons import (
    ConvexPolygon,
    hodge_polygon,
    lies_above,
    lower_hull,
    slope_length,
    vertical_gap,
)
from .scan import (
    ScanOptions,
    ScanRecord,
    ScanSummary,
    run_scan,
    scan_record,
    validate_record,
)

# the imports above also bind the submodules themselves; export only the names
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
