"""Verification laboratory for integral inequalities satisfied by functions
whose derivative magnitude (or a power of it) is s-convex in the second sense.

The package evaluates both sides of each inequality in closed form or by
adaptive quadrature, proves the convexity hypotheses from the power-sum
terms (a case that no rule proves is skipped), and property-tests
identities, bounds, reductions and cross-checks over seeded random
instances.
"""

from .errors import (
    DepthExhausted,
    DomainError,
    EvalError,
    ExponentError,
    LabError,
    MissingParam,
    ParseError,
    SuiteError,
)
from .means import (
    OrderedInterval,
    arithmetic_mean,
    gen_log_mean,
    gen_log_mean_pow,
    geometric_mean,
    power_diff_quotient,
)
from .quadrature import QuadResult, integrate
from .funcmodel import (
    FuncHandle,
    GenConfig,
    PowerSum,
    check_hypothesis,
    handle_from_power_sum,
    powersum_integral,
    prove_hypothesis,
)
from .bounds import (
    THEOREMS,
    BoundReport,
    bound_s1,
    bound_s2,
    bound_s3,
    bound_se2,
    bound_se5,
    bound_se6,
    bullen_defect_signed,
    bullen_type_defect,
    evaluate_bound,
    hadamard_s_triple,
    lemma_identity_rhs,
    trapezoid_defect,
)
from .means_bounds import (
    prop_power_lhs,
    prop_recip_lhs,
    prop_rhs,
    se4_discrepancy,
)
from .harness import (
    SuiteConfig,
    SuiteReport,
    run_bound_suite,
    run_identity_suite,
    run_prop_crosscheck_suite,
    run_reduction_suite,
)
from .cli import dispatch, parse_function_dsl

__version__ = "0.1.0"
