"""Verification laboratory for integral inequalities satisfied by functions
whose derivative magnitude (or a power of it) is s-convex in the second sense.

The package evaluates both sides of each inequality in closed form or by
adaptive quadrature, proves the convexity hypotheses from the power-sum
terms (a case that no rule proves is skipped), and property-tests
identities, bounds, reductions and cross-checks over seeded random
instances.

The suite modules, harness and means_bounds, are imported on first use:
reading one of the ten names below that come from them loads both (PEP
562), and so does `verify`, the one command that runs the suites.  The
other commands never compile them.
"""

import importlib

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
from .cli import dispatch, parse_function_dsl

__version__ = "0.1.0"

# The names re-exported from the suite modules, by module.
_SUITE_NAMES = {
    "means_bounds": ("prop_power_lhs", "prop_recip_lhs", "prop_rhs", "se4_discrepancy"),
    "harness": (
        "SuiteConfig",
        "SuiteReport",
        "run_bound_suite",
        "run_identity_suite",
        "run_prop_crosscheck_suite",
        "run_reduction_suite",
    ),
}


def __getattr__(name):
    for module, names in _SUITE_NAMES.items():
        if name in names:
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
