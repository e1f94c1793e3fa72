"""Verification laboratory for integral inequalities satisfied by functions
whose derivative magnitude (or a power of it) is s-convex in the second sense.

The package evaluates both sides of each inequality in closed form or by
adaptive quadrature, proves the convexity hypotheses from the power-sum
terms (a case that no rule proves is skipped), and property-tests
identities, bounds, reductions and cross-checks over seeded random
instances.

The package root re-exports nothing: import each name from the module
that defines it (``from sconvexlab.means import OrderedInterval``), so
importing one module loads only what that module imports.
"""

__version__ = "0.1.0"
