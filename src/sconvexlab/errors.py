"""Exception types shared across the package."""


class LabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LabError):
    """An argument lies outside the mathematical domain of an operation."""


class ExponentError(LabError):
    """A power-sum term has an exponent with no power-function antiderivative."""


class EvalError(LabError):
    """A user-supplied function returned a non-finite value."""


class DepthExhausted(LabError):
    """Adaptive integration hit the bisection depth limit before converging."""


class MissingParam(LabError):
    """A bound evaluator was called without a parameter it requires."""


class SuiteError(LabError):
    """A verification suite could not produce a meaningful report."""


class ParseError(LabError):
    """Function DSL input did not match the grammar.

    Carries the byte offset of the failure and a description of what was
    expected there.
    """

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"parse error at offset {offset}: expected {expected}")
