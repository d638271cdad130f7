"""Exception hierarchy shared across the package."""


class FactorbnError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FactorbnError):
    """An input failed a structural precondition (bad table length,
    duplicate id, cycle, scope conflict, unknown variable, ...).  The
    root of every input error: the CLI exits 2 on exactly these."""


class ParseError(ValidationError):
    """A file could not be parsed.  Carries a human-readable location."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class IllegalExpressionError(ValidationError):
    """A set expression applied an operator outside its definition.

    ``kind`` is ``"ILLEGAL_DIFFERENCE"`` (operands of a difference are
    not nested) or ``"ILLEGAL_UNION"`` (operands of a union overlap).
    """

    def __init__(self, kind, message):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class BudgetExceededError(FactorbnError):
    """A search or enumeration hit a configured resource cap.

    Distinct from a negative answer: when this is raised the true
    answer is unknown.  ``kind`` names the cap.
    """

    def __init__(self, message, kind=None):
        super().__init__(message)
        self.kind = kind


class ZeroNormalizerError(ValidationError):
    """Evidence is inconsistent with the model: the normalizer is zero."""


class InternalConsistencyError(FactorbnError):
    """A quantity that must hold by construction failed to hold
    (e.g. a final marginal went negative beyond floating-point noise)."""
