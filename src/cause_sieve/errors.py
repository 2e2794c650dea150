"""Exception hierarchy.

Two branches matter for callers: ``ValidationError`` covers malformed input
and bad parameters (CLI exit code 2), ``StatError`` covers failures that
arise inside a statistical procedure on otherwise valid input (exit code 3).
"""


class CauseSieveError(Exception):
    """Base class for all package errors."""


class ValidationError(CauseSieveError):
    """Invalid input data or parameters."""


class MissingTarget(ValidationError):
    pass


class NonFiniteEntry(ValidationError):
    def __init__(self, row: int, col: int, message: str | None = None):
        self.row = row
        self.col = col
        super().__init__(message or f"non-finite entry at row {row}, column {col}")


class ConstantColumn(ValidationError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"covariate column {name!r} is constant")


class TooFewRows(ValidationError):
    pass


class TooManyCovariates(ValidationError):
    pass


class BadParam(ValidationError):
    pass


class BadDim(ValidationError):
    pass


class StatError(CauseSieveError):
    """Failure inside a statistical procedure."""


class RankDeficient(StatError):
    pass


class DomainViolation(StatError):
    """Data falls outside the support required by a parametric family."""


class DegenerateTheta(StatError):
    """A fitted parameter is non-positive or non-finite."""


class ConstantInput(StatError):
    pass


class OutOfRange(StatError):
    pass
