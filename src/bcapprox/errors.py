"""Exception types shared across the package."""


class NullConeError(ArithmeticError):
    """Raised when an operation needs an invertible bicomplex value but the
    argument is zero or a zero divisor (an idempotent component vanishes)."""


class DegenerateMapError(ValueError):
    """Raised when a Moebius map's determinant AD - BC lies in the null cone."""


class InvalidRotationError(ValueError):
    """Raised when a rotation parameter is not unimodular in both idempotent
    slots."""


class DomainError(ValueError):
    """Raised when a numeric parameter lies outside the operation's domain
    (e.g. a sampling radius on the wrong side of the unit circle)."""


class GeometryError(ValueError):
    """Raised for degenerate plane regions: empty interior, inverted annulus
    radii, holes escaping the outer boundary, short vertex lists."""


class PolePlacementError(ValueError):
    """Raised when prescribed approximant poles do not sit one-per-bounded
    complement component of the target region."""


class DegreeExceededError(RuntimeError):
    """Raised when degree/order escalation exhausts its budget, or its basis
    collapses after the first step, before the error target is met.  Carries
    the best fit found so far: the step with the lowest sup residual on the
    fit sample.

    Attributes
    ----------
    best : the slot fit exported at that step
    error : measured sup error of ``best`` on the validation sample
    """

    def __init__(self, message, best, error):
        super().__init__(message)
        self.best = best
        self.error = error


class IllConditionedError(RuntimeError):
    """Raised when basis orthogonalization collapses (a new basis vector is
    numerically dependent on the previous ones)."""
