"""Exception types shared across the toolkit."""


class QopError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(QopError):
    """Malformed or inconsistent input (shape, hermiticity, normalization...)."""


class InvalidSubsystem(QopError):
    """Subsystem index out of range or otherwise not addressable."""


class UnsupportedDimension(QopError):
    """Requested construction does not exist at this dimension."""


class DegenerateEffect(QopError):
    """Effect with vanishing Hilbert-Schmidt norm cannot be imposed."""


class InvalidMeasurementKind(QopError):
    """Operation not defined for this measurement kind."""


class TooLargeScenario(QopError):
    """A problem exceeds a size guard: strategies, LP rows, global dimension or qubits."""


class UnsupportedOutcomes(QopError):
    """Operation requires a two-outcome scenario."""


class NotViolatedAtAnyEfficiency(QopError):
    """No detector efficiency in (0, 1] produces a violation for this data."""


class _StoppedIteration(QopError):
    """An iteration that stopped early, carrying its partial result.

    `result` is whatever the solver had when it stopped, e.g. the last
    good iterate and the trajectory so far, or None.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class DegenerateIterate(_StoppedIteration):
    """Iterate lost the structure the algorithm needs (e.g. zero trace)."""


class NotConverged(_StoppedIteration):
    """Iteration hit its cap before reaching tolerance."""
