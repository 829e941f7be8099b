"""Exception types shared across the package.

Failures of a stated hypothesis of a numerical experiment derive from
HypothesisError, which the CLI reports as a hypothesis failure; it reports
every other MCFError, and every ValueError, as a validation error.  Both
exit 2.
"""


class MCFError(Exception):
    """Base class for package-specific failures."""


class HypothesisError(MCFError):
    """A stated hypothesis or validity condition failed on the given data."""


# minimal surface construction
class SeedTooCoarse(MCFError):
    pass


class BlowupDetected(MCFError):
    pass


class NonPositiveTail(HypothesisError):
    pass


class PositivityViolated(HypothesisError):
    pass


# Jacobi operator
class GridMismatch(MCFError):
    pass


# half-line heat kernel
class TailTooFat(HypothesisError):
    pass


# profile flow
class NewtonDiverged(MCFError):
    pass


class QNonPositive(MCFError):
    pass


class WindowTooNarrow(MCFError):
    pass


# barriers
class SampleOutsideValidity(HypothesisError):
    pass


class ConePrerequisiteFailed(HypothesisError):
    pass


class HypothesisFailed(HypothesisError):
    pass
