"""Exception types shared across the package.

Validation failures (a hypothesis of a numerical experiment does not hold)
derive from HypothesisError so the CLI can map them to a distinct exit code.
Hard usage errors stay plain ValueError.
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


class BranchAmbiguous(MCFError):
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
