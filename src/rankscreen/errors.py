"""Exception types raised by the screening library."""


class RankscreenError(Exception):
    """Base class for all library errors."""


class InvalidInput(RankscreenError):
    """Input data or parameters violate a precondition."""


class SingularDesign(RankscreenError):
    """Spline design matrix is numerically rank deficient; ``target`` is the
    index of the failing fit when a stack of fits is solved together."""

    target: int | None = None


class OutOfSupport(RankscreenError):
    """Evaluation point lies outside the spline support beyond tolerance."""


class DegenerateEvaluation(RankscreenError):
    """A variance-type denominator is zero at the requested point."""


class HarnessError(RankscreenError):
    """Too many replications failed inside the benchmark harness."""
