"""Exception types raised by the screening library, and the seed rule."""

import numbers


class RankscreenError(Exception):
    """Base class for all library errors."""


class InvalidInput(RankscreenError):
    """Input data or parameters violate a precondition."""


class SingularDesign(RankscreenError):
    """Spline design matrix is numerically rank deficient, or an exact
    absolute-loss fit breaks down (its arithmetic overflows, or no vertex is
    certified within its pivot bound); ``target`` is the index of the
    failing fit when a stack of fits is solved together, and None when the
    fault is the shared design's."""

    target: int | None = None


class OutOfSupport(RankscreenError):
    """Evaluation point lies outside the spline support beyond tolerance."""


class DegenerateEvaluation(RankscreenError):
    """A variance-type denominator is zero at the requested point."""


class HarnessError(RankscreenError):
    """Too many replications failed inside the benchmark harness."""


def _is_int(value) -> bool:  # numpy's integers too, but not a bool
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:  # numpy's reals too, but not a bool
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_seed(seed):
    """Raise InvalidInput unless ``seed`` is an integer >= 0."""
    if not _is_int(seed) or seed < 0:
        raise InvalidInput(f"seed must be an integer >= 0, got {seed!r}")
