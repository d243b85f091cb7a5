"""Exception types shared across the package."""


class SigmaAlignError(Exception):
    """Base class for all package-specific errors."""


class EmptyMatrix(SigmaAlignError):
    pass


class DimensionMismatch(SigmaAlignError):
    pass


class SubsetExplosion(SigmaAlignError):
    """The enumeration oracle (``region.enumerate_constraints``) would list
    more subset cuts than its cap; ``max_sum_dof`` never raises it."""


class UnknownPath(SigmaAlignError):
    pass


class SingularStack(SigmaAlignError):
    """A stacked channel matrix was (numerically) singular."""


class SlotCapExceeded(SigmaAlignError, ValueError):
    """Rational mode cannot draw a channel series this long."""


class InfeasiblePoint(SigmaAlignError):
    """The requested DoF point lies outside the region."""


class InconsistentPlan(SigmaAlignError):
    pass


class FloatOverflow(SigmaAlignError):
    """Float monomials left float64's range: a structured matrix holds inf
    or nan, so no float verdict can follow."""


class RankDeficientRandom(SigmaAlignError):
    """A random beamformer stayed rank deficient after one retry."""


class TallnessViolated(SigmaAlignError):
    """A signal-plus-interference matrix had more columns than rows."""


class RetriesExhausted(SigmaAlignError):
    """Too many consecutive singular channel draws."""


class InvalidGenerator(SigmaAlignError):
    """An exponent generator violated its declared row-distinctness."""


class ParseError(SigmaAlignError):
    pass
