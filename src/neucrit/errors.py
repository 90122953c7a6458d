"""Exception types shared across the package."""


class NeucritError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(NeucritError):
    """Invalid or inconsistent run configuration."""


class ResonantSlope(NeucritError):
    """An asymptotic or local slope coincides with a Neumann eigenvalue."""


class DuplicateKnots(NeucritError):
    """Two prescribed nodes of a nonlinearity share the same abscissa."""


class NonC1Blend(NeucritError):
    """The affine tail could not be joined to the core with matching value and slope."""


class AnchorNotZero(NeucritError):
    """A truncation anchor is not a prescribed zero of the nonlinearity."""


class AnchorSlopeNonNegative(NeucritError):
    """A truncation anchor has nonnegative slope; truncation needs a minimum-type zero."""


class AsymmetricSlopes(NeucritError):
    """The homotopy to the linear problem needs equal slopes at plus and minus infinity."""


class MaxItersExceeded(NeucritError):
    """An iterative solver ran out of its iteration budget."""


class PathCollapse(NeucritError):
    """The mountain-pass path found no barrier between the endpoints."""


class ModulusViolated(NeucritError):
    """A probe of the convexity modulus failed; the slope bound is mis-certified."""


class ReductionInapplicable(NeucritError):
    """The Y block is empty or the certified slope bound reaches it; no reduction exists."""


class RangeEscape(NeucritError):
    """A solution of a truncated problem leaves the region where it matches the original."""


class UnclassifiedDegenerate(NeucritError):
    """A degenerate critical point with no classification; no local degree is assigned."""
