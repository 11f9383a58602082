"""Exception types shared across the toolkit, and the number parser for user input."""

import math


class HrlmcError(Exception):
    """Base class for all toolkit errors."""


class DomainViolation(HrlmcError):
    """Point is outside (or within the guard band of) an entropy's domain."""


class DualDomainViolation(HrlmcError):
    """Dual point is outside the image of the mirror map."""


class ConvergenceFailure(HrlmcError):
    """A numeric inversion failed to reach its tolerance."""


class NumericalBreakdown(HrlmcError):
    """A linear-algebra or stepping routine broke down irrecoverably."""


class InvalidParameters(HrlmcError):
    """Parameters violate the shape constraints of a registered family."""


class Unavailable(HrlmcError):
    """A requested oracle (exact sampler, moments, density) is not present."""


class Divergent(HrlmcError):
    """A Monte Carlo estimate failed to stabilize."""


class InadmissibleStepSize(HrlmcError):
    """Constant step size falls outside the admissible window."""

    def __init__(self, h, window):
        self.h = h
        self.window = window
        super().__init__(
            f"step size h={h:g} is outside the admissible window (0, {window:g})"
        )


class InadmissibleRegime(HrlmcError):
    """Effective contraction penalty too large: kappa_tilde >= sqrt(2 m)."""


class StepOutOfWindow(HrlmcError):
    """Requested step size lies outside the admissible window of a report."""


class EpsOutOfRange(HrlmcError):
    """Requested accuracy is outside the validity window of the complexity formula."""

    def __init__(self, eps, window):
        self.eps = eps
        self.window = window
        super().__init__(f"eps={eps:g} is outside the validity window (0, {window:g})")


class SizeMismatch(HrlmcError):
    """Two point clouds have incompatible sizes for the requested method."""


class MethodUnavailable(HrlmcError):
    """The requested distance method cannot be applied to these inputs."""


def parse_number(text, kind=float):
    """``kind(text)``, finite; malformed user input raises InvalidParameters, not ValueError."""
    try:
        value = kind(text)
    except ValueError:
        pass
    else:
        if kind is not float or math.isfinite(value):
            return value
    raise InvalidParameters(f"cannot parse {text!r} as a finite {kind.__name__}")
