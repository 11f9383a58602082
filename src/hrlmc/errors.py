"""Exception types shared across the toolkit, and the parsers and checks for user input."""

import math
import numbers
import os


class HrlmcError(Exception):
    """Base class for all toolkit errors."""


class DomainViolation(HrlmcError):
    """Point is outside (or within the guard band of) an entropy's domain."""


class DualDomainViolation(HrlmcError):
    """Dual point is outside the image of the mirror map."""


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


def format_number(value):
    """``value`` written so that ``parse_number`` reads it back unchanged.

    ``format(value, "g")`` when that reads back to ``value``, else the
    shortest round-trip repr: ``5`` stays ``5``, ``5.1234567`` keeps every digit.
    """
    value = float(value)
    text = format(value, "g")
    return text if float(text) == value else repr(value)


def parse_numbers(text, kind=float):
    """The numbers of a comma list such as ``1,2,4``; empty tokens are skipped."""
    return [parse_number(tok, kind) for tok in map(str.strip, text.split(",")) if tok]


def parse_spec(spec):
    """Split a ``head:key=values`` spec into its lower-cased head and ``{key: [floats]}``.

    ``,`` and ``;`` both separate values, a token holding ``=`` starts a new
    key, and empty tokens are skipped: ``gamma:a=5,5;b=1`` gives ``("gamma",
    {"a": [5.0, 5.0], "b": [1.0]})``.  A value before any key, a repeated
    key, or a key without values raises InvalidParameters.
    """
    head, _, rest = spec.partition(":")
    fields, key = {}, None
    for token in rest.replace(";", ",").split(","):
        if "=" in token:
            key, _, token = token.partition("=")
            key = key.strip()
            if key in fields:
                raise InvalidParameters(f"cannot parse {spec!r}: repeated key {key!r}")
            fields[key] = []
        token = token.strip()
        if token and key is None:
            raise InvalidParameters(f"cannot parse {spec!r}: dangling value {token!r}")
        if token:
            fields[key].append(parse_number(token))
    for key, values in fields.items():
        if not values:
            raise InvalidParameters(f"cannot parse {key!r}: a key needs at least one value")
    return head.strip().lower(), fields


def check_seed(seed):
    """``seed`` unchanged if it is a non-negative integer or a tuple of them.

    This is the library's one seed rule, checked before any draw.  Anything
    else raises InvalidParameters: a negative integer, for which numpy's
    seeding raises a bare ValueError, and the floats, lists, ``SeedSequence``
    objects and None that numpy would take.
    """
    for item in seed if isinstance(seed, tuple) else (seed,):
        if not isinstance(item, numbers.Integral) or item < 0:
            raise InvalidParameters(
                f"a seed must be a non-negative integer or a tuple of them, got {seed!r}")
    return seed


def check_allocation(n_bytes, what, remedy):
    """Refuse an allocation of ``n_bytes`` that alone exceeds physical memory.

    Called before numpy tries it, which would fail late or swap; the
    InvalidParameters message says ``what`` needs the memory and the ``remedy``.
    """
    physical = _physical_memory()
    if physical is not None and n_bytes > physical:
        raise InvalidParameters(
            f"{what} needs {n_bytes / 2**30:.1f} GiB, more than the "
            f"{physical / 2**30:.1f} GiB of physical memory; {remedy}"
        )


def _physical_memory():
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf on this platform
        return None
