"""Legendre-type entropies and their mirror maps.

Each entropy carries a strictly convex potential ``phi`` on an open domain,
its gradient (the mirror map), the inverse mirror map ``grad_conjugate``,
the diagonal of the Hessian and of its SPD square root, and a declared
self-concordance-like constant ``kappa`` bounding

    sqrt(2) * ||D2phi(x)^(1/2) - D2phi(x')^(1/2)||_F
        <= kappa * ||grad phi(x) - grad phi(x')||_2.

Every potential here is a sum of one-coordinate terms, so the metric is
diagonal: the ``hessian_diag`` and ``hessian_sqrt_diag`` vectors are its only
representation, and the dense ``hessian``/``hessian_sqrt`` matrices are
views built from them.  Operations are vectorized over any number of
leading axes: a point is an array of shape ``(..., dim)``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import wrightomega

from .errors import DomainViolation, DualDomainViolation, InvalidParameters, parse_number

# Points closer than this to the domain boundary are rejected: Hessians blow
# up there and every domain is open.
BOUNDARY_GUARD = 1e-12


class Entropy:
    """Base class: domain handling, dense-matrix views, shared plumbing.

    Subclasses implement the coordinate-wise maps (``_grad_unchecked``,
    ``_hessian_diag_unchecked`` and friends) and declare their domain in the
    constructor as bounds that ``contains`` and ``dual_contains`` test here:
    ``x >= _lower`` and ``x <= _upper`` (guard band applied) and
    ``y < _dual_upper``, each a scalar, a per-coordinate vector or ``None``.  The
    Hessian is diagonal; ``hessian`` and ``hessian_sqrt`` only embed the
    diagonal in a dense matrix.  Instances are immutable after construction
    and safe to share across threads.
    """

    name: str
    dim: int
    kappa_declared: float | None
    proposal: str = "unspecified"
    _lower = None
    _upper = None
    _dual_upper = None

    # -- domain ---------------------------------------------------------

    def contains(self, x) -> np.ndarray:
        """Boolean mask of points strictly interior (guard band excluded)."""
        x = self._as_points(x)
        ok = np.isfinite(x)
        if self._lower is not None:
            ok &= x >= self._lower
        if self._upper is not None:
            ok &= x <= self._upper
        return ok.all(axis=-1)

    def dual_contains(self, y) -> np.ndarray:
        """Boolean mask of dual points inside the image of the mirror map."""
        y = self._as_points(y)
        ok = np.isfinite(y)
        if self._dual_upper is not None:
            ok &= y < self._dual_upper
        return ok.all(axis=-1)

    def interior_point(self) -> np.ndarray:
        raise NotImplementedError

    def sample_interior(self, rng, n: int) -> np.ndarray:
        """Draw ``n`` points from this entropy's declared interior proposal.

        The proposal is the sampling distribution used by every certificate
        and constant estimator; it is a falsification device, not a proof.
        """
        raise NotImplementedError

    # -- potential and maps ----------------------------------------------

    def value(self, x):
        x = self._require_interior(x)
        return self._value_unchecked(x)

    def grad(self, x) -> np.ndarray:
        x = self._require_interior(x)
        return self._grad_unchecked(x)

    def grad_conjugate(self, y) -> np.ndarray:
        """Invert the mirror map: return the x with grad(x) == y."""
        y = self._as_points(y)
        ok = self.dual_contains(y)
        if not np.all(ok):
            raise DualDomainViolation(
                f"{self.name}: dual point outside the mirror-map image"
            )
        x = self._grad_conjugate_unchecked(y)
        if not np.all(self.contains(x)):
            raise DomainViolation(
                f"{self.name}: mirror inverse landed in the boundary guard band"
            )
        return x

    def hessian_diag(self, x) -> np.ndarray:
        x = self._require_interior(x)
        return self._hessian_diag_unchecked(x)

    def hessian_sqrt_diag(self, x) -> np.ndarray:
        x = self._require_interior(x)
        return self._hessian_sqrt_diag_unchecked(x)

    def hessian(self, x) -> np.ndarray:
        """Dense SPD Hessian, shape ``(..., dim, dim)``."""
        return _diag_embed(self.hessian_diag(x))

    def hessian_sqrt(self, x) -> np.ndarray:
        """Dense SPD square root of ``hessian(x)``."""
        return _diag_embed(self.hessian_sqrt_diag(x))

    def _hessian_sqrt_diag_unchecked(self, x):
        return np.sqrt(self._hessian_diag_unchecked(x))

    def scaled(self, alpha: float) -> "ScaledEntropy":
        return ScaledEntropy(self, alpha)

    # -- helpers ----------------------------------------------------------

    def _as_points(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            raise DomainViolation(
                f"{self.name}: expected points of dimension {self.dim}, "
                f"got shape {x.shape}"
            )
        return x

    def _require_interior(self, x) -> np.ndarray:
        x = self._as_points(x)
        if not np.all(self.contains(x)):
            raise DomainViolation(f"{self.name}: point outside the open domain")
        return x

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} dim={self.dim}>"


def _diag_embed(d: np.ndarray) -> np.ndarray:
    p = d.shape[-1]
    out = np.zeros(d.shape + (p,))
    idx = np.arange(p)
    out[..., idx, idx] = d
    return out


class EuclideanEntropy(Entropy):
    """Energy entropy ||x||^2 / 2 on R^p; the mirror map is the identity."""

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.name = "euclidean"
        self.kappa_declared = 0.0
        self.proposal = "component-wise normal(0, 3^2)"

    def interior_point(self):
        return np.zeros(self.dim)

    def sample_interior(self, rng, n):
        return 3.0 * rng.standard_normal((n, self.dim))

    def _value_unchecked(self, x):
        return 0.5 * np.sum(x * x, axis=-1)

    def _grad_unchecked(self, x):
        return x

    def _grad_conjugate_unchecked(self, y):
        return y

    def _hessian_diag_unchecked(self, x):
        return np.ones_like(x)

    def _hessian_sqrt_diag_unchecked(self, x):
        return np.ones_like(x)


class BurgEntropy(Entropy):
    """Burg entropy -sum log x_i on the positive orthant; mirror map -1/x."""

    # The predicate is Entropy's; the class attribute stays because the
    # benchmark's tracer test reads ``vars(BurgEntropy)["contains"]``.
    contains = Entropy.contains

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.name = "burg"
        self.kappa_declared = math.sqrt(2.0)
        self.proposal = "component-wise log-uniform(1e-3, 1e3)"
        self._lower = BOUNDARY_GUARD
        self._dual_upper = 0.0

    def interior_point(self):
        return np.ones(self.dim)

    def sample_interior(self, rng, n):
        return _log_uniform(rng, (n, self.dim), 1e-3, 1e3)

    def _value_unchecked(self, x):
        return -np.sum(np.log(x), axis=-1)

    def _grad_unchecked(self, x):
        return -(1.0 / x)

    def _grad_conjugate_unchecked(self, y):
        return -(1.0 / y)

    def _hessian_diag_unchecked(self, x):
        r = 1.0 / x
        return r * r

    def _hessian_sqrt_diag_unchecked(self, x):
        return 1.0 / x


class LogitBarrierEntropy(Entropy):
    """Barrier -log x - log(1-x) per coordinate on (0, 1)^p."""

    def __init__(self, dim: int = 1):
        self.dim = int(dim)
        self.name = "logit"
        self.kappa_declared = math.sqrt(2.0)
        self.proposal = "component-wise uniform(0.01, 0.99)"
        self._lower = BOUNDARY_GUARD
        self._upper = 1.0 - BOUNDARY_GUARD

    def interior_point(self):
        return np.full(self.dim, 0.5)

    def sample_interior(self, rng, n):
        return rng.uniform(0.01, 0.99, size=(n, self.dim))

    def _value_unchecked(self, x):
        return -np.sum(np.log(x) + np.log1p(-x), axis=-1)

    def _grad_unchecked(self, x):
        return -1.0 / x + 1.0 / (1.0 - x)

    def _grad_conjugate_unchecked(self, y):
        # Root of y*x^2 + (2-y)*x - 1 = 0 inside (0, 1), rationalized so the
        # expression stays stable through y = 0.
        return 2.0 / (np.sqrt(y * y + 4.0) + 2.0 - y)

    def _hessian_diag_unchecked(self, x):
        return 1.0 / (x * x) + 1.0 / ((1.0 - x) * (1.0 - x))


class MixedEntropy(Entropy):
    """Per-coordinate blend a_i * x log x - (1 - a_i) * log x on R_++^p.

    Requires every weight in [0, 1).  Coordinates with a_i = 0 reduce to Burg
    and invert as -1/y; the rest invert y = a*(log x + 1) - (1-a)/x in closed
    form through the Wright omega function (the solution w of w + log w = z):

        1/x = a/(1-a) * omega(log((1-a)/a) + (a-y)/a).

    The argument stays in the log domain, so no coordinate overflows, and the
    map is elementwise, so a row's value never depends on its batch.
    """

    def __init__(self, weights):
        a = np.atleast_1d(np.asarray(weights, dtype=float))
        if a.ndim != 1 or a.size == 0:
            raise InvalidParameters("mixed entropy needs a 1-d weight vector")
        if np.any(a < 0.0) or np.any(a >= 1.0):
            raise InvalidParameters("mixed entropy weights must lie in [0, 1)")
        self.weights = a
        self.dim = a.size
        self.name = "mixed:a=" + ",".join(format(w, "g") for w in a)
        self.kappa_declared = math.sqrt(2.0 / (1.0 - float(np.max(a))))
        self.proposal = "component-wise log-uniform(1e-3, 1e3)"
        self._lower = BOUNDARY_GUARD
        # Burg coordinates (a_i = 0) map onto y < 0, the others onto the line.
        if np.any(a == 0.0):
            self._dual_upper = np.where(a == 0.0, 0.0, np.inf)

    def interior_point(self):
        return np.ones(self.dim)

    def sample_interior(self, rng, n):
        return _log_uniform(rng, (n, self.dim), 1e-3, 1e3)

    def _value_unchecked(self, x):
        lg = np.log(x)
        return np.sum(self.weights * x * lg - (1.0 - self.weights) * lg, axis=-1)

    def _grad_unchecked(self, x):
        a = self.weights
        return a * (np.log(x) + 1.0) - (1.0 - a) / x

    def _hessian_diag_unchecked(self, x):
        a = self.weights
        return a / x + (1.0 - a) / (x * x)

    def _grad_conjugate_unchecked(self, y):
        a = np.broadcast_to(self.weights, y.shape)
        x = np.empty_like(y)
        burg = a == 0.0
        x[burg] = -1.0 / y[burg]
        todo = ~burg
        aa = a[todo]
        # Dual points far outside the sampled range overflow to x = 0 or inf,
        # which the domain check then rejects like any other bad proposal.
        with np.errstate(divide="ignore", over="ignore"):
            omega = wrightomega(np.log((1.0 - aa) / aa) + (aa - y[todo]) / aa)
            x[todo] = (1.0 - aa) / (aa * omega)
        return x


class BoltzmannShannonEntropy(Entropy):
    """Shannon entropy sum x log x on R_++^p.

    Negative test fixture only: the Hessian square-root Lipschitz ratio is
    unbounded near the origin, so no finite kappa exists.  Never use it as a
    sampler entropy; it is registered separately from the main table.
    """

    def __init__(self, dim: int = 1, proposal_range=(1e-6, 1e3)):
        self.dim = int(dim)
        lo, hi = float(proposal_range[0]), float(proposal_range[1])
        if not (0.0 < lo < hi):
            raise InvalidParameters("proposal range must satisfy 0 < lo < hi")
        self.proposal_range = (lo, hi)
        self.name = "boltzmann-shannon"
        self.kappa_declared = math.inf
        self.proposal = f"component-wise log-uniform({lo:g}, {hi:g})"
        self._lower = BOUNDARY_GUARD

    def interior_point(self):
        return np.ones(self.dim)

    def sample_interior(self, rng, n):
        lo, hi = self.proposal_range
        return _log_uniform(rng, (n, self.dim), lo, hi)

    def _value_unchecked(self, x):
        return np.sum(x * np.log(x), axis=-1)

    def _grad_unchecked(self, x):
        return np.log(x) + 1.0

    def _grad_conjugate_unchecked(self, y):
        return np.exp(y - 1.0)

    def _hessian_diag_unchecked(self, x):
        return 1.0 / x

    def _hessian_sqrt_diag_unchecked(self, x):
        return 1.0 / np.sqrt(x)


class ScaledEntropy(Entropy):
    """alpha * phi for alpha > 0; kappa scales as kappa / sqrt(alpha)."""

    def __init__(self, base: Entropy, alpha: float):
        alpha = float(alpha)
        if not alpha > 0.0:
            raise InvalidParameters("scale factor must be positive")
        self.base = base
        self.alpha = alpha
        self._sqrt_alpha = math.sqrt(alpha)
        self.dim = base.dim
        self.name = f"scaled:{alpha:g}*{base.name}"
        if base.kappa_declared is None:
            self.kappa_declared = None
        else:
            self.kappa_declared = base.kappa_declared / self._sqrt_alpha
        self.proposal = base.proposal
        self._lower, self._upper = base._lower, base._upper
        if base._dual_upper is not None:
            self._dual_upper = alpha * base._dual_upper

    def interior_point(self):
        return self.base.interior_point()

    def sample_interior(self, rng, n):
        return self.base.sample_interior(rng, n)

    def _value_unchecked(self, x):
        return self.alpha * self.base._value_unchecked(x)

    def _grad_unchecked(self, x):
        return self.alpha * self.base._grad_unchecked(x)

    def _grad_conjugate_unchecked(self, y):
        return self.base._grad_conjugate_unchecked(y / self.alpha)

    def _hessian_diag_unchecked(self, x):
        return self.alpha * self.base._hessian_diag_unchecked(x)

    def _hessian_sqrt_diag_unchecked(self, x):
        return self._sqrt_alpha * self.base._hessian_sqrt_diag_unchecked(x)


def _log_uniform(rng, shape, lo, hi):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=shape))


def euclidean(dim: int) -> EuclideanEntropy:
    return EuclideanEntropy(dim)


def burg(dim: int) -> BurgEntropy:
    return BurgEntropy(dim)


def logit_barrier(dim: int = 1) -> LogitBarrierEntropy:
    return LogitBarrierEntropy(dim)


def mixed(weights) -> MixedEntropy:
    return MixedEntropy(weights)


def boltzmann_shannon(dim: int = 1, proposal_range=(1e-6, 1e3)) -> BoltzmannShannonEntropy:
    return BoltzmannShannonEntropy(dim, proposal_range)


def register_table1_entropies(dim: int = 3, mixed_weights=None) -> list[Entropy]:
    """The four entropies with computable mirror maps and declared kappa.

    Euclidean (kappa 0), Burg (sqrt 2), the logit barrier (sqrt 2), and the
    mixed family (sqrt(2 / (1 - max a))).  The rows with non-invertible mirror
    maps or non-diagonal Hessians are deliberately not registered.
    """
    if mixed_weights is None:
        mixed_weights = np.linspace(0.0, 0.7, max(dim, 1))
    return [
        euclidean(dim),
        burg(dim),
        logit_barrier(dim),
        mixed(mixed_weights),
    ]


def parse_entropy(spec: str, dim: int | None = None) -> Entropy:
    """Build an entropy from a CLI name such as ``burg`` or ``mixed:a=0.3,0.7``."""
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    head = head.lower()
    if head == "mixed":
        if not rest.startswith("a="):
            raise InvalidParameters("mixed entropy spec must look like mixed:a=0.3,0.7")
        weights = [parse_number(tok) for tok in rest[2:].split(",") if tok]
        return mixed(weights)
    if rest:
        raise InvalidParameters(f"unexpected parameters for entropy {head!r}")
    if dim is None:
        dim = 1
    if head == "euclidean":
        return euclidean(dim)
    if head == "burg":
        return burg(dim)
    if head == "logit":
        return logit_barrier(dim)
    if head in ("boltzmann-shannon", "boltzmann_shannon"):
        return boltzmann_shannon(dim)
    raise InvalidParameters(f"unknown entropy {spec!r}")
