"""Target potentials f with pi proportional to exp(-f).

Ships the three registered (entropy, target) families with their declared
constants:

* Gaussian  f = x' A x / 2          paired with Euclidean, m = lambda_min(A),
                                    M = lambda_max(A), delta = 0, R = 1;
* product Gamma  f = sum (1-a_i) log x_i + b_i x_i   paired with Burg,
                                    m = min(a_i - 1), M = max(a_i - 1);
* Beta  f = (1-a1) log x + (1-a2) log(1-x)           paired with the logit
                                    barrier, m = min(a_i - 1), M = max.

Declared constants belong to the pair: m, M, delta and R are relative to
(phi, pi), as relative convexity and smoothness are defined against a reference
function, and ``Target.declared_for`` gives them to the paired entropy only.

Potentials are defined up to an additive constant; nothing downstream needs
the normalizer except the R-constant quadrature, which uses the stored log
partition function of exp(-f).

R conventions: ``r_declared`` is the expectation E_pi ||D2phi(X)||_2 under the
*normalized* law (the quantity the contraction bounds consume).  For product
targets with p > 1 the declared value is the per-coordinate sum, an upper
bound on the expected max.  ``r_table2`` stores the closed-form expression
stated without the normalizer, reported alongside for comparison.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import entropy as _entropy
from .errors import (Divergent, DomainViolation, InvalidParameters, Unavailable, check_allocation,
                     check_seed, format_number, parse_spec)


class Target:
    """A potential with optional declared constants and validation oracles.

    ``m``, ``M``, ``delta`` are the relative strong-convexity / smoothness /
    commutator constants with respect to the paired entropy; any of them may
    be None ("unknown").  Read them through ``declared_for``.  ``sampler(rng,
    n)`` must return exact draws from the normalized law when present.
    """

    def __init__(
        self,
        name,
        dim,
        paired_entropy,
        potential,
        grad,
        hessian,
        *,
        m=None,
        M=None,
        delta=None,
        r_declared=None,
        r_table2=None,
        sampler=None,
        moment_mean=None,
        moment_var=None,
        support=None,
        log_partition=None,
    ):
        self.name = name
        self.dim = int(dim)
        self.paired_entropy = paired_entropy
        self._potential = potential
        self._grad = grad
        self._hessian = hessian
        self.m = m
        self.M = M
        self.delta = delta
        self.r_declared = r_declared
        self.r_table2 = r_table2
        self._sampler = sampler
        self.moment_mean = None if moment_mean is None else np.asarray(moment_mean, float)
        self.moment_var = None if moment_var is None else np.asarray(moment_var, float)
        self.support = support
        self.log_partition = log_partition

    # evaluation ---------------------------------------------------------

    def potential(self, x):
        return self._potential(np.asarray(x, dtype=float))

    def grad(self, x):
        return self._grad(np.asarray(x, dtype=float))

    def hessian(self, x):
        return self._hessian(np.asarray(x, dtype=float))

    # oracles -------------------------------------------------------------

    @property
    def has_exact_sampler(self):
        return self._sampler is not None

    def sample_exact(self, rng, n):
        if self._sampler is None:
            raise Unavailable(f"{self.name}: no exact sampler")
        return self._sampler(rng, n)

    @property
    def has_moment_oracle(self):
        return self.moment_mean is not None and self.moment_var is not None

    def declared_for(self, entropy):
        """Declared (m, M, delta, R, Table-2 R) if ``entropy`` is the paired one, else Nones."""
        if entropy.name != self.paired_entropy:
            return None, None, None, None, None
        return self.m, self.M, self.delta, self.r_declared, self.r_table2

    def make_paired_entropy(self):
        return _entropy.parse_entropy(self.paired_entropy, dim=self.dim)

    def __repr__(self):
        return f"<Target {self.name!r} dim={self.dim} paired={self.paired_entropy!r}>"


def gaussian_target(A) -> Target:
    """Centered Gaussian with precision matrix A (symmetric positive definite)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise InvalidParameters("precision matrix must be square")
    if A.size == 0:
        raise InvalidParameters("precision matrix must not be empty")
    if not np.allclose(A, A.T, rtol=1e-12, atol=1e-12):
        raise InvalidParameters("precision matrix must be symmetric")
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0.0:
        raise InvalidParameters("precision matrix must be positive definite")
    p = A.shape[0]
    cov = np.linalg.inv(A)
    chol = np.linalg.cholesky(cov)

    def potential(x):
        return 0.5 * np.einsum("...i,ij,...j->...", x, A, x)

    def grad(x):
        return x @ A

    def hessian(x):
        return np.broadcast_to(A, x.shape + (p,)).copy()

    def sampler(rng, n):
        z = rng.standard_normal((n, p))
        return z @ chol.T

    diag_label = ",".join(map(format_number, np.diag(A)))
    diagonal = np.array_equal(A, np.diag(np.diag(A)))
    out = Target(
        name=f"gaussian:A=diag({diag_label})" if diagonal else "gaussian",
        dim=p,
        paired_entropy="euclidean",
        potential=potential,
        grad=grad,
        hessian=hessian,
        m=float(eigs[0]),
        M=float(eigs[-1]),
        delta=0.0,
        r_declared=1.0,
        r_table2=1.0,
        sampler=sampler,
        moment_mean=np.zeros(p),
        moment_var=np.diag(cov).copy(),
        support=(-np.inf, np.inf),
        log_partition=0.5 * p * math.log(2.0 * math.pi) - 0.5 * float(np.linalg.slogdet(A)[1]),
    )
    out.precision = A.copy()
    out.covariance = cov
    return out


def gamma_target(a, b) -> Target:
    """Product of Gamma(a_i, rate b_i) laws, potential sum (1-a_i)log x + b_i x.

    Registration requires every a_i > 3 so the second-moment constant of the
    paired Burg metric is declared finite; smaller shapes violate the moment
    condition this family is certified under.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.size == 1 and a.size > 1:
        b = np.full(a.size, float(b[0]))
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidParameters("gamma target needs matching shape/rate vectors")
    if np.any(b <= 0.0):
        raise InvalidParameters("gamma rates must be positive")
    if np.any(a <= 3.0):
        raise InvalidParameters(
            "gamma shapes must exceed 3: the Hessian-moment constant R of the "
            "paired Burg entropy is only declared finite for a > 3"
        )
    p = a.size
    complement = 1.0 - a  # computed once, not on every grad call

    def potential(x):
        return np.sum(complement * np.log(x) + b * x, axis=-1)

    def grad(x):
        return complement / x + b

    def hessian(x):
        return _diag_embed((a - 1.0) / (x * x))

    # numpy draws gamma(shape, scale) as scale * standard_gamma(shape), so this
    # is bitwise rng.gamma(shape=a, scale=1/b), without its two-array path.
    shape = float(a[0]) if np.all(a == a[0]) else a
    scale = 1.0 / b

    def sampler(rng, n):
        return rng.standard_gamma(shape, size=(n, p)) * scale

    r_norm = float(np.sum(b * b / ((a - 1.0) * (a - 2.0))))
    r_tab = float(np.sum(np.exp(_lgamma(a - 2.0) - (a - 2.0) * np.log(b))))
    name = "gamma:a=" + ",".join(map(format_number, a)) + ";b=" + ",".join(map(format_number, b))
    out = Target(
        name=name,
        dim=p,
        paired_entropy="burg",
        potential=potential,
        grad=grad,
        hessian=hessian,
        m=float(np.min(a - 1.0)),
        M=float(np.max(a - 1.0)),
        delta=0.0,
        r_declared=r_norm,
        r_table2=r_tab,
        sampler=sampler,
        moment_mean=a / b,
        moment_var=a / (b * b),
        support=(0.0, np.inf),
        log_partition=float(np.sum(_lgamma(a) - a * np.log(b))),
    )
    out.a = a.copy()
    out.b = b.copy()
    return out


def beta_target(a1, a2) -> Target:
    """Beta(a1, a2) law on (0, 1), potential (1-a1)log x + (1-a2)log(1-x).

    Requires a1, a2 > 2 so the logit-barrier Hessian has a finite mean.
    """
    a1 = float(a1)
    a2 = float(a2)
    if a1 <= 2.0 or a2 <= 2.0:
        raise InvalidParameters(
            "beta shapes must exceed 2 for the barrier Hessian moment to be finite"
        )

    def potential(x):
        return np.sum((1.0 - a1) * np.log(x) + (1.0 - a2) * np.log1p(-x), axis=-1)

    def grad(x):
        return (1.0 - a1) / x - (1.0 - a2) / (1.0 - x)

    def hessian(x):
        return _diag_embed((a1 - 1.0) / (x * x) + (a2 - 1.0) / ((1.0 - x) * (1.0 - x)))

    def sampler(rng, n):
        # Gamma-ratio construction keeps the draw deterministic given the rng.
        g1 = rng.gamma(shape=a1, scale=1.0, size=(n, 1))
        g2 = rng.gamma(shape=a2, scale=1.0, size=(n, 1))
        return g1 / (g1 + g2)

    s = a1 + a2
    factor = (s - 1.0) * (s - 2.0)
    r_norm = factor / ((a1 - 1.0) * (a1 - 2.0)) + factor / ((a2 - 1.0) * (a2 - 2.0))
    r_tab = math.exp(math.lgamma(a1 - 2.0) + math.lgamma(a2) - math.lgamma(s - 2.0)) + math.exp(
        math.lgamma(a1) + math.lgamma(a2 - 2.0) - math.lgamma(s - 2.0)
    )
    return Target(
        name=f"beta:a1={format_number(a1)},a2={format_number(a2)}",
        dim=1,
        paired_entropy="logit",
        potential=potential,
        grad=grad,
        hessian=hessian,
        m=float(min(a1 - 1.0, a2 - 1.0)),
        M=float(max(a1 - 1.0, a2 - 1.0)),
        delta=0.0,
        r_declared=float(r_norm),
        r_table2=float(r_tab),
        sampler=sampler,
        moment_mean=np.array([a1 / s]),
        moment_var=np.array([a1 * a2 / (s * s * (s + 1.0))]),
        support=(0.0, 1.0),
        log_partition=math.lgamma(a1) + math.lgamma(a2) - math.lgamma(s),
    )


def _diag_embed(d: np.ndarray) -> np.ndarray:
    """The ``(..., p, p)`` matrices with diagonals ``d``, zero elsewhere."""
    p = d.shape[-1]
    out = np.zeros(d.shape + (p,))
    idx = np.arange(p)
    out[..., idx, idx] = d
    return out


def _lgamma(v):
    return np.vectorize(math.lgamma)(v)


def register_table2_targets() -> list[Target]:
    """Reference instances of the three declared (entropy, target) pairs."""
    return [
        gaussian_target(np.diag([1.0, 2.0])),
        gamma_target([5.0], [1.0]),
        beta_target(4.0, 4.0),
    ]


def exact_sample(target: Target, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the target law, deterministic given the seed.

    A draw that alone needs more than physical memory is refused before
    anything is drawn.
    """
    check_allocation(8 * n * target.dim, f"drawing {n} exact point(s) x {target.dim} "
                     "coordinate(s)", "draw fewer points (replicas, reference points)")
    rng = np.random.default_rng(check_seed(seed))
    return target.sample_exact(rng, n)


@dataclass
class RConstantEstimate:
    """Estimate of E_pi ||D2phi(X)||_2 with its error scale.

    ``error`` is a quadrature error bound or a Monte Carlo standard error
    (0 for declared values).  ``table2_value`` repeats the unnormalized
    closed-form expression for side-by-side reporting.
    """

    method: str
    value: float
    error: float
    table2_value: float | None


def _spectral_norm_of_metric(entropy, x):
    return np.max(np.abs(entropy.hessian_diag(x)), axis=-1)


def r_constant(target: Target, method: str = "declared", n: int = 100_000,
               seed: int = 0, entropy=None) -> RConstantEstimate:
    """Hessian-moment constant R of the (entropy, target) pair.

    ``declared`` returns the pair's registry value; ``quadrature`` integrates the
    normalized density (1-d and 2-d targets); ``monte-carlo`` averages the
    metric spectral norm over exact draws and raises Divergent when the
    running mean fails to stabilize.  ``auto`` takes the declared value, else
    quadrature for a 1-d or 2-d target with a normalizer, else Monte Carlo.
    """
    if entropy is None:
        entropy = target.make_paired_entropy()
    _, _, _, r_declared, r_table2 = target.declared_for(entropy)

    if method == "auto":
        if r_declared is not None:
            method = "declared"
        elif target.dim <= 2 and target.log_partition is not None:
            method = "quadrature"
        else:
            method = "monte-carlo"

    if method == "declared":
        if r_declared is None:
            raise Unavailable(f"{target.name}: no declared R for {entropy.name}")
        return RConstantEstimate("declared", float(r_declared), 0.0, r_table2)

    try:
        if method == "quadrature":
            value, error = _r_quadrature(target, entropy)
        elif method == "monte-carlo":
            value, error = _r_monte_carlo(target, entropy, n, seed)
        else:
            raise InvalidParameters(f"unknown R method {method!r}")
    except DomainViolation as err:
        raise DomainViolation(
            f"R of {target.name} under {entropy.name} failed: the target's law leaves "
            f"the entropy's domain ({err})"
        ) from err
    return RConstantEstimate(method, value, error, r_table2)


def _r_quadrature(target, entropy):
    # Local: scipy is ~0.6 s of import set-up that only R quadrature needs.
    from scipy import integrate

    if target.support is None or target.log_partition is None:
        raise Unavailable(f"{target.name}: no normalized density for quadrature")
    if target.dim > 2:
        raise Unavailable("quadrature is limited to 1-d and 2-d targets")
    log_z = target.log_partition

    def integrand(*x):
        pt = np.array(x)
        norm = float(_spectral_norm_of_metric(entropy, pt))
        return norm * math.exp(-float(target.potential(pt)) - log_z)

    value, err = integrate.nquad(integrand, [target.support] * target.dim, opts={"limit": 200})
    return float(value), float(err)


def _r_monte_carlo(target, entropy, n, seed):
    if not target.has_exact_sampler:
        raise Unavailable(f"{target.name}: no exact sampler for Monte Carlo")
    n = max(int(n), 16)
    draws = exact_sample(target, n, seed)
    norms = _spectral_norm_of_metric(entropy, draws)
    partial_means = [float(np.mean(norms[: max(1, (k * n) // 4)])) for k in (1, 2, 3, 4)]
    spread = (max(partial_means) - min(partial_means)) / max(abs(partial_means[-1]), 1e-300)
    if spread > 0.5:
        raise Divergent(
            f"{target.name}: R estimate failed to stabilize "
            f"(partial means {partial_means}); the Hessian-moment condition looks violated"
        )
    return float(np.mean(norms)), float(np.std(norms, ddof=1) / math.sqrt(n))


def parse_target(spec: str) -> Target:
    """Build a target from a CLI string.

    Formats: ``gaussian:A=diag(1,2)`` (or ``gaussian:A=1,2``), ``gamma:a=5,b=1``,
    ``gamma:a=5,5,5,5;b=1,1,1,1``, ``beta:a1=4,a2=4``.
    """
    head, fields = parse_spec(re.sub(r"=\s*diag\((.*)\)\s*$", r"=\1", spec))
    if head == "gaussian":
        if set(fields) != {"A"}:
            raise InvalidParameters("gaussian spec must look like gaussian:A=diag(1,2)")
        return gaussian_target(np.diag(fields["A"]))
    if head == "gamma":
        if set(fields) != {"a", "b"}:
            raise InvalidParameters("gamma spec needs a=... and b=...")
        return gamma_target(fields["a"], fields["b"])
    if head == "beta":
        if set(fields) != {"a1", "a2"} or any(len(v) != 1 for v in fields.values()):
            raise InvalidParameters("beta spec needs scalar a1=... and a2=...")
        return beta_target(fields["a1"][0], fields["a2"][0])
    raise InvalidParameters(f"unknown target {spec!r}")
