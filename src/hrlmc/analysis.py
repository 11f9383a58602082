"""Assumption-constant estimation and contraction/bias bound calculators.

The sampled estimators are falsification certificates over each entropy's
declared interior proposal: a reported kappa_hat is the max ratio seen over
n_pairs draws, never a proof of the global supremum.  Constants declared
for the pair (``Target.declared_for``) therefore take precedence in every
bound computation; sampled values that contradict one by more than 1%
raise a warning flag in the report.

Closed forms implemented here:

    kappa_tilde = sqrt(kappa^2 + delta (4 M + delta) / (2 (m + M)))
    window      = min((2 m - kappa_tilde^2) / m^2, (2 M - kappa_tilde^2) / M^2)
    rho(h)      = max(sqrt((1 - m h)^2 + h kappa_tilde^2),
                      sqrt((1 - M h)^2 + h kappa_tilde^2))
    beta1       = kappa sqrt(R)
    beta2       = sqrt(M R) (7 sqrt(2 M) / 6 + kappa / sqrt(3))
    floor(h)    = (h sqrt(p) beta1 + h^{3/2} sqrt(p) beta2) / (1 - rho)
    r0          = 2 kappa sqrt(p R) / (2 m - kappa_tilde^2)

Quadratic-form reductions (certificates, Baillon-Haddad slack) accumulate in
extended precision so the stated 1e-9 absolute slacks stay meaningful at the
extremes of the log-uniform proposals, where double rounding alone reaches
that magnitude.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import (
    EpsOutOfRange,
    InadmissibleRegime,
    InvalidParameters,
    StepOutOfWindow,
    check_allocation,
    check_seed,
)
from .target import r_constant

_LD = np.longdouble

DEGENERATE_PAIR_TOL = 1e-12


def _check_dims(entropy, target):
    if entropy.dim != target.dim:
        raise InvalidParameters(
            f"dimension mismatch: entropy {entropy.name!r} is {entropy.dim}-d, "
            f"target {target.name!r} is {target.dim}-d"
        )


def kappa_tilde(kappa: float, m: float, M: float, delta: float) -> float:
    """Effective contraction penalty from kappa and the commutator bound; inf if m + M <= 0."""
    if m + M <= 0.0:
        return math.inf
    return math.sqrt(kappa * kappa + delta * (4.0 * M + delta) / (2.0 * (m + M)))


def admissible_step_window(m: float, M: float, kt: float) -> float:
    """Upper end of the admissible constant-step window: 0 if kt^2 >= 2 min(m, M).

    That case covers kt = inf and m = 0, where the closed form has no value.
    """
    if kt * kt >= 2.0 * min(m, M):
        return 0.0
    return min((2.0 * m - kt * kt) / (m * m), (2.0 * M - kt * kt) / (M * M))


def contraction_factor(h: float, m: float, M: float, kt: float) -> float:
    lo = math.sqrt((1.0 - m * h) ** 2 + h * kt * kt)
    hi = math.sqrt((1.0 - M * h) ** 2 + h * kt * kt)
    return max(lo, hi)


def beta1(R: float, kappa: float) -> float:
    return kappa * math.sqrt(R)


def beta2(R: float, M: float, kappa: float) -> float:
    return math.sqrt(M * R) * (7.0 * math.sqrt(2.0 * M) / 6.0 + kappa / math.sqrt(3.0))


def bias_radius(p: int, R: float, kappa: float, m: float, kt: float) -> float:
    return 2.0 * kappa * math.sqrt(p * R) / (2.0 * m - kt * kt)


_FORMULAS = {
    "kappa_tilde": "sqrt(kappa^2 + delta*(4*M + delta) / (2*(m + M)))",
    "step_window": "min((2*m - kappa_tilde^2)/m^2, (2*M - kappa_tilde^2)/M^2)",
    "rho": "max(sqrt((1 - m*h)^2 + h*kappa_tilde^2), sqrt((1 - M*h)^2 + h*kappa_tilde^2))",
    "beta1": "kappa*sqrt(R)",
    "beta2": "sqrt(M*R)*(7*sqrt(2*M)/6 + kappa/sqrt(3))",
    "floor": "(h*sqrt(p)*beta1 + h^(3/2)*sqrt(p)*beta2) / (1 - rho)",
    "r0": "2*kappa*sqrt(p*R) / (2*m - kappa_tilde^2)",
    "bound_curve": "rho^k * W0 + floor",
    "k_eps": "p*M*R*(sqrt(M) + kappa)^2 / (2*m - kappa_tilde^2)^3 * log(1/eps)/eps^2",
    "k_eps_kappa_zero": "p*(m+M)^3*M^2*R / (4*m^2 + 4*M*(m - delta) - delta^2)^3 * log(1/eps)/eps^2",
    "k_eps_classical": "p*M^2 / (m^3 * eps^2) * log(1/eps)",
    "K1": "M + kappa",
}


@dataclass
class AssumptionReport:
    """Declared + sampled assumption constants for one (entropy, target) pair.

    The ``kappa``/``m``/``M``/``delta``/``r_value`` fields are the effective
    values used downstream (declared for the pair if any, sampled otherwise);
    ``kappa_tilde``, ``admissible`` and ``k1`` are derived from them.
    """

    entropy: str
    target: str
    n_pairs: int
    proposal: str
    kappa_declared: float | None
    kappa_sampled: float
    m_declared: float | None
    m_sampled: float
    M_declared: float | None
    M_sampled: float
    delta_declared: float | None
    delta_sampled: float
    r_method: str
    r_value: float
    r_error: float
    r_table2: float | None
    kappa: float
    m: float
    M: float
    delta: float
    kappa_tilde: float
    admissible: bool
    k1: float
    n_degenerate: int = 0
    warnings: list = field(default_factory=list)

    def to_dict(self):
        out = dict(self.__dict__)
        out["formulas"] = {k: _FORMULAS[k] for k in ("kappa_tilde", "K1")}
        return out

    @classmethod
    def from_dict(cls, d):
        """The report ``to_dict`` wrote; missing or unknown keys raise InvalidParameters."""
        if not isinstance(d, dict):
            raise InvalidParameters("a report must be a JSON object")
        d = dict(d)
        d.pop("formulas", None)
        names = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        problems = [f"{what} keys {sorted(keys)}" for what, keys in
                    (("missing", required - set(d)), ("unknown", set(d) - names)) if keys]
        if problems:
            raise InvalidParameters("report has " + " and ".join(problems))
        return cls(**d)


def estimate_constants(entropy, target, n_pairs: int = 10_000, seed: int = 0,
                       r_method: str = "auto") -> AssumptionReport:
    """Sample the A1-A5 ratio statistics and assemble an AssumptionReport.

    kappa_hat is the max of sqrt(2) ||Delta D2phi^(1/2)||_F / ||Delta grad phi||_2,
    m_hat/M_hat the min inner-product ratio and max gradient ratio, delta_hat
    the max single-point commutator spectral norm.  Pairs with mirror
    displacement below 1e-12 are skipped as degenerate.
    """
    x1, x2, dg, df = _sampled_pairs(entropy, target, n_pairs, seed)
    gg = np.sqrt(np.sum(dg * dg, axis=-1))
    keep = gg > DEGENERATE_PAIR_TOL
    n_degenerate = int(np.sum(~keep))

    ds = (entropy.hessian_sqrt_diag(x1) - entropy.hessian_sqrt_diag(x2)).astype(_LD)
    frob = np.sqrt(np.sum(ds * ds, axis=-1))
    kappa_hat = float(np.max(math.sqrt(2.0) * frob[keep] / gg[keep]))

    inner = np.sum(df * dg, axis=-1)[keep]
    ff = np.sqrt(np.sum(df * df, axis=-1))[keep]
    gk = gg[keep]
    m_hat = float(np.min(inner / (gk * gk)))
    M_hat = float(np.max(ff / gk))

    delta_hat = float(np.max(_commutator_norms(entropy, target, x1)))

    r_est = r_constant(target, method=r_method, seed=seed, entropy=entropy)

    m_dec, M_dec, delta_dec, _, _ = target.declared_for(entropy)
    kappa_eff = entropy.kappa_declared if entropy.kappa_declared is not None else kappa_hat
    m_eff = m_dec if m_dec is not None else m_hat
    M_eff = M_dec if M_dec is not None else M_hat
    delta_eff = delta_dec if delta_dec is not None else delta_hat

    warnings = []
    if entropy.kappa_declared is not None and not math.isfinite(entropy.kappa_declared):
        warnings.append(
            "entropy declares no finite Hessian-sqrt Lipschitz constant; "
            f"sampled ratio reached {kappa_hat:.6g} and grows with the proposal range"
        )
    if entropy.kappa_declared is not None and math.isfinite(entropy.kappa_declared):
        if kappa_hat > entropy.kappa_declared * 1.01 + 1e-12:
            warnings.append(
                f"sampled kappa {kappa_hat:.6g} exceeds declared "
                f"{entropy.kappa_declared:.6g} by more than 1%"
            )
    if m_dec is not None and m_hat < m_dec * 0.99 - 1e-12:
        warnings.append(f"sampled m {m_hat:.6g} undercuts declared {m_dec:.6g} by more than 1%")
    if M_dec is not None and M_hat > M_dec * 1.01 + 1e-12:
        warnings.append(f"sampled M {M_hat:.6g} exceeds declared {M_dec:.6g} by more than 1%")
    if delta_dec is not None and delta_hat > delta_dec + max(0.01 * delta_dec, 1e-9):
        warnings.append(f"sampled delta {delta_hat:.6g} exceeds declared {delta_dec:.6g}")

    kt = kappa_tilde(kappa_eff, m_eff, M_eff, delta_eff)
    return AssumptionReport(
        entropy=entropy.name,
        target=target.name,
        n_pairs=n_pairs,
        proposal=entropy.proposal,
        kappa_declared=entropy.kappa_declared,
        kappa_sampled=kappa_hat,
        m_declared=m_dec,
        m_sampled=m_hat,
        M_declared=M_dec,
        M_sampled=M_hat,
        delta_declared=delta_dec,
        delta_sampled=delta_hat,
        r_method=r_est.method,
        r_value=r_est.value,
        r_error=r_est.error,
        r_table2=r_est.table2_value,
        kappa=float(kappa_eff),
        m=float(m_eff),
        M=float(M_eff),
        delta=float(delta_eff),
        kappa_tilde=float(kt),
        admissible=bool(m_eff > 0.0 and kt < math.sqrt(2.0 * m_eff)),
        k1=float(M_eff + kappa_eff),
        n_degenerate=n_degenerate,
        warnings=warnings,
    )


def _sampled_pairs(entropy, target, n_pairs, seed):
    """Proposal pairs (x1, x2) and their grad phi and grad f differences in long double."""
    _check_dims(entropy, target)
    if n_pairs < 1:
        raise InvalidParameters(f"need at least one pair, got {n_pairs}")
    p = entropy.dim
    # x1 and x2 in float64, dg and df in long double.
    check_allocation(2 * n_pairs * p * (8 + np.dtype(_LD).itemsize),
                     f"drawing {n_pairs} pair(s) x {p} coordinate(s)", "use fewer pairs")
    rng = np.random.default_rng(check_seed(seed))
    x1 = entropy.sample_interior(rng, n_pairs)
    x2 = entropy.sample_interior(rng, n_pairs)
    dg = (entropy.grad(x1) - entropy.grad(x2)).astype(_LD)
    df = (target.grad(x1) - target.grad(x2)).astype(_LD)
    return x1, x2, dg, df


def _commutator_norms(entropy, target, x):
    hf = target.hessian(x)
    inv_d = 1.0 / entropy.hessian_diag(x)
    comm = inv_d[..., :, None] * hf - hf * inv_d[..., None, :]
    if not comm.any():  # a diagonal Hessian commutes with the diagonal metric
        return np.zeros(comm.shape[:-2])
    return np.linalg.norm(comm, ord=2, axis=(-2, -1))


@dataclass
class BoundReport:
    """Per-step contraction bound evaluated at a constant step size.

    ``bound_at(k)`` evaluates rho^k * ``w0`` + floor; the floor is the geometric
    sum limit of the per-step discretization and bias terms.
    """

    h: float
    p: int
    m: float
    M: float
    delta: float
    kappa: float
    r_value: float
    kappa_tilde: float
    rho: float
    beta1: float
    beta2: float
    floor: float
    r0: float
    step_window: float
    w0: float | None = None
    formulas: dict = field(default_factory=lambda: dict(_FORMULAS))

    def bound_at(self, k):
        if self.w0 is None:
            raise ValueError("bound_at needs an initial distance W0")
        k = np.asarray(k, dtype=float)
        return self.rho**k * self.w0 + self.floor

    def to_dict(self):
        d = dict(self.__dict__)
        d["formulas"] = dict(self.formulas)
        return d


def bound_report(report: AssumptionReport, h: float, p: int,
                 w0: float | None = None) -> BoundReport:
    """Evaluate every closed-form quantity of the constant-step bound."""
    if p < 1:
        raise InvalidParameters(f"dimension p must be at least 1, got {p}")
    if not math.isfinite(h):
        raise InvalidParameters(f"step size h must be finite, got {h}")
    if w0 is not None and not 0.0 <= w0 < math.inf:
        raise InvalidParameters(f"w0 must be a finite non-negative distance, got {w0}")
    if not report.admissible:
        raise InadmissibleRegime(
            f"kappa_tilde={report.kappa_tilde:.6g} and m={report.m:.6g}: "
            "the bound needs m > 0 and kappa_tilde^2 < 2 m"
        )
    window = admissible_step_window(report.m, report.M, report.kappa_tilde)
    if not (0.0 < h < window):
        raise StepOutOfWindow(f"h={h:g} outside (0, {window:g})")
    rho = contraction_factor(h, report.m, report.M, report.kappa_tilde)
    b1 = beta1(report.r_value, report.kappa)
    b2 = beta2(report.r_value, report.M, report.kappa)
    floor = (h * math.sqrt(p) * b1 + h**1.5 * math.sqrt(p) * b2) / (1.0 - rho)
    r0 = bias_radius(p, report.r_value, report.kappa, report.m, report.kappa_tilde)
    return BoundReport(
        h=float(h),
        p=int(p),
        m=report.m,
        M=report.M,
        delta=report.delta,
        kappa=report.kappa,
        r_value=report.r_value,
        kappa_tilde=report.kappa_tilde,
        rho=float(rho),
        beta1=float(b1),
        beta2=float(b2),
        floor=float(floor),
        r0=float(r0),
        step_window=float(window),
        w0=w0,
    )


@dataclass
class ComplexityReport:
    """Iteration count needed to enter the r0 + eps ball, order form only.

    The proportionality constant is fixed to 1, so only the scaling in
    (p, m, M, R, kappa, eps) carries meaning.
    """

    k_eps: int
    value: float
    formula: str
    eps: float
    eps_window: float
    variants: dict = field(default_factory=dict)


def iteration_complexity(report: AssumptionReport, p: int, eps: float) -> ComplexityReport:
    """General iteration-complexity value plus labeled special-case forms.

    The eps validity window is the three-way min; the two constraints scaled
    by the bias coefficient are vacuous (skipped) when kappa_tilde or beta1
    is zero, otherwise no eps would be admissible in the bias-free regime.
    """
    if p < 1:
        raise InvalidParameters(f"dimension p must be at least 1, got {p}")
    if not math.isfinite(eps):
        raise InvalidParameters(f"eps must be finite, got {eps}")
    if not report.admissible:
        raise InadmissibleRegime("iteration complexity needs kappa_tilde < sqrt(2 m)")
    m, M, kappa, delta, R = report.m, report.M, report.kappa, report.delta, report.r_value
    kt = report.kappa_tilde
    b1 = beta1(R, kappa)
    b2 = beta2(R, M, kappa)
    gap = 2.0 * m - kt * kt

    windows = [4.0 * math.sqrt(2.0) * math.sqrt(p) * b2 / (m * math.sqrt(gap))]
    if kt > 0.0 and b1 > 0.0:
        windows.append(2.0 * kt * kt * math.sqrt(p) * b1 / gap**2)
        windows.append(
            32.0 * math.sqrt(p) * b2 * b2 / (kt * kt * (4.0 * m - kt * kt) ** 2 * b1)
        )
    eps_window = min(windows)
    if not (0.0 < eps < eps_window):
        raise EpsOutOfRange(eps, eps_window)

    log_term = math.log(1.0 / eps) / (eps * eps)
    value = p * M * R * (math.sqrt(M) + kappa) ** 2 / gap**3 * log_term

    variants = {}
    if kappa == 0.0:
        # Specialization = the general formula with kappa = 0.  The published
        # order form carries a different constant (hidden by the "up to
        # constants" statement); report it alongside.
        kt0 = kappa_tilde(0.0, m, M, delta)
        variants["kappa_zero"] = p * M * M * R / (2.0 * m - kt0 * kt0) ** 3 * log_term
        denom = 4.0 * m * m + 4.0 * M * (m - delta) - delta * delta
        variants["kappa_zero_order_form"] = (
            p * (m + M) ** 3 * M * M * R / denom**3 * log_term
        )
        if delta == 0.0:
            variants["classical"] = p * M * M / (m**3) * log_term

    return ComplexityReport(
        k_eps=math.ceil(value),
        value=float(value),
        formula=_FORMULAS["k_eps"],
        eps=float(eps),
        eps_window=float(eps_window),
        variants=variants,
    )


@dataclass
class BaillonHaddadResult:
    """Outcome of the cocoercivity-type inequality check on sampled pairs."""

    passed: bool
    min_slack: float
    a_coeff: float
    b_coeff: float
    witness: tuple
    n_pairs: int


def check_baillon_haddad(entropy, target, n_pairs: int = 10_000, seed: int = 0,
                         m: float | None = None, M: float | None = None,
                         delta: float | None = None,
                         tol: float = 1e-9) -> BaillonHaddadResult:
    """Check <df, dphi> >= A ||df||^2 + B ||dphi||^2 on sampled pairs.

    A = 1/(m+M) and B = (4 m M - 4 M delta - delta^2)/(4 (m+M)); with delta=0
    the second coefficient reduces to m M / (m + M); m, M and delta default to
    those declared for the pair.  Failure is a result, not an error: the
    minimum slack and its witness pair come back either way.
    """
    x1, x2, dg, df = _sampled_pairs(entropy, target, n_pairs, seed)
    m_dec, M_dec, delta_dec, _, _ = target.declared_for(entropy)
    m = m_dec if m is None else m
    M = M_dec if M is None else M
    delta = (delta_dec if delta_dec is not None else 0.0) if delta is None else delta
    if m is None or M is None:
        raise ValueError("check_baillon_haddad needs m and M")
    a_coeff = 1.0 / (m + M)
    b_coeff = (4.0 * m * M - 4.0 * M * delta - delta * delta) / (4.0 * (m + M))
    slack = (
        np.sum(df * dg, axis=-1)
        - _LD(a_coeff) * np.sum(df * df, axis=-1)
        - _LD(b_coeff) * np.sum(dg * dg, axis=-1)
    )
    i = int(np.argmin(slack))
    min_slack = float(slack[i])
    return BaillonHaddadResult(
        passed=bool(min_slack >= -tol),
        min_slack=min_slack,
        a_coeff=a_coeff,
        b_coeff=b_coeff,
        witness=(x1[i].copy(), x2[i].copy()),
        n_pairs=n_pairs,
    )
