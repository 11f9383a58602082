"""Mirror Wasserstein distance between empirical measures, plus moment checks.

The ground cost is d(x, x') = ||grad_phi(x) - grad_phi(x')||_2, so distances
are computed as plain W2 after pushing both clouds through the mirror map
(the map is an isometry onto the dual space).  Estimators:

* ``exact-1d``   sort-and-couple, exact for dim 1 and equal counts;
* ``assignment`` exact minimum-cost perfect matching on the squared-distance
  matrix (Jonker-Volgenant family via scipy), exact empirical W2 for any
  dimension up to 2048 points.  The matrix is warm-started: each row is
  shifted by the sum of the clouds' 1-d marginal transport potentials and
  each column by its c-transform, so the solver starts from near-optimal
  duals (half the sweep's solve time).  A shift of a row or a column adds
  the same amount to every permutation's cost, so the optimal permutation
  does not change; and the total is summed from the matched points in
  cdist's order, so it is the unshifted matrix's total bit for bit.  A tied
  optimum may come back as another optimal permutation, with the same total.
  Clouds ~1e5 spreads apart round the matrix so coarsely that near-optimal
  permutations tie, and there the shift may pick another of them;
* ``sliced``     mean of squared 1-d distances over random unit projections.
  This lower-bounds and does not equal W2; it is reported as a distinct
  estimator and the acceptance experiments never rely on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MethodUnavailable, SizeMismatch, Unavailable, check_seed

ASSIGNMENT_MAX_POINTS = 2048
AUTO_ASSIGNMENT_MAX = 512
DEFAULT_PROJECTIONS = 256


def _cloud(obj) -> np.ndarray:
    """A uniformly weighted point cloud as an (n, dim) array; a vector is n 1-d points."""
    pts = np.asarray(obj, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("an empirical measure needs a nonempty (n, dim) cloud")
    return pts


def mirror_embed(entropy, measure) -> np.ndarray:
    """Push a cloud through grad_phi; distances in the image equal the ground cost."""
    return entropy.grad(_cloud(measure))


@dataclass
class DistanceEstimate:
    value: float
    method: str
    n_points: int
    aux: dict = field(default_factory=dict)


def w2phi(entropy, mu, nu, method: str = "auto", n_projections: int = DEFAULT_PROJECTIONS,
          seed: int = 0) -> DistanceEstimate:
    """Mirror 2-Wasserstein distance between two empirical measures."""
    return w2_embedded(mirror_embed(entropy, mu), mirror_embed(entropy, nu), method,
                       n_projections, seed)


def w2_embedded(a, b, method: str = "auto", n_projections: int = DEFAULT_PROJECTIONS,
                seed: int = 0) -> DistanceEstimate:
    """``w2phi`` between clouds already pushed through the mirror map (``mirror_embed``).

    A cloud compared with many others is embedded once and passed here.
    Both clouds are checked as ``_cloud`` checks them, and clouds of
    different dimensions raise ``SizeMismatch``.
    """
    a, b = _cloud(a), _cloud(b)
    if a.shape[1] != b.shape[1]:
        raise SizeMismatch(f"clouds need equal dimensions, got {a.shape[1]} and {b.shape[1]}")
    method = resolve_method(method, a.shape[0], b.shape[0], a.shape[1])
    if method == "exact-1d":
        return _w2_exact_1d(a, b)
    if method == "assignment":
        return _w2_assignment(a, b)
    return _w2_sliced(a, b, n_projections, seed)


def resolve_method(method: str, n_a: int, n_b: int, dim: int) -> str:
    """The estimator ``w2phi`` runs for clouds of n_a and n_b points in dim.

    ``auto`` is exact-1d in 1-d, else assignment for equal counts up to
    ``AUTO_ASSIGNMENT_MAX``, else sliced.  A method that cannot run on these
    clouds raises here, so callers can check before they build the clouds.
    """
    if method == "auto":
        if dim == 1:
            method = "exact-1d"
        elif n_a == n_b and n_a <= AUTO_ASSIGNMENT_MAX:
            method = "assignment"
        else:
            method = "sliced"
    if method not in ("exact-1d", "assignment", "sliced"):
        raise MethodUnavailable(f"unknown method {method!r}")
    if method == "exact-1d" and dim != 1:
        raise MethodUnavailable("exact-1d needs one-dimensional points")
    if method != "sliced" and n_a != n_b:
        raise SizeMismatch(f"{method} needs equal counts, got {n_a} and {n_b}")
    if method == "assignment" and n_a > ASSIGNMENT_MAX_POINTS:
        raise MethodUnavailable(
            f"assignment is limited to {ASSIGNMENT_MAX_POINTS} points; use sliced"
        )
    if method == "assignment":
        # Loaded here, before any chain runs, so forked distance workers
        # inherit the solver and a broken scipy fails first.
        import scipy.optimize  # noqa: F401
        import scipy.spatial.distance  # noqa: F401
    return method


def w2_sorted(sa, sb) -> float:
    """Exact W2 between two equal-size 1-d samples, each already sorted: the sort coupling.

    A sample compared with many others is sorted once and passed here.  The
    mean is ``np.mean``'s: a pairwise sum, then one division.
    """
    d = sa - sb
    d *= d
    return math.sqrt(float(np.add.reduce(d)) / d.size)


def _w2_exact_1d(a, b):
    return DistanceEstimate(w2_sorted(np.sort(a[:, 0]), np.sort(b[:, 0])), "exact-1d",
                            a.shape[0])


def _shift_to_marginal_duals(cost, a, b):
    """Subtract near-optimal duals from the squared-distance matrix of a and b, in place.

    Row i loses u_i = sum_k u_k(a_ik), where u_k is the Kantorovich potential
    of the sort coupling of a[:, k] with b[:, k]: over the sorted a-values it
    integrates 2 (y - T_k(y)) by the trapezoid rule, T_k mapping the j-th
    smallest a-value to the j-th smallest b-value.  Each column then loses its
    minimum, the c-transform of u.  Clouds whose potentials or costs are not
    finite, or near overflow, are left unshifted, so they fail as they would
    without the shift.
    """
    order = np.argsort(a, axis=0)
    sa = np.take_along_axis(a, order, axis=0)
    with np.errstate(all="ignore"):
        gap = sa - np.sort(b, axis=0)
        u_sorted = np.zeros(sa.shape)
        np.cumsum((gap[1:] + gap[:-1]) * np.diff(sa, axis=0), axis=0, out=u_sorted[1:])
        u = np.empty_like(u_sorted)
        np.put_along_axis(u, order, u_sorted, axis=0)
        u = u.sum(axis=1)
    limit = np.finfo(float).max / 4  # then neither subtraction can overflow
    if np.abs(u).max() < limit and cost.max() < limit:
        cost -= u[:, None]
        cost -= cost.min(axis=0)


def _optimal_matching(a, b):
    """An optimal matching of a to b[cols], and the squared distance of each matched pair."""
    # Local: scipy is ~0.6 s of import set-up that only the assignment estimator needs.
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(a, b, metric="sqeuclidean")
    _shift_to_marginal_duals(cost, a, b)
    cols = linear_sum_assignment(cost)[1]
    d = a - b[cols]
    d *= d
    # Summed one coordinate after another, as cdist sums them: cdist(a, b)[rows, cols].
    return cols, sum(d.T)


def _w2_assignment(a, b):
    total = float(_optimal_matching(a, b)[1].sum())
    mean_sq = total / a.shape[0]
    return DistanceEstimate(
        math.sqrt(mean_sq), "assignment", a.shape[0], aux={"assignment_cost": total}
    )


def _w2_sliced(a, b, n_projections, seed):
    rng = np.random.default_rng(check_seed(seed))
    p = a.shape[1]
    dirs = rng.standard_normal((n_projections, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = a @ dirs.T
    pb = b @ dirs.T
    if a.shape[0] == b.shape[0]:
        qa = np.sort(pa, axis=0)
        qb = np.sort(pb, axis=0)
    else:
        # couple through a common quantile grid when counts differ
        grid = (np.arange(max(a.shape[0], b.shape[0])) + 0.5) / max(a.shape[0], b.shape[0])
        qa = np.quantile(pa, grid, axis=0)
        qb = np.quantile(pb, grid, axis=0)
    mean_sq = float(np.mean((qa - qb) ** 2))
    return DistanceEstimate(
        math.sqrt(mean_sq), "sliced", a.shape[0], aux={"n_projections": n_projections}
    )


@dataclass
class MomentReport:
    """Per-coordinate sample moments with z-scores against an analytic oracle."""

    mean: np.ndarray
    variance: np.ndarray
    z_mean: np.ndarray
    z_variance: np.ndarray
    n: int


def moment_report(measure, target) -> MomentReport:
    if not target.has_moment_oracle:
        raise Unavailable(f"{target.name}: no moment oracle")
    pts = _cloud(measure)
    n = pts.shape[0]
    mean = pts.mean(axis=0)
    if n > 1:
        var = pts.var(axis=0, ddof=1)
    else:
        var = np.zeros(pts.shape[1])
    centered = pts - mean
    m4 = np.mean(centered**4, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        se_mean = np.sqrt(var / n)
        z_mean = (mean - target.moment_mean) / se_mean
        se_var = np.sqrt(np.maximum(m4 - var**2, 0.0) / n)
        z_var = (var - target.moment_var) / se_var
    return MomentReport(mean=mean, variance=var, z_mean=z_mean, z_variance=z_var, n=n)


def gaussian_w2(mean_a, cov_a, mean_b, cov_b) -> float:
    """Closed-form W2 between two Gaussians (Bures metric on covariances).

    Used by the moment-matching plateau protocol for targets whose chain law
    is exactly Gaussian (affine updates with Gaussian noise).
    """
    mean_a = np.atleast_1d(np.asarray(mean_a, float))
    mean_b = np.atleast_1d(np.asarray(mean_b, float))
    cov_a = np.atleast_2d(np.asarray(cov_a, float))
    cov_b = np.atleast_2d(np.asarray(cov_b, float))
    sb = _sqrtm_psd(cov_b)
    cross = _sqrtm_psd(sb @ cov_a @ sb)
    d2 = float(
        np.sum((mean_a - mean_b) ** 2)
        + np.trace(cov_a)
        + np.trace(cov_b)
        - 2.0 * np.trace(cross)
    )
    return math.sqrt(max(d2, 0.0))


def _sqrtm_psd(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T
