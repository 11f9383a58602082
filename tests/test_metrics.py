"""Distance-estimator tests: exactness, metric axioms, moment diagnostics."""

import itertools
import math
import warnings

import numpy as np
import pytest

from hrlmc import entropy as ent, metrics as mtr, target as tgt
from hrlmc.errors import DomainViolation, MethodUnavailable, SizeMismatch, Unavailable


def brute_force_w2(a, b):
    """Minimum mean squared matching cost over all permutations (oracle)."""
    n = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = float(np.sum((a - b[list(perm)]) ** 2) / n)
        best = min(best, cost)
    return math.sqrt(best)


# ---------------------------------------------------------------- embedding


def test_mirror_embed_identity_for_euclidean():
    e = ent.euclidean(2)
    cloud = np.array([[0.0, 1.0], [2.0, -3.0]])
    np.testing.assert_array_equal(mtr.mirror_embed(e, cloud), cloud)


def test_mirror_embed_burg():
    e = ent.burg(1)
    np.testing.assert_allclose(
        mtr.mirror_embed(e, [[2.0], [4.0]]), [[-0.5], [-0.25]], rtol=1e-15
    )


def test_mirror_embed_logit_center():
    e = ent.logit_barrier(1)
    np.testing.assert_allclose(mtr.mirror_embed(e, [[0.5]]), [[0.0]], atol=0)


def test_mirror_embed_rejects_exterior_points():
    e = ent.burg(1)
    with pytest.raises(DomainViolation):
        mtr.mirror_embed(e, [[-1.0]])


def test_embedding_preserves_ground_cost():
    e = ent.burg(2)
    rng = np.random.default_rng(0)
    a = e.sample_interior(rng, 10)
    b = e.sample_interior(rng, 10)
    emb = np.linalg.norm(mtr.mirror_embed(e, a) - mtr.mirror_embed(e, b), axis=1)
    direct = np.linalg.norm(e.grad(a) - e.grad(b), axis=1)
    np.testing.assert_array_equal(emb, direct)


# ----------------------------------------------------------------- distances


def test_w2_identical_measures_is_zero():
    e = ent.euclidean(1)
    cloud = np.array([[0.0], [1.0]])
    assert mtr.w2phi(e, cloud, cloud).value == 0.0


def test_w2_two_point_example():
    e = ent.euclidean(1)
    est = mtr.w2phi(e, [[0.0], [2.0]], [[1.0], [3.0]])
    assert est.method == "exact-1d"
    assert est.value == pytest.approx(1.0, abs=0)


def test_assignment_equals_brute_force_small():
    e = ent.euclidean(2)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal((5, 2))
    est = mtr.w2phi(e, a, b, method="assignment")
    assert est.value == pytest.approx(brute_force_w2(a, b), abs=1e-14)


def _cold_solve(a, b):
    """scipy's solve of the unshifted matrix, as the estimator ran before its warm start."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(a, b, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return cost, rows, cols, float(cost[rows, cols].sum())


def _warm_solve(a, b):
    cols, matched = mtr._optimal_matching(a, b)
    total = mtr.w2_embedded(a, b, method="assignment").aux["assignment_cost"]
    return cols, matched, total


_WARM_CASES = [(p, n) for p in (1, 2, 3, 8) for n in (2, 3, 5, 17, 100, 512)]


@pytest.mark.parametrize("p,n", _WARM_CASES)
def test_warm_assignment_matches_the_cold_solve(p, n):
    rng = np.random.default_rng(1000 * p + n)
    a = rng.standard_normal((n, p))
    b = 1.5 * rng.gamma(2.0, size=(n, p)) @ np.triu(np.ones((p, p))) - 1.0
    # The last two are far-apart laws.  At 1e3 spreads the matrix's rounding
    # still leaves one optimum; from ~1e5 it ties near-optimal permutations.
    for x, y in [(a, b), (b, a), (a, b + 10.0), (a, b + 1e3)]:
        cost, rows, cold_cols, cold_total = _cold_solve(x, y)
        cols, matched, total = _warm_solve(x, y)
        np.testing.assert_array_equal(cols, cold_cols)
        assert total == cold_total
        assert np.array_equal(matched, cost[rows, cols])


@pytest.mark.parametrize("p,n", _WARM_CASES)
def test_warm_assignment_of_a_cloud_and_its_permutation_is_zero(p, n):
    rng = np.random.default_rng(2000 * p + n)
    a = rng.standard_normal((n, p))
    perm = rng.permutation(n)
    cols, matched, total = _warm_solve(a, a[perm])
    np.testing.assert_array_equal(cols, _cold_solve(a, a[perm])[2])
    np.testing.assert_array_equal(perm[cols], np.arange(n))
    assert total == 0.0 and not matched.any()


@pytest.mark.parametrize("p,n", [(1, 3), (1, 64), (2, 17), (2, 200), (3, 100), (8, 64)])
def test_warm_assignment_of_tied_grids_gives_the_cold_total(p, n):
    # Integer costs are exact, and many permutations share the optimum; the
    # warm solve may return another of them, never another total.
    rng = np.random.default_rng(4000 * p + n)
    a = rng.integers(0, 4, (n, p)).astype(float)
    b = rng.integers(0, 4, (n, p)).astype(float)
    cost, rows, _, cold_total = _cold_solve(a, b)
    cols, matched, total = _warm_solve(a, b)
    np.testing.assert_array_equal(np.sort(cols), np.arange(n))
    assert total == cold_total
    assert np.array_equal(matched, cost[rows, cols])


@pytest.mark.parametrize("cloud,value,message", [
    ("a", np.nan, "matrix contains invalid numeric entries"),
    ("a", np.inf, "cost matrix is infeasible"),
    ("a", 1e200, "cost matrix is infeasible"),
    ("b", -1e200, "cost matrix is infeasible"),
    # Finite potentials, but a point of b out of every point of a's reach.
    ("b", 2e154, "cost matrix is infeasible"),
])
def test_warm_assignment_of_nonfinite_clouds_fails_as_the_cold_solve(cloud, value, message):
    rng = np.random.default_rng(5)
    clouds = {"a": rng.standard_normal((6, 2)), "b": rng.standard_normal((6, 2))}
    clouds[cloud][3, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            mtr.w2_embedded(clouds["a"], clouds["b"], method="assignment")


def test_assignment_brute_force_on_criterion_6_instances():
    """The library's total equals the permutation minimum exactly on criterion 6's draws."""
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(707)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        a = rng.standard_normal((n, p))
        b = rng.standard_normal((n, p))
        cost = cdist(a, b, metric="sqeuclidean")
        brute_total = min(cost[np.arange(n), list(perm)].sum()
                          for perm in itertools.permutations(range(n)))
        assert mtr.w2_embedded(a, b, method="assignment").aux["assignment_cost"] == brute_total


def test_auto_method_selection():
    e1 = ent.euclidean(1)
    assert mtr.w2phi(e1, np.zeros((700, 1)), np.ones((700, 1))).method == "exact-1d"
    e2 = ent.euclidean(2)
    rng = np.random.default_rng(1)
    small = rng.standard_normal((40, 2))
    assert mtr.w2phi(e2, small, small).method == "assignment"
    big = rng.standard_normal((600, 2))
    assert mtr.w2phi(e2, big, big).method == "sliced"


def test_size_mismatch_and_limits():
    e = ent.euclidean(1)
    with pytest.raises(SizeMismatch):
        mtr.w2phi(e, np.zeros((3, 1)), np.zeros((4, 1)), method="exact-1d")
    e2 = ent.euclidean(2)
    with pytest.raises(SizeMismatch):
        mtr.w2phi(e2, np.zeros((3, 2)), np.zeros((4, 2)), method="assignment")
    with pytest.raises(MethodUnavailable):
        mtr.w2phi(e2, np.zeros((2049, 2)), np.zeros((2049, 2)), method="assignment")
    with pytest.raises(MethodUnavailable):
        mtr.w2phi(e2, np.zeros((4, 2)), np.zeros((4, 2)), method="exact-1d")


def test_metric_axioms_on_random_clouds():
    e = ent.euclidean(2)
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.standard_normal((8, 2))
        b = rng.standard_normal((8, 2))
        c = rng.standard_normal((8, 2))
        dab = mtr.w2phi(e, a, b, method="assignment").value
        dba = mtr.w2phi(e, b, a, method="assignment").value
        dac = mtr.w2phi(e, a, c, method="assignment").value
        dcb = mtr.w2phi(e, c, b, method="assignment").value
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= dac + dcb + 1e-9
        assert mtr.w2phi(e, a, a, method="assignment").value == 0.0


def test_sliced_lower_bounds_exact():
    e = ent.euclidean(3)
    rng = np.random.default_rng(23)
    a = rng.standard_normal((64, 3))
    b = 0.5 * rng.standard_normal((64, 3)) + 1.0
    exact = mtr.w2phi(e, a, b, method="assignment").value
    sliced = mtr.w2phi(e, a, b, method="sliced", n_projections=512, seed=0).value
    assert sliced <= exact + 1e-9
    assert mtr.w2phi(e, a, b, method="sliced", seed=1).aux["n_projections"] == 256


def test_mirror_distance_burg_vs_euclidean_of_embedding():
    # With the Burg map the distance equals plain W2 of the embedded clouds.
    e = ent.burg(1)
    a = np.array([[2.0], [4.0]])
    b = np.array([[1.0], [5.0]])
    est = mtr.w2phi(e, a, b)
    ea, eb = -1.0 / a, -1.0 / b
    plain = mtr.w2phi(ent.euclidean(1), ea, eb)
    assert est.value == pytest.approx(plain.value, abs=0)


def test_consistency_distance_shrinks_with_sample_size():
    gamma = tgt.gamma_target([5.0], [1.0])
    e = ent.burg(1)
    medians = []
    for n in (100, 1000, 10_000):
        vals = []
        for rep in range(20):
            a = tgt.exact_sample(gamma, n, seed=1000 + rep)
            b = tgt.exact_sample(gamma, n, seed=5000 + rep)
            vals.append(mtr.w2phi(e, a, b).value)
        medians.append(float(np.median(vals)))
    assert medians[0] > medians[1] > medians[2]


# ------------------------------------------------------------------ moments


def test_moment_report_gamma_exact_draws():
    gamma = tgt.gamma_target([5.0], [1.0])
    draws = tgt.exact_sample(gamma, 100_000, seed=2)
    rep = mtr.moment_report(draws, gamma)
    assert abs(rep.z_mean[0]) <= 4.0
    assert abs(rep.z_variance[0]) <= 4.0
    assert rep.mean[0] == pytest.approx(5.0, rel=0.05)


def test_moment_report_degenerate_cloud():
    gamma = tgt.gamma_target([5.0], [1.0])
    cloud = np.full((50, 1), 2.5)
    rep = mtr.moment_report(cloud, gamma)
    assert rep.variance[0] == 0.0


def test_moment_report_beta_symmetry():
    beta = tgt.beta_target(4.0, 4.0)
    draws = tgt.exact_sample(beta, 100_000, seed=3)
    rep = mtr.moment_report(draws, beta)
    assert rep.mean[0] == pytest.approx(0.5, abs=0.005)


def test_moment_report_requires_oracle():
    bare = tgt.Target(
        name="bare", dim=1, paired_entropy="burg",
        potential=lambda x: np.sum(x, axis=-1),
        grad=lambda x: np.ones_like(x),
        hessian=lambda x: np.zeros(x.shape + (1,)),
    )
    with pytest.raises(Unavailable):
        mtr.moment_report(np.ones((5, 1)), bare)


# -------------------------------------------------------------- gaussian W2


def test_gaussian_w2_identical_is_zero():
    assert mtr.gaussian_w2([0.0, 0.0], np.eye(2), [0.0, 0.0], np.eye(2)) == 0.0


def test_gaussian_w2_mean_shift():
    mu = np.array([3.0, 4.0])
    assert mtr.gaussian_w2(mu, np.eye(2), np.zeros(2), np.eye(2)) == pytest.approx(5.0)


def test_gaussian_w2_diagonal_covariances():
    v1 = np.array([1.0, 4.0])
    v2 = np.array([0.25, 1.0])
    expect = math.sqrt(np.sum((np.sqrt(v1) - np.sqrt(v2)) ** 2))
    got = mtr.gaussian_w2(np.zeros(2), np.diag(v1), np.zeros(2), np.diag(v2))
    assert got == pytest.approx(expect, rel=1e-12)


def test_empirical_measure_validation():
    with pytest.raises(ValueError):
        mtr.mirror_embed(ent.euclidean(2), np.zeros((0, 2)))
    assert mtr.mirror_embed(ent.euclidean(1), [1.0, 2.0, 3.0]).shape == (3, 1)


@pytest.mark.parametrize("method", ["auto", "exact-1d", "assignment", "sliced"])
@pytest.mark.parametrize("dims", [(1, 2), (2, 1)], ids=["1-vs-2", "2-vs-1"])
def test_embedded_clouds_of_different_dimensions_are_refused(dims, method):
    # Resolved from the first cloud alone, (5, 1) against (5, 2) read 0.0
    # through exact-1d and the reverse raised scipy's ValueError.
    a, b = (np.arange(5.0 * d).reshape(5, d) for d in dims)
    with pytest.raises(SizeMismatch, match=f"equal dimensions, got {dims[0]} and {dims[1]}"):
        mtr.w2_embedded(a, b, method=method)
    with pytest.raises(ValueError, match="nonempty"):
        mtr.w2_embedded(a, np.zeros((0, dims[0])), method=method)
