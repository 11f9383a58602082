"""Mirror-map unit tests: closed forms, round trips, Hessians, A1 ratios."""

import itertools
import math

import numpy as np
import pytest

from hrlmc import entropy as ent
from hrlmc.errors import DomainViolation, DualDomainViolation, InvalidParameters

RT_TOL = 1e-10


def registered(dim=3):
    return ent.register_table1_entropies(dim=dim)


# ---------------------------------------------------------------- closed forms


def test_grad_euclidean_identity():
    e = ent.euclidean(2)
    np.testing.assert_array_equal(e.grad([3.0, -1.0]), [3.0, -1.0])


def test_grad_burg():
    e = ent.burg(1)
    np.testing.assert_allclose(e.grad([2.0]), [-0.5], rtol=0, atol=0)


def test_grad_logit_symmetry_point():
    e = ent.logit_barrier(1)
    np.testing.assert_allclose(e.grad([0.5]), [0.0], atol=0)


def test_grad_conjugate_euclidean_identity():
    e = ent.euclidean(2)
    np.testing.assert_array_equal(e.grad_conjugate([3.0, -1.0]), [3.0, -1.0])


def test_grad_conjugate_burg_closed_form():
    e = ent.burg(1)
    np.testing.assert_allclose(e.grad_conjugate([-0.5]), [2.0], rtol=1e-15)


def test_grad_conjugate_logit_zero():
    e = ent.logit_barrier(1)
    np.testing.assert_allclose(e.grad_conjugate([0.0]), [0.5], rtol=1e-15)


def test_hessian_euclidean_identity():
    e = ent.euclidean(3)
    x = np.array([0.3, -2.0, 5.0])
    np.testing.assert_array_equal(e.hessian(x), np.eye(3))


def test_hessian_burg():
    e = ent.burg(2)
    np.testing.assert_allclose(e.hessian([2.0, 4.0]), np.diag([0.25, 0.0625]), rtol=1e-15)


def test_hessian_logit_at_half():
    e = ent.logit_barrier(1)
    np.testing.assert_allclose(e.hessian([0.5]), [[8.0]], rtol=1e-15)


def test_hessian_sqrt_burg():
    e = ent.burg(2)
    np.testing.assert_allclose(e.hessian_sqrt([2.0, 4.0]), np.diag([0.5, 0.25]), rtol=1e-15)


# ------------------------------------------------------------------- registry


def test_table1_kappas():
    eucl, brg, logit, mix = registered()
    assert eucl.kappa_declared == 0.0
    assert brg.kappa_declared == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert logit.kappa_declared == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert mix.kappa_declared == pytest.approx(math.sqrt(2.0 / (1.0 - 0.7)), rel=1e-12)


def test_mixed_all_zero_weights_degenerates_to_burg():
    mix = ent.mixed([0.0, 0.0])
    assert mix.kappa_declared == pytest.approx(math.sqrt(2.0), rel=1e-15)
    x = np.array([0.7, 3.1])
    np.testing.assert_allclose(mix.grad(x), ent.burg(2).grad(x), rtol=1e-15)
    np.testing.assert_allclose(mix.grad_conjugate([-0.5, -2.0]), [2.0, 0.5], rtol=1e-14)


def test_mixed_weight_validation():
    with pytest.raises(InvalidParameters):
        ent.mixed([0.2, 1.0])
    with pytest.raises(InvalidParameters):
        ent.mixed([-0.1])


def test_boltzmann_shannon_not_in_table_registry():
    names = [e.name for e in registered()]
    assert "boltzmann-shannon" not in names
    assert ent.boltzmann_shannon(1).kappa_declared == math.inf


# ------------------------------------------------------------- domain guards


def test_domain_violation_on_boundary():
    e = ent.burg(1)
    with pytest.raises(DomainViolation):
        e.grad([0.0])
    with pytest.raises(DomainViolation):
        e.grad([1e-13])
    e2 = ent.logit_barrier(1)
    with pytest.raises(DomainViolation):
        e2.hessian([1.0])


def test_dual_domain_violation():
    e = ent.burg(1)
    with pytest.raises(DualDomainViolation):
        e.grad_conjugate([0.5])
    mix = ent.mixed([0.0, 0.4])
    with pytest.raises(DualDomainViolation):
        mix.grad_conjugate([0.5, 0.5])  # first coordinate is Burg-like, needs y < 0


_G = ent.BOUNDARY_GUARD
_EDGES = [_G, _G / 2, 1 - _G, 1 - _G / 2, 0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
# One character per value of _EDGES: "1" where a coordinate of that value is
# inside, "." where it is outside.
_FINITE = "11111111..."
_GUARDED_POSITIVE = "1.11..1...."
_NEGATIVE = ".......1..."
_GUARDED_UNIT = "1.1........"
_DOMAIN_MASKS = {
    # name: (entropy, per-coordinate (contains, dual_contains) masks)
    "euclidean": (ent.euclidean(2), [(_FINITE, _FINITE)] * 2),
    "burg": (ent.burg(2), [(_GUARDED_POSITIVE, _NEGATIVE)] * 2),
    "logit": (ent.logit_barrier(2), [(_GUARDED_UNIT, _FINITE)] * 2),
    "boltzmann-shannon": (ent.boltzmann_shannon(2), [(_GUARDED_POSITIVE, _FINITE)] * 2),
    "mixed-a0": (ent.mixed([0.0]), [(_GUARDED_POSITIVE, _NEGATIVE)]),
    "mixed-a0.5": (ent.mixed([0.5]), [(_GUARDED_POSITIVE, _FINITE)]),
    "mixed-a0,0.5": (ent.mixed([0.0, 0.5]),
                     [(_GUARDED_POSITIVE, _NEGATIVE), (_GUARDED_POSITIVE, _FINITE)]),
    "burg-scaled-3": (ent.burg(2).scaled(3.0), [(_GUARDED_POSITIVE, _NEGATIVE)] * 2),
    "logit-scaled-3": (ent.logit_barrier(2).scaled(3.0), [(_GUARDED_UNIT, _FINITE)] * 2),
}


@pytest.mark.parametrize("case", list(_DOMAIN_MASKS))
def test_domain_masks_are_pinned(case):
    e, masks = _DOMAIN_MASKS[case]
    index = list(itertools.product(range(len(_EDGES)), repeat=e.dim))
    grid = np.take(_EDGES, index)
    for which, predicate in enumerate([e.contains, e.dual_contains]):
        inside = np.array([[m[which][i] == "1" for m, i in zip(masks, row)] for row in index])
        expected = inside.all(axis=1)
        np.testing.assert_array_equal(predicate(grid), expected)
        for point, want in zip(grid, expected):
            got = predicate(point)
            assert np.shape(got) == () and bool(got) == want, (predicate.__name__, point)


# ------------------------------------------------------------- property sweeps


@pytest.mark.parametrize("e", registered(), ids=lambda e: e.name)
def test_round_trip_1000_points(e):
    rng = np.random.default_rng(7162)
    x = e.sample_interior(rng, 1000)
    back = e.grad_conjugate(e.grad(x))
    err = np.linalg.norm(back - x, axis=-1)
    bound = RT_TOL * (1.0 + np.linalg.norm(x, axis=-1))
    assert np.all(err <= bound)


@pytest.mark.parametrize("e", registered(), ids=lambda e: e.name)
def test_hessian_spd_and_sqrt_consistency(e):
    rng = np.random.default_rng(7)
    x = e.sample_interior(rng, 200)
    h = e.hessian(x)
    assert np.all(np.linalg.eigvalsh(h) > 0.0)
    s = e.hessian_sqrt(x)
    resid = np.linalg.norm(s @ s - h, axis=(-2, -1))
    assert np.all(resid <= 1e-10 * np.linalg.norm(h, axis=(-2, -1)))


@pytest.mark.parametrize("e", registered(), ids=lambda e: e.name)
def test_a1_certificate_sampled(e):
    rng = np.random.default_rng(11)
    x1 = e.sample_interior(rng, 10_000)
    x2 = e.sample_interior(rng, 10_000)
    num = math.sqrt(2.0) * np.linalg.norm(
        e.hessian_sqrt_diag(x1) - e.hessian_sqrt_diag(x2), axis=-1
    )
    den = np.linalg.norm(e.grad(x1) - e.grad(x2), axis=-1)
    keep = den > 1e-12
    ratio = num[keep] / den[keep]
    assert np.all(ratio <= e.kappa_declared + 1e-9)


@pytest.mark.parametrize("e", registered() + [ent.boltzmann_shannon(2)], ids=lambda e: e.name)
def test_grad_matches_finite_differences(e):
    rng = np.random.default_rng(23)
    x = e.interior_point() * (1.0 + 0.3 * rng.random(e.dim))
    g = e.grad(x)
    for i in range(e.dim):
        step = 1e-6 * max(1.0, abs(x[i]))
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        fd = (e.value(hi) - e.value(lo)) / (2.0 * step)
        assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("e", registered(), ids=lambda e: e.name)
def test_hessian_matches_grad_finite_differences(e):
    rng = np.random.default_rng(29)
    x = e.interior_point() * (1.0 + 0.3 * rng.random(e.dim))
    h = e.hessian(x)
    for i in range(e.dim):
        step = 1e-6 * max(1.0, abs(x[i]))
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        fd = (e.grad(hi) - e.grad(lo)) / (2.0 * step)
        np.testing.assert_allclose(fd, h[:, i], rtol=1e-5, atol=1e-8)


def test_boltzmann_shannon_ratio_grows_with_proposal_range():
    ratios = []
    for lo in (1e-2, 1e-4, 1e-8):
        e = ent.boltzmann_shannon(1, proposal_range=(lo, 1e2))
        rng = np.random.default_rng(3)
        x1 = e.sample_interior(rng, 4000)
        x2 = e.sample_interior(rng, 4000)
        num = math.sqrt(2.0) * np.abs(
            e.hessian_sqrt_diag(x1) - e.hessian_sqrt_diag(x2)
        ).ravel()
        den = np.abs(e.grad(x1) - e.grad(x2)).ravel()
        keep = den > 1e-12
        ratios.append(float(np.max(num[keep] / den[keep])))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 10.0


def test_mixed_newton_round_trip_far_from_start():
    mix = ent.mixed([0.5, 0.9])
    x = np.array([4e2, 2e-3])
    y = mix.grad(x)
    back = mix.grad_conjugate(y)
    np.testing.assert_allclose(back, x, rtol=1e-11)


# ------------------------------------------------------------------ scaling


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_scaled_entropy_consistency(alpha):
    base = ent.burg(2)
    s = base.scaled(alpha)
    x = np.array([0.7, 2.5])
    np.testing.assert_allclose(s.grad(x), alpha * base.grad(x), rtol=1e-15)
    np.testing.assert_allclose(s.grad_conjugate(s.grad(x)), x, rtol=1e-12)
    np.testing.assert_allclose(
        s.hessian_sqrt_diag(x) ** 2, s.hessian_diag(x), rtol=1e-14
    )
    assert s.kappa_declared == pytest.approx(base.kappa_declared / math.sqrt(alpha))


# ------------------------------------------------------------------- parsing


def test_parse_entropy_names():
    assert ent.parse_entropy("euclidean", dim=4).dim == 4
    assert ent.parse_entropy("burg", dim=2).name == "burg"
    assert ent.parse_entropy("logit").dim == 1
    mix = ent.parse_entropy("mixed:a=0.3,0.7")
    assert mix.dim == 2
    np.testing.assert_allclose(mix.weights, [0.3, 0.7])
    with pytest.raises(InvalidParameters):
        ent.parse_entropy("hellinger")
