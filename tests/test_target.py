"""Target registry tests: declared constants, oracles, sampled certificates."""

import math

import numpy as np
import pytest

from hrlmc import entropy as ent, target as tgt
from hrlmc.errors import Divergent, DomainViolation, InvalidParameters, Unavailable

LD = np.longdouble


def pairs_for(target, n, seed):
    e = target.make_paired_entropy()
    rng = np.random.default_rng(seed)
    return e, e.sample_interior(rng, n), e.sample_interior(rng, n)


# ----------------------------------------------------------------- registry


def test_table2_constants():
    gauss, gamma, beta = tgt.register_table2_targets()
    assert (gauss.m, gauss.M, gauss.delta) == (1.0, 2.0, 0.0)
    assert (gamma.m, gamma.M, gamma.delta) == (4.0, 4.0, 0.0)
    assert (beta.m, beta.M, beta.delta) == (3.0, 3.0, 0.0)


def test_gamma_shape_guard():
    with pytest.raises(InvalidParameters):
        tgt.gamma_target([3.0], [1.0])
    with pytest.raises(InvalidParameters):
        tgt.gamma_target([5.0, 2.5], [1.0, 1.0])


def test_beta_shape_guard():
    with pytest.raises(InvalidParameters):
        tgt.beta_target(2.0, 4.0)


def test_gaussian_requires_spd():
    with pytest.raises(InvalidParameters):
        tgt.gaussian_target([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(InvalidParameters):
        tgt.gaussian_target(np.diag([1.0, -0.5]))


# ------------------------------------------------------------------ R constant


def test_r_gaussian_is_exactly_one():
    gauss = tgt.gaussian_target(np.diag([1.0, 2.0]))
    est = tgt.r_constant(gauss, method="declared")
    assert est.value == 1.0


def test_r_gamma_quadrature_matches_closed_form():
    gamma = tgt.gamma_target([5.0], [1.0])
    est = tgt.r_constant(gamma, method="quadrature")
    assert est.value == pytest.approx(1.0 / 12.0, rel=1e-8)
    assert gamma.r_declared == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert gamma.r_table2 == pytest.approx(2.0, rel=1e-12)


def test_r_beta_quadrature_and_table_value():
    beta = tgt.beta_target(4.0, 4.0)
    est = tgt.r_constant(beta, method="quadrature")
    assert est.value == pytest.approx(14.0, rel=1e-7)
    assert est.table2_value == pytest.approx(0.1, rel=1e-12)


def test_r_monte_carlo_agrees_with_quadrature():
    gamma = tgt.gamma_target([5.0], [1.0])
    est = tgt.r_constant(gamma, method="monte-carlo", n=200_000, seed=5)
    assert abs(est.value - 1.0 / 12.0) <= 5.0 * est.error


def test_r_monte_carlo_divergence_detected():
    # A shape below the moment threshold: E[1/X^2] is infinite for a <= 2.
    rng_family = {"a": 1.5}

    def potential(x):
        return np.sum((1.0 - rng_family["a"]) * np.log(x) + x, axis=-1)

    def grad(x):
        return (1.0 - rng_family["a"]) / x + 1.0

    def hessian(x):
        return (rng_family["a"] - 1.0) / (x * x)[..., None, None]

    heavy = tgt.Target(
        name="gamma-heavy",
        dim=1,
        paired_entropy="burg",
        potential=potential,
        grad=grad,
        hessian=hessian,
        sampler=lambda rng, n: rng.gamma(shape=1.5, scale=1.0, size=(n, 1)),
    )
    with pytest.raises(Divergent):
        tgt.r_constant(heavy, method="monte-carlo", n=100_000, seed=2)


def test_r_requires_oracle():
    bare = tgt.Target(
        name="bare",
        dim=1,
        paired_entropy="burg",
        potential=lambda x: np.sum(x, axis=-1),
        grad=lambda x: np.ones_like(x),
        hessian=lambda x: np.zeros(x.shape + (1,)),
    )
    with pytest.raises(Unavailable):
        tgt.r_constant(bare, method="declared")
    with pytest.raises(Unavailable):
        tgt.r_constant(bare, method="monte-carlo")


def test_r_quadrature_1d_values_are_pinned():
    # Bitwise pins: a change of integration routine must not move the 1-d values.
    assert tgt.r_constant(tgt.gamma_target([5.0], [1.0]), "quadrature").value == 0.08333333333333426
    assert tgt.r_constant(tgt.beta_target(4.0, 4.0), "quadrature").value == 13.999999999999995


def test_r_quadrature_2d_agrees_with_monte_carlo():
    gamma = tgt.gamma_target([5.0, 5.0], [1.0, 1.0])
    quad = tgt.r_constant(gamma, method="quadrature")
    mc = tgt.r_constant(gamma, method="monte-carlo", n=200_000, seed=0)
    assert quad.value == pytest.approx(0.128906, abs=1e-6)
    assert abs(quad.value - mc.value) <= 3.0 * mc.error
    # The declared value sums the per-coordinate moments: an upper bound on E max.
    assert gamma.r_declared == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert quad.value < gamma.r_declared


# --------------------------------------------------------------- exact sampler


def test_exact_sample_gaussian_identity_mean():
    gauss = tgt.gaussian_target(np.eye(2))
    n = 100_000
    draws = tgt.exact_sample(gauss, n, seed=11)
    assert draws.shape == (n, 2)
    assert np.all(np.abs(draws.mean(axis=0)) <= 3.0 / math.sqrt(n))


def test_exact_sample_gamma_mean():
    gamma = tgt.gamma_target([5.0], [1.0])
    n = 100_000
    draws = tgt.exact_sample(gamma, n, seed=12)
    assert abs(draws.mean() - 5.0) <= 5.0 * math.sqrt(5.0) / math.sqrt(n)


@pytest.mark.parametrize("a, b", [
    ([5.0], [1.0]), ([4.5], [2.5]),
    ([5.0] * 3, [1.0] * 3), ([3.5, 5.0, 12.0], [0.5, 1.0, 3.0]), ([5.0] * 3, [1.0, 2.0, 0.25]),
], ids=["p1", "p1-rate", "p3-uniform", "p3-mixed", "p3-shared-shape"])
def test_exact_sample_gamma_matches_numpy_gamma(a, b):
    # The sampler draws standard_gamma and rescales; numpy's gamma is
    # scale * standard_gamma(shape), so the two agree bit for bit.
    gamma = tgt.gamma_target(a, b)
    for seed, n in [(0, 1), (7, 4096)]:
        got = gamma.sample_exact(np.random.default_rng(seed), n)
        expect = np.random.default_rng(seed).gamma(
            shape=np.asarray(a), scale=1.0 / np.asarray(b), size=(n, len(a)))
        assert got.tobytes() == expect.tobytes()


def test_exact_sample_beta_symmetric_mean():
    beta = tgt.beta_target(4.0, 4.0)
    n = 100_000
    draws = tgt.exact_sample(beta, n, seed=13)
    sd = math.sqrt(float(beta.moment_var[0]))
    assert abs(draws.mean() - 0.5) <= 5.0 * sd / math.sqrt(n)
    assert np.all((draws > 0.0) & (draws < 1.0))


def test_exact_sample_deterministic():
    gamma = tgt.gamma_target([5.0], [1.0])
    np.testing.assert_array_equal(
        tgt.exact_sample(gamma, 100, seed=3), tgt.exact_sample(gamma, 100, seed=3)
    )


# ------------------------------------------------------- sampled certificates


@pytest.mark.parametrize("target", tgt.register_table2_targets(), ids=lambda t: t.name)
def test_a3_a4_certificates(target):
    e, x1, x2 = pairs_for(target, 10_000, seed=31)
    dg = (e.grad(x1) - e.grad(x2)).astype(LD)
    df = (target.grad(x1) - target.grad(x2)).astype(LD)
    gg = np.sum(dg * dg, axis=-1)
    keep = gg > 1e-24
    inner = np.sum(df * dg, axis=-1)[keep]
    gg = gg[keep]
    ff = np.sum(df * df, axis=-1)[keep]
    assert np.all(inner >= LD(target.m) * gg - LD(1e-9))
    assert np.all(np.sqrt(ff) <= LD(target.M) * np.sqrt(gg) + LD(1e-9))


@pytest.mark.parametrize("target", tgt.register_table2_targets(), ids=lambda t: t.name)
def test_a5_commutator_certificate(target):
    e, x1, _ = pairs_for(target, 10_000, seed=37)
    hphi_inv = np.linalg.inv(np.apply_along_axis(np.diag, -1, e.hessian_diag(x1)))
    hf = target.hessian(x1)
    comm = hphi_inv @ hf - hf @ hphi_inv
    norms = np.linalg.norm(comm, ord=2, axis=(-2, -1))
    assert np.all(norms <= 1e-12)
    assert np.all(norms <= (target.delta or 0.0) + 1e-9)


@pytest.mark.parametrize("target", tgt.register_table2_targets(), ids=lambda t: t.name)
def test_relative_eigenvalue_interval(target):
    # Generalized eigenvalues of (D2f, D2phi) must land in [m, M].
    e, x1, _ = pairs_for(target, 2_000, seed=41)
    hphi = np.apply_along_axis(np.diag, -1, e.hessian_diag(x1))
    hf = target.hessian(x1)
    sqrt_inv = np.linalg.inv(np.apply_along_axis(np.diag, -1, e.hessian_sqrt_diag(x1)))
    pencil = sqrt_inv @ hf @ sqrt_inv
    eigs = np.linalg.eigvalsh(pencil)
    assert np.all(eigs >= target.m - 1e-9)
    assert np.all(eigs <= target.M + 1e-9)
    assert hphi.shape == hf.shape


@pytest.mark.parametrize("target", tgt.register_table2_targets(), ids=lambda t: t.name)
def test_grad_matches_finite_differences(target):
    e = target.make_paired_entropy()
    rng = np.random.default_rng(43)
    x = e.sample_interior(rng, 5)
    g = target.grad(x)
    for j in range(target.dim):
        step = 1e-6 * np.maximum(1.0, np.abs(x[:, j]))
        hi = x.copy()
        lo = x.copy()
        hi[:, j] += step
        lo[:, j] -= step
        fd = (target.potential(hi) - target.potential(lo)) / (2.0 * step)
        np.testing.assert_allclose(fd, g[:, j], rtol=1e-6, atol=1e-8)


def test_hessian_symmetry():
    for target in tgt.register_table2_targets():
        e = target.make_paired_entropy()
        rng = np.random.default_rng(47)
        x = e.sample_interior(rng, 50)
        h = target.hessian(x)
        np.testing.assert_allclose(h, np.swapaxes(h, -1, -2), atol=0)


# ------------------------------------------------------------------- parsing


def test_parse_target_round_trip():
    gauss = tgt.parse_target("gaussian:A=diag(1,2)")
    assert gauss.dim == 2 and gauss.M == 2.0
    gamma = tgt.parse_target("gamma:a=5,b=1")
    assert gamma.dim == 1 and gamma.m == 4.0
    gamma4 = tgt.parse_target("gamma:a=5,5,5,5;b=1,1,1,1")
    assert gamma4.dim == 4
    beta = tgt.parse_target("beta:a1=4,a2=4")
    assert beta.dim == 1 and beta.M == 3.0
    with pytest.raises(InvalidParameters):
        tgt.parse_target("cauchy:a=1")
    assert tgt.parse_target(gamma4.name).name == gamma4.name
    for target in tgt.register_table2_targets():
        assert tgt.parse_target(target.name).name == target.name
    assert tgt.parse_target("gaussian:A=1,2").name == gauss.name
    assert tgt.parse_target(" Gaussian: A = diag(1, 2) ").name == gauss.name
    assert tgt.parse_target("GAMMA:a=5;b=1").name == gamma.name
    # A name keeps every digit, so it rebuilds the object it names.
    for spec, name in (("gamma:a=5.1234567,b=1", "gamma:a=5.1234567;b=1"),
                       ("beta:a1=4.0000001,a2=4", "beta:a1=4.0000001,a2=4"),
                       ("gaussian:A=diag(1.0000001,2)", "gaussian:A=diag(1.0000001,2)")):
        assert tgt.parse_target(spec).name == name
        assert tgt.parse_target(name).name == name
    for spec in ("gaussian:A=diag()", "gamma:a=5;1", "beta:a1=4,4;a2=4", "gamma:b=1",
                 "gamma:a=5;b=1;a=6"):
        with pytest.raises(InvalidParameters):
            tgt.parse_target(spec)


def test_gaussian_target_rejects_empty_matrix():
    with pytest.raises(InvalidParameters, match="must not be empty"):
        tgt.gaussian_target(np.zeros((0, 0)))


@pytest.mark.parametrize("method", ["quadrature", "monte-carlo"])
def test_r_outside_entropy_domain_names_the_estimate(method):
    # Gamma(5, 1) puts mass above 1, outside the logit barrier's domain (0, 1).
    gamma = tgt.gamma_target([5.0], [1.0])
    with pytest.raises(DomainViolation) as err:
        tgt.r_constant(gamma, method=method, n=1000, entropy=ent.logit_barrier(1))
    assert str(err.value).startswith(
        "R of gamma:a=5;b=1 under logit failed: the target's law leaves the entropy's domain"
    )
