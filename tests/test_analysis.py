"""Bound-calculator tests: closed forms, estimators, Baillon-Haddad checks."""

import math

import numpy as np
import pytest

from hrlmc import analysis as ana, entropy as ent, target as tgt
from hrlmc.errors import EpsOutOfRange, InadmissibleRegime, InvalidParameters, StepOutOfWindow


def make_report(entropy_name="euclidean", target_name="gaussian", *, kappa, m, M,
                delta, R, n_pairs=0):
    kt = ana.kappa_tilde(kappa, m, M, delta)
    return ana.AssumptionReport(
        entropy=entropy_name,
        target=target_name,
        n_pairs=n_pairs,
        proposal="synthetic",
        kappa_declared=kappa,
        kappa_sampled=kappa,
        m_declared=m,
        m_sampled=m,
        M_declared=M,
        M_sampled=M,
        delta_declared=delta,
        delta_sampled=delta,
        r_method="declared",
        r_value=R,
        r_error=0.0,
        r_table2=None,
        kappa=kappa,
        m=m,
        M=M,
        delta=delta,
        kappa_tilde=kt,
        admissible=kt < math.sqrt(2.0 * m),
        k1=M + kappa,
    )


# ------------------------------------------------------------- closed forms


def test_kappa_tilde_reduces_to_kappa_when_delta_zero():
    assert ana.kappa_tilde(1.3, 2.0, 5.0, 0.0) == pytest.approx(1.3, abs=0)


def test_kappa_tilde_formula():
    kappa, m, M, delta = 0.5, 1.0, 3.0, 0.2
    expect = math.sqrt(0.25 + 0.2 * (12.0 + 0.2) / (2.0 * 4.0))
    assert ana.kappa_tilde(kappa, m, M, delta) == pytest.approx(expect, rel=1e-15)


def test_bound_report_euclidean_example():
    rep = make_report(kappa=0.0, m=1.0, M=1.0, delta=0.0, R=1.0)
    bound = ana.bound_report(rep, h=0.1, p=1)
    assert bound.rho == pytest.approx(0.9, rel=1e-15)
    assert bound.beta1 == 0.0
    beta2_expect = 7.0 * math.sqrt(2.0) / 6.0
    assert bound.beta2 == pytest.approx(beta2_expect, rel=1e-15)
    floor_expect = 0.1**1.5 * beta2_expect / 0.1
    assert bound.floor == pytest.approx(floor_expect, rel=1e-13)
    assert floor_expect == pytest.approx(0.52175, rel=1e-4)
    assert bound.r0 == 0.0


def test_bound_report_gamma_example():
    kappa = math.sqrt(2.0)
    rep = make_report("burg", "gamma", kappa=kappa, m=4.0, M=4.0, delta=0.0, R=1.0 / 12.0)
    bound = ana.bound_report(rep, h=0.05, p=1)
    assert bound.rho == pytest.approx(math.sqrt(0.74), rel=1e-14)
    assert bound.rho == pytest.approx(0.86023, rel=1e-5)
    r0_expect = 2.0 * kappa * math.sqrt(1.0 / 12.0) / 6.0
    assert bound.r0 == pytest.approx(r0_expect, rel=1e-14)
    assert bound.r0 == pytest.approx(0.13608, rel=1e-4)
    assert bound.step_window == pytest.approx(0.375, rel=1e-14)


def test_bound_curve_monotone_and_converges_to_floor():
    rep = make_report("burg", "gamma", kappa=math.sqrt(2.0), m=4.0, M=4.0, delta=0.0,
                      R=1.0 / 12.0)
    bound = ana.bound_report(rep, h=0.05, p=1, w0=4.75)
    ks = np.arange(0, 400)
    curve = bound.bound_at(ks)
    assert np.all(np.diff(curve) <= 0.0)
    assert curve[-1] == pytest.approx(bound.floor, rel=1e-8)


def test_bound_report_gate_errors():
    rep = make_report(kappa=0.0, m=1.0, M=1.0, delta=0.0, R=1.0)
    with pytest.raises(StepOutOfWindow):
        ana.bound_report(rep, h=2.5, p=1)
    bad = make_report(kappa=2.0, m=1.0, M=1.0, delta=0.0, R=1.0)  # kt^2 = 4 > 2m
    assert not bad.admissible
    with pytest.raises(InadmissibleRegime):
        ana.bound_report(bad, h=0.1, p=1)


def test_rho_continuous_and_below_one_inside_window():
    rep = make_report("burg", "gamma", kappa=math.sqrt(2.0), m=4.0, M=4.0, delta=0.0,
                      R=1.0 / 12.0)
    window = ana.admissible_step_window(rep.m, rep.M, rep.kappa_tilde)
    hs = np.linspace(window * 1e-4, window * (1.0 - 1e-9), 400)
    rhos = np.array([ana.contraction_factor(h, rep.m, rep.M, rep.kappa_tilde) for h in hs])
    assert np.all(rhos < 1.0)
    assert np.all(np.abs(np.diff(rhos)) < 5e-3)
    assert ana.contraction_factor(window, rep.m, rep.M, rep.kappa_tilde) == pytest.approx(
        1.0, rel=1e-12
    )


@pytest.mark.parametrize("p", [0, -3])
def test_dimension_below_one_is_invalid(p):
    rep = make_report(kappa=0.0, m=1.0, M=1.0, delta=0.0, R=1.0)
    with pytest.raises(InvalidParameters, match=f"dimension p must be at least 1, got {p}"):
        ana.bound_report(rep, h=0.1, p=p)
    with pytest.raises(InvalidParameters, match=f"dimension p must be at least 1, got {p}"):
        ana.iteration_complexity(rep, p=p, eps=0.1)


# -------------------------------------------------------- iteration complexity


def test_iteration_complexity_classical_example():
    rep = make_report(kappa=0.0, m=1.0, M=1.0, delta=0.0, R=1.0)
    out = ana.iteration_complexity(rep, p=1, eps=0.1)
    assert math.ceil(out.variants["classical"]) == 231
    assert out.variants["classical"] == pytest.approx(100.0 * math.log(10.0), rel=1e-12)
    # kappa-zero specialization is the general formula evaluated at kappa = 0
    assert out.variants["kappa_zero"] == pytest.approx(out.value, rel=1e-15)
    assert out.k_eps == math.ceil(out.value)


def test_iteration_complexity_eps_scaling():
    rep = make_report(kappa=0.0, m=1.0, M=1.0, delta=0.0, R=1.0)
    k1 = ana.iteration_complexity(rep, p=1, eps=0.1).value
    k2 = ana.iteration_complexity(rep, p=1, eps=0.05).value
    assert k2 / k1 > 4.0


def test_iteration_complexity_eps_window():
    rep = make_report(kappa=0.0, m=1.0, M=1.0, delta=0.0, R=1.0)
    with pytest.raises(EpsOutOfRange) as err:
        ana.iteration_complexity(rep, p=1, eps=100.0)
    assert err.value.window > 0.0


def test_iteration_complexity_with_bias_terms():
    rep = make_report("burg", "gamma", kappa=math.sqrt(2.0), m=4.0, M=4.0, delta=0.0,
                      R=1.0 / 12.0)
    out = ana.iteration_complexity(rep, p=1, eps=1e-3)
    expect = (
        1.0 * 4.0 * (1.0 / 12.0) * (2.0 + math.sqrt(2.0)) ** 2 / 6.0**3
        * math.log(1e3) / 1e-6
    )
    assert out.value == pytest.approx(expect, rel=1e-12)
    assert "classical" not in out.variants


# ------------------------------------------------------- constant estimation


def test_estimate_constants_gaussian():
    e = ent.euclidean(2)
    t = tgt.gaussian_target(np.diag([1.0, 2.0]))
    rep = ana.estimate_constants(e, t, n_pairs=20_000, seed=0)
    assert rep.kappa_sampled == 0.0
    assert 1.0 <= rep.m_sampled <= 1.02
    assert 1.98 <= rep.M_sampled <= 2.0
    assert rep.delta_sampled <= 1e-12
    assert rep.admissible
    assert rep.k1 == pytest.approx(2.0)
    assert rep.warnings == []
    assert rep.kappa_tilde == 0.0


def test_estimate_constants_gamma_exact_ratios():
    e = ent.burg(1)
    t = tgt.gamma_target([5.0], [1.0])
    rep = ana.estimate_constants(e, t, n_pairs=5_000, seed=1)
    assert rep.m_sampled == pytest.approx(4.0, rel=1e-12)
    assert rep.M_sampled == pytest.approx(4.0, rel=1e-12)
    assert rep.kappa_sampled == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert rep.r_value == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert rep.kappa_tilde == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert rep.admissible  # sqrt(2) < sqrt(8)


def test_estimate_constants_boltzmann_shannon_blows_up():
    e = ent.boltzmann_shannon(1)
    t = tgt.gamma_target([5.0], [1.0])
    rep = ana.estimate_constants(e, t, n_pairs=10_000, seed=2)
    assert rep.kappa_sampled > 10.0
    assert not rep.admissible
    assert rep.kappa_tilde == math.inf


def test_report_round_trip_and_invariants():
    e = ent.burg(1)
    t = tgt.gamma_target([5.0], [1.0])
    rep = ana.estimate_constants(e, t, n_pairs=2_000, seed=3)
    assert rep.m_sampled <= rep.M_sampled
    recomputed = ana.kappa_tilde(rep.kappa, rep.m, rep.M, rep.delta)
    assert abs(recomputed - rep.kappa_tilde) <= 1e-12
    clone = ana.AssumptionReport.from_dict(rep.to_dict())
    assert clone == rep


def test_report_from_dict_names_missing_and_unknown_keys():
    rep = ana.estimate_constants(ent.burg(1), tgt.gamma_target([5.0], [1.0]), n_pairs=50)
    saved = rep.to_dict()
    del saved["kappa"], saved["warnings"]  # warnings has a default
    with pytest.raises(InvalidParameters, match=r"^report has missing keys \['kappa'\]$"):
        ana.AssumptionReport.from_dict(saved)
    with pytest.raises(InvalidParameters, match=r"^report has unknown keys \['colour'\]$"):
        ana.AssumptionReport.from_dict({**rep.to_dict(), "colour": "blue"})
    with pytest.raises(InvalidParameters, match="must be a JSON object"):
        ana.AssumptionReport.from_dict([])


@pytest.mark.parametrize("n_pairs", [0, -1])
def test_estimate_constants_needs_a_pair(n_pairs):
    with pytest.raises(InvalidParameters, match="at least one pair"):
        ana.estimate_constants(ent.burg(1), tgt.gamma_target([5.0], [1.0]), n_pairs=n_pairs)


def test_sampled_constants_never_contradict_declared():
    for e, t in [
        (ent.euclidean(2), tgt.gaussian_target(np.diag([1.0, 2.0]))),
        (ent.burg(1), tgt.gamma_target([5.0], [1.0])),
        (ent.logit_barrier(1), tgt.beta_target(4.0, 4.0)),
    ]:
        rep = ana.estimate_constants(e, t, n_pairs=10_000, seed=5)
        assert rep.kappa_sampled <= e.kappa_declared * 1.01 + 1e-12
        assert rep.m_sampled >= t.m * 0.99 - 1e-12
        assert rep.M_sampled <= t.M * 1.01 + 1e-12
        assert rep.delta_sampled <= t.delta + 1e-9
        assert rep.warnings == []


# ------------------------------------------------------------ Baillon-Haddad


def test_baillon_haddad_gaussian_coefficients_and_pass():
    e = ent.euclidean(2)
    t = tgt.gaussian_target(np.diag([1.0, 2.0]))
    res = ana.check_baillon_haddad(e, t, n_pairs=10_000, seed=7)
    assert res.a_coeff == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert res.b_coeff == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert res.passed
    assert res.min_slack >= -1e-9
    assert len(res.witness) == 2


def test_baillon_haddad_delta_zero_reduction():
    e = ent.burg(1)
    t = tgt.gamma_target([5.0], [1.0])
    res = ana.check_baillon_haddad(e, t, n_pairs=5_000, seed=8)
    assert res.b_coeff == pytest.approx(t.m * t.M / (t.m + t.M), rel=1e-15)
    assert res.passed


def test_baillon_haddad_m_zero_gives_cocoercivity():
    # f depending on one coordinate only: m = 0, M = 1 against Euclidean.
    e = ent.euclidean(2)
    flat = tgt.Target(
        name="half-flat", dim=2, paired_entropy="euclidean",
        potential=lambda x: 0.5 * x[..., 1] ** 2,
        grad=lambda x: np.stack([np.zeros_like(x[..., 0]), x[..., 1]], axis=-1),
        hessian=lambda x: np.broadcast_to(np.diag([0.0, 1.0]), x.shape + (2,)).copy(),
        m=0.0, M=1.0, delta=0.0,
    )
    res = ana.check_baillon_haddad(e, flat, n_pairs=5_000, seed=9)
    assert res.a_coeff == pytest.approx(1.0, rel=1e-15)
    assert res.b_coeff == 0.0
    assert res.passed


def test_baillon_haddad_failure_is_result_not_error():
    # Deliberately wrong constants must flag failure with a witness.
    e = ent.euclidean(2)
    t = tgt.gaussian_target(np.diag([1.0, 2.0]))
    res = ana.check_baillon_haddad(e, t, n_pairs=2_000, seed=10, m=1.9, M=2.0)
    assert not res.passed
    assert res.min_slack < -1e-9


# ----------------------------------------------------------------- scaling


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_report_scaling_invariance(alpha):
    kappa, m, M, delta, R, h, p = math.sqrt(2.0), 4.0, 4.0, 0.0, 1.0 / 12.0, 0.05, 1
    base = ana.bound_report(make_report(kappa=kappa, m=m, M=M, delta=delta, R=R), h, p)
    scaled_rep = make_report(
        kappa=kappa / math.sqrt(alpha), m=m / alpha, M=M / alpha,
        delta=delta / alpha, R=alpha * R,
    )
    scaled = ana.bound_report(scaled_rep, alpha * h, p)
    assert abs(scaled.rho - base.rho) <= 1e-12
    assert scaled.floor == pytest.approx(alpha * base.floor, rel=1e-10)
    assert scaled.r0 == pytest.approx(alpha * base.r0, rel=1e-10)


def test_boltzmann_shannon_estimate_warns_about_a1():
    rep = ana.estimate_constants(ent.boltzmann_shannon(1), tgt.gamma_target([5.0], [1.0]),
                                 n_pairs=4_000, seed=12)
    assert any("no finite" in w for w in rep.warnings)
