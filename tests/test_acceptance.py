"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The theoretical results being exercised are upper bounds, so the sampling
criteria are one-sided bound-satisfaction checks (Monte Carlo slack is only
ever granted to the estimate, never to the bound); the remaining criteria
are exact or tolerance-pinned property checks.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from hrlmc import analysis as ana, cli, entropy as ent, metrics as mtr, sampler as smp, target as tgt
from hrlmc.experiments import fit_decay_slope, moment_plateau_gaussian


def _report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_euclidean_reduction_bitwise():
    """1e6 HRLMC steps with the energy entropy match classical LMC bit-for-bit."""
    p, n_chains, n_steps, h = 2, 1000, 1000, 0.1
    A = np.diag([1.0, 2.0])
    e = ent.euclidean(p)
    t = tgt.gaussian_target(A)
    x0 = np.array([1.0, -0.5])

    t0 = time.monotonic()
    trajs = smp.run_parallel_chains(
        e, t, smp.constant_schedule(h), x0, n_steps, base_seed=3, n_chains=n_chains
    )
    hrlmc_points = np.stack([tr.points for tr in trajs])  # (C, n+1, p)

    # classical LMC oracle: x - h*grad_f(x) + sqrt(2h)*xi with the same noise
    children = np.random.SeedSequence(3).spawn(n_chains)
    noise = np.stack(
        [np.random.Generator(np.random.Philox(ss)).standard_normal((n_steps, p))
         for ss in children]
    )
    coef = np.sqrt(2.0 * h)
    X = np.broadcast_to(x0, (n_chains, p)).copy()
    identical = True
    for k in range(n_steps):
        gf = X @ A
        X = X - h * gf + coef * noise[:, k, :]
        if not np.array_equal(X, hrlmc_points[:, k + 1, :]):
            identical = False
            break
    runtime = time.monotonic() - t0
    _report(
        1,
        "Euclidean reduction is bit-for-bit classical LMC over 1e6 steps",
        identical and runtime < 10.0,
        f"{n_chains * n_steps} steps, {runtime:.2f}s",
    )


def test_criterion_02_legendre_round_trip():
    """grad_conjugate(grad(x)) returns x to 1e-10 relative on all 4 entropies."""
    worst = 0.0
    for e in ent.register_table1_entropies(dim=3):
        rng = np.random.default_rng(404)
        x = e.sample_interior(rng, 1000)
        err = np.linalg.norm(e.grad_conjugate(e.grad(x)) - x, axis=-1)
        rel = err / (1e-10 * (1.0 + np.linalg.norm(x, axis=-1)))
        worst = max(worst, float(rel.max()))
    _report(2, "Legendre round trip within 1e-10*(1+|x|) on 4 entropies x 1000 points",
            worst <= 1.0, f"worst ratio to tolerance {worst:.3g}")


def test_criterion_03_a1_certificates():
    """Burg/logit ratios never exceed sqrt(2)+1e-9; Shannon fixture blows past 10."""
    limit = math.sqrt(2.0) + 1e-9
    max_ratios = {}
    for e in (ent.burg(2), ent.logit_barrier(2)):
        rng = np.random.default_rng(515)
        x1 = e.sample_interior(rng, 10_000)
        x2 = e.sample_interior(rng, 10_000)
        num = math.sqrt(2.0) * np.linalg.norm(
            e.hessian_sqrt_diag(x1) - e.hessian_sqrt_diag(x2), axis=-1
        )
        den = np.linalg.norm(e.grad(x1) - e.grad(x2), axis=-1)
        keep = den > 1e-12
        max_ratios[e.name] = float(np.max(num[keep] / den[keep]))

    bs = ent.boltzmann_shannon(1)
    rng = np.random.default_rng(525)
    x1 = bs.sample_interior(rng, 10_000)
    x2 = bs.sample_interior(rng, 10_000)
    num = math.sqrt(2.0) * np.abs(bs.hessian_sqrt_diag(x1) - bs.hessian_sqrt_diag(x2))
    den = np.abs(bs.grad(x1) - bs.grad(x2))
    keep = den[:, 0] > 1e-12
    bs_ratio = float(np.max(num[keep] / den[keep]))

    ok = all(v <= limit for v in max_ratios.values()) and bs_ratio > 10.0
    _report(3, "A1 ratio <= sqrt(2)+1e-9 for Burg/logit; Shannon fixture exceeds 10",
            ok, f"burg {max_ratios['burg']:.12f}, logit {max_ratios['logit']:.12f}, "
                f"shannon {bs_ratio:.1f}")


def test_criterion_04_constant_recovery():
    """Sampled (m, M, delta) recover Table values within 1% at 1e5 pairs."""
    cases = [
        (ent.euclidean(2), tgt.gaussian_target(np.diag([1.0, 2.0])), 1.0, 2.0),
        (ent.burg(1), tgt.gamma_target([5.0], [1.0]), 4.0, 4.0),
        (ent.logit_barrier(1), tgt.beta_target(4.0, 4.0), 3.0, 3.0),
    ]
    details = []
    ok = True
    for e, t, m_true, M_true in cases:
        rep = ana.estimate_constants(e, t, n_pairs=100_000, seed=202)
        good = (
            abs(rep.m_sampled - m_true) <= 0.01 * m_true
            and abs(rep.M_sampled - M_true) <= 0.01 * M_true
            and rep.delta_sampled <= 1e-9
        )
        ok = ok and good
        details.append(f"{t.name}: ({rep.m_sampled:.4f},{rep.M_sampled:.4f},{rep.delta_sampled:.1e})")
    _report(4, "sampled (m, M, delta) within 1% of declared at 1e5 pairs", ok,
            "; ".join(details))


def test_criterion_05_baillon_haddad_suite():
    """Extended Baillon-Haddad inequality holds on all three registered pairs."""
    worst = math.inf
    for e, t in [
        (ent.euclidean(2), tgt.gaussian_target(np.diag([1.0, 2.0]))),
        (ent.burg(1), tgt.gamma_target([5.0], [1.0])),
        (ent.logit_barrier(1), tgt.beta_target(4.0, 4.0)),
    ]:
        res = ana.check_baillon_haddad(e, t, n_pairs=10_000, seed=606)
        worst = min(worst, res.min_slack)
    _report(5, "Baillon-Haddad min slack >= -1e-9 on 3 pairs x 1e4 pairs",
            worst >= -1e-9, f"worst slack {worst:.3g}")


def test_criterion_06_assignment_exactness():
    """Assignment matching equals factorial brute force on 200 small instances."""
    rng = np.random.default_rng(707)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        a = rng.standard_normal((n, p))
        b = rng.standard_normal((n, p))
        cost = cdist(a, b, metric="sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        lsa_total = cost[rows, cols].sum()
        brute_total = min(
            cost[np.arange(n), list(perm)].sum()
            for perm in itertools.permutations(range(n))
        )
        if lsa_total != brute_total:
            failures += 1
    _report(6, "assignment equals permutation brute force exactly (200 instances)",
            failures == 0, f"{failures} mismatches")


def test_criterion_07_bound_satisfaction(gamma_bound_run):
    """Gamma(5,1)/Burg at h=0.05: median W2phi <= rho^k W0 + floor everywhere."""
    result, runtime = gamma_bound_run
    ok = abs(result.rho - 0.86023) <= 1e-4 * 0.86023
    violations = []
    for i, k in enumerate(result.checkpoints):
        allowed = result.bound_values[i] + 3.0 * result.iqrs[i]
        if not result.medians[i] <= allowed:
            violations.append(int(k))
    ok = ok and not violations and runtime < 120.0
    _report(7, "one-sided bound holds at every checkpoint (4096 chains, k <= 200)",
            ok, f"rho={result.rho:.5f}, floor={result.floor:.5f}, "
                f"runtime {runtime:.1f}s, violations {violations}")


def test_criterion_08_geometric_decay(gamma_bound_run):
    """Transient decay rate is at least log(rho) + 0.05 over k in [0, 100]."""
    result, _ = gamma_bound_run
    tail = result.checkpoints >= 120
    plateau = float(np.median(result.medians[tail]))
    min_gap = max(0.02, 3.0 * float(np.median(result.iqrs)))
    slope = fit_decay_slope(result.checkpoints, result.medians, plateau,
                            k_max=100, min_gap=min_gap)
    limit = math.log(result.rho) + 0.05
    _report(8, "log(median - plateau) decays with slope <= log(rho) + 0.05",
            slope <= limit, f"slope {slope:.4f} vs limit {limit:.4f}")


def test_criterion_09_gaussian_plateau_scaling():
    """Euclidean/Gaussian: plateau shrinks >= 2.5x when h drops 10x (h^1/2 scaling)."""
    gauss = tgt.gaussian_target(np.diag([1.0, 2.0]))
    rep = ana.estimate_constants(ent.euclidean(2), gauss, n_pairs=2000, seed=1)
    beta1 = ana.bound_report(rep, h=0.1, p=2).beta1  # no bias term for kappa = 0
    hi = moment_plateau_gaussian(gauss, 0.1, n_chains=2048, n_steps=4800,
                                 burn_in=1600, seed=3, record_every=4)
    lo = moment_plateau_gaussian(gauss, 0.01, n_chains=2048, n_steps=4800,
                                 burn_in=1600, seed=4, record_every=4)
    ok = beta1 == 0.0 and lo <= hi / 2.5 and 0.02 <= hi <= 0.08
    _report(9, "Gaussian plateau shrinks by >= 2.5x when h goes 0.1 -> 0.01",
            ok, f"beta1={beta1}, plateau(0.1)={hi:.5f}, plateau(0.01)={lo:.5f}, "
                f"ratio={hi / lo:.2f}")


def test_criterion_10_dimension_sweep():
    """Product Gamma plateau grows like p^(1/2): monotone, slope in [0.25, 0.75]."""
    from hrlmc.experiments import ExperimentConfig, run_dimension_sweep

    cfg = ExperimentConfig(
        entropy="burg", target="gamma:a=5;b=1", schedule="constant:h=0.2",
        steps=160, chains=512, x0=(1.0,), checkpoints=(60, 85, 110, 135, 160),
        base_seed=7, reference_seeds=20, plateau_window=5,
    )
    res = run_dimension_sweep(cfg, dims=[1, 2, 4, 8])
    monotone = bool(np.all(np.diff(res.plateaus) > 0.0))
    ok = monotone and 0.25 <= res.slope <= 0.75
    _report(10, "plateau monotone in p with log-log slope in [0.25, 0.75]",
            ok, "plateaus " + ", ".join(f"{v:.4f}" for v in res.plateaus)
                + f"; slope {res.slope:.3f}")


def test_criterion_11_moment_sanity():
    """Gamma(5,1) at h=0.01: mean within 5%, variance within 15% of truth."""
    e = ent.burg(1)
    t = tgt.gamma_target([5.0], [1.0])
    trace = smp.run_parallel_chains(
        e, t, smp.constant_schedule(0.01), [5.0], 3500, base_seed=17,
        n_chains=100, record_steps=range(2500, 3501),
    )
    pooled = trace.points.ravel()
    mean, var = float(pooled.mean()), float(pooled.var(ddof=1))
    ok = pooled.size >= 100_000 and abs(mean - 5.0) <= 0.25 and abs(var - 5.0) <= 0.75
    _report(11, "1e5 post-burn-in samples: mean within 5%, variance within 15%",
            ok, f"n={pooled.size}, mean={mean:.4f}, var={var:.4f}")


def test_criterion_12_stationary_increment_bound():
    """E|grad_phi(L0) - grad_phi(L_s)|^2 <= (s sqrt(MpR) + sqrt(2spR))^2 + 3 SE."""
    e = ent.burg(1)
    t = tgt.gamma_target([5.0], [1.0])
    R = tgt.r_constant(t, method="quadrature").value
    M, p = 4.0, 1
    ok = True
    details = []
    for i, s in enumerate((0.005, 0.01, 0.02)):
        y0, ys = smp.reference_chain(e, t, s, substeps=200, seed=31 + i,
                                     n_replicas=10_000)
        inc = np.sum((ys - y0) ** 2, axis=1)
        mc = float(inc.mean())
        se = float(inc.std(ddof=1) / math.sqrt(inc.size))
        bound = (s * math.sqrt(M * p * R) + math.sqrt(2.0 * s * p * R)) ** 2
        ok = ok and mc <= bound + 3.0 * se
        details.append(f"s={s}: {mc:.5f} <= {bound:.5f}+{3 * se:.5f}")
    _report(12, "stationary increment bound holds at s in {0.005, 0.01, 0.02}",
            ok, "; ".join(details))


def test_criterion_13_scaling_invariance():
    """(phi, h) and (alpha*phi, alpha*h) coincide; rho invariant, floor scales."""
    e = ent.burg(1)
    t = tgt.gamma_target([5.0], [1.0])
    base_traj = smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [1.0], 200,
                                        base_seed=21, n_chains=1)[0]
    kappa, m, M, delta, R = math.sqrt(2.0), 4.0, 4.0, 0.0, 1.0 / 12.0
    base_rep = _synthetic_report(kappa, m, M, delta, R)
    base_bound = ana.bound_report(base_rep, 0.05, 1)

    ok = True
    details = []
    for alpha in (0.5, 2.0, 10.0):
        traj = smp.run_parallel_chains(
            e.scaled(alpha), t, smp.constant_schedule(alpha * 0.05), [1.0], 200,
            base_seed=21, n_chains=1, override_gate=True,
        )[0]
        rel = float(np.max(np.abs(traj.points - base_traj.points)
                           / (1.0 + np.abs(base_traj.points))))
        rep = _synthetic_report(kappa / math.sqrt(alpha), m / alpha, M / alpha,
                                delta / alpha, alpha * R)
        bound = ana.bound_report(rep, alpha * 0.05, 1)
        rho_diff = abs(bound.rho - base_bound.rho)
        floor_rel = abs(bound.floor - alpha * base_bound.floor) / (alpha * base_bound.floor)
        ok = ok and rel <= 1e-12 and rho_diff <= 1e-12 and floor_rel <= 1e-10
        details.append(f"a={alpha:g}: traj {rel:.1e}, drho {rho_diff:.1e}, dfloor {floor_rel:.1e}")
    _report(13, "scaling invariance of trajectories, rho, and floors", ok,
            "; ".join(details))


def test_criterion_14_cli_determinism(tmp_path):
    """Re-running CLI experiments with the same config is byte-identical."""
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(
        "entropy = burg\ntarget = gamma:a=5;b=1\nschedule = constant:h=0.05\n"
        "steps = 40\nchains = 256\nx0 = 0.2\ncheckpoints = 0,20,40\n"
        "base_seed = 9\nreference_seeds = 8\n"
    )
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    trace_args = [
        "sample", "--entropy", "burg", "--target", "gamma:a=5,b=1", "--h", "0.05",
        "--steps", "30", "--chains", "4", "--seed", "12", "--x0", "0.3",
    ]
    traces = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        assert cli.main(trace_args + ["--out", str(out)]) == 0
        traces.append(out.read_bytes())
    ok = outs[0] == outs[1] and traces[0] == traces[1]
    _report(14, "CLI experiment and trace outputs are byte-identical on re-run", ok)


def _synthetic_report(kappa, m, M, delta, R):
    kt = ana.kappa_tilde(kappa, m, M, delta)
    return ana.AssumptionReport(
        entropy="synthetic", target="synthetic", n_pairs=0, proposal="synthetic",
        kappa_declared=kappa, kappa_sampled=kappa, m_declared=m, m_sampled=m,
        M_declared=M, M_sampled=M, delta_declared=delta, delta_sampled=delta,
        r_method="declared", r_value=R, r_error=0.0, r_table2=None,
        kappa=kappa, m=m, M=M, delta=delta, kappa_tilde=kt,
        admissible=kt < math.sqrt(2.0 * m), k1=M + kappa,
    )
