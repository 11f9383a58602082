"""Chain-stepping tests: closed-form steps, determinism, gates, rejections."""

import hashlib
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from hrlmc import analysis, entropy as ent, sampler as smp, target as tgt
from hrlmc.errors import (
    DomainViolation,
    DualDomainViolation,
    InadmissibleStepSize,
    InvalidParameters,
    NumericalBreakdown,
    Unavailable,
)


def gamma_pair():
    return ent.burg(1), tgt.gamma_target([5.0], [1.0])


def gauss_pair(p=1, diag=None):
    diag = [1.0] * p if diag is None else diag
    return ent.euclidean(len(diag)), tgt.gaussian_target(np.diag(diag))


# ------------------------------------------------------------ single steps


def _step(e, t, x, h, xi):
    """One proposal from x with fixed noise xi: (accepted, y', x')."""
    x = np.array([x], dtype=float)
    y = smp._propose(e.grad(x), t.grad(x), e.hessian_sqrt_diag(x), h, math.sqrt(2.0 * h),
                     np.array([xi], dtype=float))
    ok, x_new = smp._try_invert(e, y)
    return bool(ok[0]), y[0], x_new[0]


def test_step_euclidean_reduces_to_gradient_descent():
    e, t = gauss_pair()
    ok, _, x = _step(e, t, [1.0], 0.1, [0.0])
    assert ok
    assert x[0] == pytest.approx(0.9, abs=0)


def test_step_burg_gamma_drift_only():
    e, t = gamma_pair()
    ok, y, x = _step(e, t, [1.0], 0.1, [0.0])
    # y = -1, grad f(1) = -3, y' = -0.7, x' = 10/7
    assert ok
    assert y[0] == pytest.approx(-0.7, rel=1e-15)
    assert x[0] == pytest.approx(10.0 / 7.0, rel=1e-15)


def test_step_burg_gamma_with_unit_noise():
    e, t = gamma_pair()
    ok, y, x = _step(e, t, [1.0], 0.1, [1.0])
    y_expect = -1.0 - 0.1 * (-3.0) + math.sqrt(0.2) * 1.0
    assert ok
    assert y[0] == pytest.approx(y_expect, rel=1e-15)
    assert x[0] == pytest.approx(-1.0 / y_expect, rel=1e-15)
    assert x[0] == pytest.approx(3.9558, rel=1e-4)


def test_step_dual_exit_is_rejected():
    # y = -0.1, grad f(10) = 0.6: y' = -0.28 + sqrt(0.6) > 0 leaves the dual domain.
    e, t = gamma_pair()
    ok, y, _ = _step(e, t, [10.0], 0.3, [10.0])
    assert y[0] > 0.0
    assert not ok


def test_step_keeps_dual_cache_consistent():
    e, t = gamma_pair()
    ss = np.random.SeedSequence(3)
    rng = np.random.Generator(np.random.Philox(ss))
    retry = smp._RetryStreams(smp._philox_keys(3, [0]), 1)
    x = np.array([[2.0]])
    y = e.grad(x)
    for _ in range(20):
        gf, sq = t.grad(x), e.hessian_sqrt_diag(x)
        y_new = smp._propose(y, gf, sq, 0.05, math.sqrt(2.0 * 0.05), rng.standard_normal((1, 1)))
        ok, x = smp._try_invert(e, y_new)
        if not ok.all():
            smp._retry_rows(e, y, gf, sq, 0.05, ok, y_new, x, retry, np.zeros(1, dtype=np.int64))
        y = y_new
        assert np.linalg.norm(y - e.grad(x)) <= 1e-10 * (1.0 + np.linalg.norm(y))


@pytest.mark.parametrize("e", [*ent.register_table1_entropies(dim=2), ent.boltzmann_shannon(2),
                               ent.burg(2).scaled(2.5), ent.logit_barrier(2).scaled(0.5),
                               ent.burg(2).scaled(1e-300), ent.burg(2).scaled(1e300),
                               ent.mixed([0.0, 0.7]).scaled(1e10)],
                         ids=lambda e: e.name)
def test_try_invert_masks_rows_as_if_inverted_alone(e):
    # Interior rows, dual-domain exits (a positive Burg coordinate), guard-band
    # and overflowing images (huge |y|), and non-finite rows, in one batch.
    # _try_invert accepts on the primal check alone, so this also fails if a
    # dual point outside the image inverts to a point inside the domain.
    rng = np.random.default_rng(0)
    interior = e.grad(e.sample_interior(rng, 6))
    edge = [5e-324, 1e-300, 1e-12, 0.0, 0.5, 40.0, 800.0, 3e5, 1e13, 1e300, math.inf, math.nan]
    edge += [-v for v in edge]
    rows = [interior]
    for v in edge:
        rows.append([[v, interior[0, 1]], [interior[1, 0], v], [v, v]])
    y = np.concatenate(rows)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok, x = smp._try_invert(e, y)

    assert ok.shape == (len(y),) and x.shape == y.shape
    expected = np.zeros(len(y), dtype=bool)
    for i in range(len(y)):
        try:
            with np.errstate(all="ignore"):
                alone = e.grad_conjugate(y[i:i + 1])
        except (DomainViolation, DualDomainViolation):
            continue
        expected[i] = True
        np.testing.assert_array_equal(x[i], alone[0])
    np.testing.assert_array_equal(ok, expected)
    assert ok[:len(interior)].all()
    assert not ok[~np.isfinite(y).all(axis=1)].any()
    assert not ok[len(interior):].all()


@pytest.mark.parametrize("e", [*ent.register_table1_entropies(dim=2), ent.boltzmann_shannon(2),
                               ent.burg(2).scaled(2.5), ent.logit_barrier(2).scaled(0.5),
                               ent.burg(2).scaled(1e-300), ent.burg(2).scaled(1e300),
                               ent.mixed([0.0, 0.7]).scaled(1e10)],
                         ids=lambda e: e.name)
def test_contains_unchecked_matches_contains(e):
    # The kernel's acceptance test skips contains's validation.  On the rows
    # of test_try_invert_masks_rows_as_if_inverted_alone, read as points and
    # inverted, and on points at the guard bands, the two agree.
    rng = np.random.default_rng(0)
    interior = e.grad(e.sample_interior(rng, 6))
    edge = [5e-324, 1e-300, 1e-12, 0.0, 0.5, 40.0, 800.0, 3e5, 1e13, 1e300, math.inf, math.nan]
    edge += [-v for v in edge]
    y = np.concatenate([interior] + [[[v, interior[0, 1]], [interior[1, 0], v], [v, v]]
                                     for v in edge])
    with np.errstate(all="ignore"):
        x = e._grad_conjugate_unchecked(y)
    guard = ent.BOUNDARY_GUARD
    bands = np.array([guard, np.nextafter(guard, 0), 1 - guard, np.nextafter(1 - guard, 2)])
    for points in (y, x, x[0], np.stack([bands, np.full(4, 0.5)], axis=1)):
        np.testing.assert_array_equal(e._contains_unchecked(points), e.contains(points))
    with pytest.raises(DomainViolation):
        e.contains(np.ones((3, e.dim + 1)))


# --------------------------------------------------------------- schedules


def test_schedule_validation():
    with pytest.raises(InvalidParameters):
        smp.constant_schedule(0.0)
    with pytest.raises(InvalidParameters):
        smp.harmonic_schedule(-1.0)
    with pytest.raises(InvalidParameters):
        smp.StepSchedule("geometric", h=0.1)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_schedule_rejects_non_finite(value):
    with pytest.raises(InvalidParameters):
        smp.constant_schedule(value)
    with pytest.raises(InvalidParameters):
        smp.harmonic_schedule(value)


def test_harmonic_schedule_decreasing():
    sch = smp.harmonic_schedule(0.3)
    hs = [sch.h_at(k) for k in range(1, 50)]
    assert hs[0] == 0.3
    assert all(a > b > 0.0 for a, b in zip(hs, hs[1:]))


def test_parse_schedule():
    assert smp.parse_schedule("constant:h=0.05").h == 0.05
    assert smp.parse_schedule("harmonic:a=0.3").a == 0.3
    with pytest.raises(InvalidParameters):
        smp.parse_schedule("linear:c=1")
    # Schedules carry no name: each kind round-trips to an equal schedule.
    assert smp.parse_schedule("constant:h=0.05") == smp.constant_schedule(0.05)
    assert smp.parse_schedule("harmonic:a=0.3") == smp.harmonic_schedule(0.3)
    assert smp.parse_schedule("Constant: h = 0.05") == smp.constant_schedule(0.05)
    for spec in ("constant:h=", "constant:h=0.05,0.1", "constant:a=0.05", "harmonic:a=0.3;h=1"):
        with pytest.raises(InvalidParameters):
            smp.parse_schedule(spec)


# -------------------------------------------------------------------- gate


def test_gate_window_values():
    # Euclidean/Gaussian A=I: m = M = 1, kappa_tilde = 0 -> window 2.
    assert analysis.admissible_step_window(1.0, 1.0, 0.0) == pytest.approx(2.0)
    # Gamma(5,1)/Burg: m = M = 4, kappa_tilde^2 = 2 -> (8-2)/16.
    assert analysis.admissible_step_window(4.0, 4.0, math.sqrt(2.0)) == pytest.approx(0.375)


def test_gate_rejects_large_step():
    e, t = gamma_pair()
    with pytest.raises(InadmissibleStepSize) as err:
        smp.run_parallel_chains(e, t, smp.constant_schedule(0.38), [1.0], 5, 0, 1)
    assert err.value.window == pytest.approx(0.375)


def test_gate_override():
    e, t = gamma_pair()
    traj = smp.run_parallel_chains(
        e, t, smp.constant_schedule(0.38), [1.0], 5, 0, 1, override_gate=True
    )[0]
    assert traj.points.shape == (6, 1)


def test_gate_skipped_for_harmonic():
    e, t = gamma_pair()
    traj = smp.run_parallel_chains(e, t, smp.harmonic_schedule(0.3), [1.0], 5, 0, 1)[0]
    assert len(traj.points) == 6


def test_largest_admissible_a():
    e, t = gamma_pair()
    a = smp.largest_admissible_a(e, t)
    assert a < 0.375
    assert a == pytest.approx(0.375, rel=1e-12)
    smp.run_parallel_chains(e, t, smp.constant_schedule(a), [1.0], 2, 0, 1)


def _declared_target(paired, m, M=4.0):
    return tgt.Target(name="declared", dim=1, paired_entropy=paired,
                      potential=lambda x: np.sum(x, axis=-1), grad=np.ones_like,
                      hessian=lambda x: np.zeros(x.shape + (1,)), m=m, M=M, delta=0.0)


@pytest.mark.parametrize("e, t", [
    (ent.burg(1), _declared_target("burg", 1.0)),  # kappa_tilde^2 = 2 >= 2m
    (ent.burg(1), _declared_target("burg", 0.5)),  # kappa_tilde^2 = 2 > 2m
    (ent.boltzmann_shannon(1), _declared_target("boltzmann-shannon", 4.0)),  # kappa = inf
    (ent.euclidean(1), _declared_target("euclidean", 0.0, M=1.0)),  # m = 0
    (ent.euclidean(1), _declared_target("euclidean", 0.0, M=0.0)),  # m + M = 0
], ids=["burg-m1", "burg-m0.5", "boltzmann-shannon", "euclidean-m0", "euclidean-m0-M0"])
def test_gate_window_zero_rejects_every_step(e, t):
    with pytest.raises(InadmissibleStepSize) as err:
        smp.run_parallel_chains(e, t, smp.constant_schedule(1e-6), [0.5], 1, 0, 1)
    assert (err.value.h, err.value.window) == (1e-6, 0.0)
    with pytest.raises(InadmissibleStepSize) as err:
        smp.largest_admissible_a(e, t)
    assert (err.value.h, err.value.window) == (0.0, 0.0)


def test_dimension_mismatch_is_invalid():
    with pytest.raises(InvalidParameters, match=r"^dimension mismatch: entropy 'burg' is 2-d, "
                       r"target 'gamma:a=5;b=1' is 1-d$"):
        smp.run_parallel_chains(ent.burg(2), tgt.gamma_target([5.0], [1.0]),
                                smp.constant_schedule(0.05), [1.0], 1, 0, 2)


def test_largest_admissible_a_needs_constants():
    e = ent.burg(1)
    bare = tgt.Target(
        name="bare", dim=1, paired_entropy="burg",
        potential=lambda x: np.sum(x, axis=-1),
        grad=lambda x: np.ones_like(x),
        hessian=lambda x: np.zeros(x.shape + (1,)),
    )
    with pytest.raises(Unavailable):
        smp.largest_admissible_a(e, bare)


# ------------------------------------------------------------ trajectories


def test_zero_steps_returns_initial_point():
    e, t = gamma_pair()
    traj = smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [1.0], 0, 0, 1)[0]
    np.testing.assert_array_equal(traj.points, [[1.0]])
    np.testing.assert_array_equal(traj.steps, [0])


def test_recording_burn_in_and_thinning():
    e, t = gamma_pair()
    traj = smp.run_parallel_chains(
        e, t, smp.constant_schedule(0.05), [1.0], 20, 1, 1, record_steps=range(10, 21, 5)
    )[0]
    np.testing.assert_array_equal(traj.steps, [10, 15, 20])
    full = smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [1.0], 20, 1, 1)[0]
    np.testing.assert_array_equal(traj.points, full.points[[10, 15, 20]])


def test_record_steps_give_the_every_step_trace_at_those_steps():
    # A harmonic schedule changes h every step, each chain starts elsewhere,
    # and steps 0 and n_steps are both recorded.
    e, t = ent.burg(2), tgt.gamma_target([5.0, 5.0], [1.0, 1.0])
    sch = smp.harmonic_schedule(0.3)
    x0 = np.array([[0.2, 1.0], [1.0, 5.0], [3.0, 0.5]])
    full = smp.run_parallel_chains(e, t, sch, x0, 30, 4, 3)
    ks = [0, 1, 7, 8, 29, 30]
    part = smp.run_parallel_chains(e, t, sch, x0, 30, 4, 3, record_steps=np.array(ks))
    assert full.rejections.sum() > 0 and np.unique(full.step_sizes).size == 31
    np.testing.assert_array_equal(part.points, full.points[:, ks])
    np.testing.assert_array_equal(part.steps, ks)
    assert part.steps.dtype == np.int64 and not part.steps.flags.writeable
    np.testing.assert_array_equal(part.step_sizes, full.step_sizes[ks])
    np.testing.assert_array_equal(part.rejections, full.rejections)


@pytest.mark.parametrize("record_steps", [
    [3, 1], [1, 1], [-1, 2], [0, 31], [0.0, 2.0],
], ids=["unsorted", "repeated", "negative", "beyond-steps", "floats"])
def test_record_steps_are_refused_before_any_chain_runs(monkeypatch, record_steps):
    def run(*args):
        raise AssertionError("a chain ran before the refusal")

    monkeypatch.setattr(smp, "_run_rows", run)
    e, t = gamma_pair()
    with pytest.raises(InvalidParameters, match="record_steps"):
        smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [1.0], 30, 0, 2,
                                record_steps=record_steps)


@pytest.mark.parametrize("record_steps, refusal", [
    (range(0, 10**12 + 1, 10**5), "GiB"), (range(10**7, 0, -1), "sorted and distinct"),
    (None, "GiB"), (range(2**63), "GiB"),
], ids=["too-many-records", "descending", "every-step-past-2**63", "2**63-records"])
def test_a_range_is_refused_without_being_listed(monkeypatch, record_steps, refusal):
    # Listing any of these ranges would trace hundreds of MiB before the refusal;
    # 10**7 + 1 records of 4096 chains need 305 GiB, more than the 64 GiB set here.
    # len() of a range of 2**63 steps or more raises OverflowError, so the
    # guard must count them in integers.
    monkeypatch.setattr("hrlmc.errors._physical_memory", lambda: 64 << 30)
    e, t = gamma_pair()
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameters, match=refusal):
            smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [1.0], 10**20, 0, 4096,
                                    record_steps=record_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_negative_step_count_is_refused():
    e, t = gamma_pair()
    with pytest.raises(InvalidParameters, match="n_steps must be at least 0"):
        smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [1.0], -1, 0, 1)


@pytest.mark.parametrize("short, listed", [
    (range(5, 6), [5]), (range(5, 4, -1), [5]), (range(7, 3), []),
], ids=["one-step", "one-step-descending", "empty"])
def test_a_short_range_records_as_its_list(short, listed):
    e, t = ent.burg(2), tgt.gamma_target([5.0, 5.0], [1.0, 1.0])
    a, b = (smp.run_parallel_chains(e, t, smp.constant_schedule(0.2), [1.0, 1.0], 10, 2, 3,
                                    record_steps=ks) for ks in (short, listed))
    for field in ("points", "steps", "step_sizes", "rejections"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y), field


def test_chains_share_one_record_buffer():
    # The memory guard counts 8 * chains * records * p bytes; per-chain
    # copies of the points or the schedule would multiply that.
    e, t = gamma_pair()
    trace = smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [1.0], 20, 0, 3,
                                    record_steps=range(5, 21, 5))
    assert isinstance(trace, smp.Trace)
    assert trace.points.shape == (3, 4, 1) and trace.points.flags.c_contiguous
    assert trace.rejections.shape == (3,) and trace.rejections.dtype == np.int64
    assert not trace.steps.flags.writeable and not trace.step_sizes.flags.writeable
    np.testing.assert_array_equal(trace.steps, [5, 10, 15, 20])
    assert len(trace) == 3
    chains = list(trace)  # iteration stops after the last chain
    assert len(chains) == 3
    for c, tr in enumerate(chains):
        assert tr.points.base is trace.points
        np.testing.assert_array_equal(tr.points, trace.points[c])
        assert tr.steps is trace.steps and tr.step_sizes is trace.step_sizes
        assert tr.rejections == int(trace.rejections[c])
    with pytest.raises(IndexError):
        trace[3]


def test_all_recorded_points_interior():
    e, t = gamma_pair()
    traj = smp.run_parallel_chains(
        e, t, smp.constant_schedule(0.3), [0.2], 400, 9, 1, override_gate=True
    )[0]
    assert np.all(e.contains(traj.points))


def test_run_chain_deterministic():
    e, t = gamma_pair()
    a = smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [1.0], 100, 5, 1)
    b = smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [1.0], 100, 5, 1)
    np.testing.assert_array_equal(a.points, b.points)


def _chain_alone(e, t, sch, x0, n_steps, seed, c, override_gate=False):
    """Chain c of ``run_parallel_chains`` at this seed, run as the only row."""
    return smp._run_rows(e, t, sch, x0, n_steps, smp._philox_keys(seed, [c]),
                         smp._philox_keys(seed, [c], (0,)), range(n_steps + 1),
                         override_gate)[0]


@pytest.mark.parametrize(
    "spec, p, h, n_chains, max_retries",
    [
        ("burg", 1, 0.05, 3, smp.MAX_RETRIES),
        ("mixed:a=0,0.5", 2, 0.05, 3, smp.MAX_RETRIES),
        ("mixed:a=0.3", 1, 0.05, 3, smp.MAX_RETRIES),
        # over a thousand rejections: exercises the batched retry rounds
        ("burg", 8, 0.2, 16, smp.MAX_RETRIES),
        # one try per step size: hundreds of row-steps reach the halvings
        ("burg", 8, 0.2, 16, 1),
    ],
    ids=["burg", "mixed-burg-coord", "mixed", "burg-p8-retries", "burg-p8-halvings"],
)
def test_parallel_matches_serial_per_derived_seed(monkeypatch, spec, p, h, n_chains,
                                                  max_retries):
    monkeypatch.setattr(smp, "MAX_RETRIES", max_retries)
    e = ent.parse_entropy(spec, dim=p)
    t = tgt.gamma_target([5.0] * p, [1.0] * p)
    sch = smp.constant_schedule(h)
    trajs = smp.run_parallel_chains(e, t, sch, [1.0] * p, 60, base_seed=42, n_chains=n_chains)
    for c, traj in enumerate(trajs):
        solo = _chain_alone(e, t, sch, [1.0] * p, 60, 42, c)
        np.testing.assert_array_equal(traj.points, solo.points)
        assert traj.rejections == solo.rejections


@pytest.mark.parametrize("suffix", [(), (0,)], ids=["main", "retry"])
@pytest.mark.parametrize("seed", [0, 2**32 + 1, 2**127 + 12345],
                         ids=["zero-root", "two-words-root", "128-bit-root"])
def test_philox_keys_equal_seed_sequence(seed, suffix):
    # The vectorised hash must track numpy's SeedSequence bit for bit; a
    # change there would otherwise shift every stream silently.
    children = np.arange(300)
    expected = np.array([
        np.random.SeedSequence(seed, spawn_key=(int(c),) + suffix).generate_state(2, np.uint64)
        for c in children
    ])
    np.testing.assert_array_equal(smp._philox_keys(seed, children, suffix), expected)


_BAD_CHAIN_SEEDS = pytest.mark.parametrize("seed, n_chains", [
    (None, 1), (1.5, 1), (-1, 1), (np.random.SeedSequence(0), 1), ([0, 1], 1), (0, 2**32),
], ids=["none", "float", "negative", "seed-sequence", "list", "2**32-chains"])


@_BAD_CHAIN_SEEDS
def test_seed_must_be_an_integer_and_chains_fit_one_word(monkeypatch, seed, n_chains):
    # Refused before any key or noise array exists, so 2**32 chains allocate nothing.
    def allocate(*args):
        raise AssertionError("allocated before the refusal")

    monkeypatch.setattr(smp, "_philox_keys", allocate)
    monkeypatch.setattr(smp, "_run_rows", allocate)
    e, t = gamma_pair()
    with pytest.raises(InvalidParameters):
        smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [1.0], 5, seed, n_chains)


def test_noise_byte_budget_does_not_change_trajectories(monkeypatch):
    e, t = ent.burg(2), tgt.gamma_target([5.0, 5.0], [1.0, 1.0])
    sch = smp.constant_schedule(0.2)

    def run():
        return smp.run_parallel_chains(e, t, sch, [1.0, 1.0], 50, base_seed=4, n_chains=8)

    default = run()
    monkeypatch.setattr(smp, "_NOISE_BYTES", 8 * 8 * 2 * 3)  # three steps per chunk
    chunked = run()
    np.testing.assert_array_equal(chunked.points, default.points)
    np.testing.assert_array_equal(chunked.rejections, default.rejections)


@pytest.mark.parametrize("h, x0, rejecting", [(0.05, 0.2, True), (0.01, 5.0, False)],
                         ids=["with-rejections", "without"])
def test_retry_stream_built_only_for_rejecting_rows(monkeypatch, h, x0, rejecting):
    streams = []

    class Recording(smp._RetryStreams):
        def __init__(self, *args):
            super().__init__(*args)
            streams.append(self)

    monkeypatch.setattr(smp, "_RetryStreams", Recording)
    e, t = gamma_pair()
    trace = smp.run_parallel_chains(e, t, smp.constant_schedule(h), [x0], 40,
                                    base_seed=0, n_chains=512)
    assert (trace.rejections.sum() > 0) == rejecting
    # A row's retry stream is initialised from its key at its first draw.
    (retry,) = streams
    started = [state is not None for state in retry._streams._saved]
    assert started == (trace.rejections > 0).tolist()


@pytest.mark.parametrize("chunk", [1, 1000])
def test_retry_buffer_length_does_not_change_trajectories(monkeypatch, chunk):
    default = _burg_p8_halvings(monkeypatch)
    monkeypatch.setattr(smp, "_RETRY_CHUNK", chunk)
    buffered = _burg_p8_halvings(monkeypatch)
    np.testing.assert_array_equal(buffered.points, default.points)
    np.testing.assert_array_equal(buffered.rejections, default.rejections)


def test_distinct_chains_get_distinct_noise():
    e, t = gauss_pair()
    trace = smp.run_parallel_chains(
        e, t, smp.constant_schedule(0.1), [0.0], 1, base_seed=0, n_chains=4
    )
    assert len(set(trace.points[:, 1, 0].tolist())) == 4


def test_rejections_counted_and_reported():
    e, t = gamma_pair()
    trace = smp.run_parallel_chains(
        e,
        t,
        smp.constant_schedule(0.3),
        [0.3],
        300,
        base_seed=8,
        n_chains=8,
        override_gate=True,
    )
    assert trace.rejections.sum() > 0


def _burg_p8_halvings(monkeypatch):
    """Burg p=8 at h=0.2 with one try per step size, so rows reach the halvings."""
    monkeypatch.setattr(smp, "MAX_RETRIES", 1)
    e, t = ent.burg(8), tgt.gamma_target([5.0] * 8, [1.0] * 8)
    return smp.run_parallel_chains(
        e, t, smp.constant_schedule(0.2), [1.0] * 8, 60, base_seed=42, n_chains=16
    )


def test_rejections_count_every_failed_proposal(monkeypatch):
    failed = []
    try_invert = smp._try_invert

    def counting(entropy, y_new):
        ok, x_new = try_invert(entropy, y_new)
        failed.append(int((~ok).sum()))
        return ok, x_new

    monkeypatch.setattr(smp, "_try_invert", counting)
    trace = _burg_p8_halvings(monkeypatch)
    assert sum(failed) > 0
    assert trace.rejections.sum() == sum(failed)


def test_halving_path_points_are_pinned(monkeypatch):
    # The halved tries must keep drawing the same proposals from each row's
    # retry stream, so the recorded points are pinned bit for bit.
    points = np.stack([tr.points for tr in _burg_p8_halvings(monkeypatch)])
    assert hashlib.sha256(points.tobytes()).hexdigest() == (
        "23d0521aa319d162c387fa56cc239876dff53b7fb0a0789422cfdcdbb6be7d3b"
    )


@pytest.mark.parametrize("entropy, target, schedule, x0, seed, n_rejections, digest", [
    ("logit", "beta:a1=4,a2=4", "harmonic:a=0.3", 0.5, 11, 0,
     "3f1233aff35eb2b012b2c60a91f6d925b494a925e542232f19330254d83715e7"),
    ("mixed:a=0.3,0.7", "gamma:a=5,5;b=1,1", "constant:h=0.05", 1.0, 12, 0,
     "781d039646092bf42ecfa7d55bb49a09d260c5c481e4569c8096382afe4f32e5"),
    ("mixed:a=0,0.5", "gamma:a=5,5;b=1,1", "constant:h=0.3", 1.0, 13, 1508,
     "0381454a91faf4910abe923752d95f9a3ab5d18472da48f88eb423cedf7eee10"),
    ("scaled:2.5*burg", "gamma:a=5,b=1", "constant:h=0.2", 1.0, 14, 63,
     "0b360de8abf836abd9be81080c4d52b641bad268d7739eeb0cd52973142c6019"),
    ("euclidean", "gaussian:A=diag(1,2)", "constant:h=0.1", 0.0, 15, 0,
     "d35906646f64ad0fbb81f7a4cfb0dd58a2e9b6f1ca64ee385a345a24fa6d92f1"),
], ids=["logit-harmonic", "mixed-no-burg", "mixed-retries", "scaled-burg", "euclidean"])
def test_trajectory_is_pinned(entropy, target, schedule, x0, seed, n_rejections, digest):
    # sha256 of the points and then the rejection counts of 32 chains x 200
    # steps (300 for the harmonic schedule, whose h changes every step).
    t = tgt.parse_target(target)
    e = ent.parse_entropy(entropy, dim=t.dim)
    n_steps = 300 if schedule.startswith("harmonic") else 200
    trace = smp.run_parallel_chains(e, t, smp.parse_schedule(schedule), [x0], n_steps, seed, 32,
                                    override_gate=True)
    assert trace.rejections.sum() == n_rejections
    assert hashlib.sha256(trace.points.tobytes() + trace.rejections.tobytes()).hexdigest() == digest


def test_divergent_run_warns_outside_the_inversion():
    # Only the inversion runs under errstate: a Euclidean chain pushed past
    # float range overflows in forming its proposals, and that still warns.
    # The run's points and rejections are pinned from before the kernel's
    # first proposal moved inline.
    e, t = ent.euclidean(1), tgt.parse_target("gaussian:A=1")
    with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
        trace = smp.run_parallel_chains(e, t, smp.constant_schedule(2.5), [1e300], 60, 0, 4,
                                        override_gate=True)
    assert trace.rejections.tolist() == [204] * 4
    assert hashlib.sha256(trace.points.tobytes() + trace.rejections.tobytes()).hexdigest() == (
        "f691c3fdba032987d77c523a2b6217beffa26cd97e8ac911e8197d2999bd8d5a"
    )


def test_exhausted_retries_raise_numerical_breakdown(monkeypatch):
    monkeypatch.setattr(smp, "MAX_RETRIES", 0)
    monkeypatch.setattr(smp, "MAX_HALVINGS", 0)
    e, t = ent.burg(8), tgt.gamma_target([5.0] * 8, [1.0] * 8)
    with pytest.raises(NumericalBreakdown):
        smp.run_parallel_chains(
            e, t, smp.constant_schedule(0.2), [1.0] * 8, 20, base_seed=7, n_chains=64,
            override_gate=True,
        )


def test_x0_must_be_interior():
    e, t = gamma_pair()
    with pytest.raises(InvalidParameters):
        smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), [-1.0], 5, 0, 1)


def test_x0_of_one_coordinate_or_one_point_is_broadcast():
    e, t = ent.burg(2), tgt.gamma_target([5.0, 5.0], [1.0, 1.0])
    sch = smp.constant_schedule(0.05)
    runs = [smp.run_parallel_chains(e, t, sch, x0, 10, 4, 3)
            for x0 in ([0.7], [0.7, 0.7], np.full((3, 2), 0.7))]
    for run in runs[1:]:
        np.testing.assert_array_equal(run.points, runs[0].points)


@pytest.mark.parametrize("x0", [0.7, [0.7, 0.7, 0.7], np.full((2, 2), 0.7),
                                np.full((3, 1), 0.7), np.full((1, 3, 2), 0.7)],
                         ids=["scalar", "three-of-two", "two-rows", "one-column", "3-d"])
def test_x0_of_other_shape_is_invalid(x0):
    e, t = ent.burg(2), tgt.gamma_target([5.0, 5.0], [1.0, 1.0])
    with pytest.raises(InvalidParameters, match=r"x0 must have shape \(1,\), \(2,\) or \(3, 2\)"):
        smp.run_parallel_chains(e, t, smp.constant_schedule(0.05), x0, 5, 0, 3)


# ------------------------------------------------- classical LMC reduction


def test_euclidean_reduction_bitwise_small():
    p, n_steps, n_chains = 2, 200, 16
    e, t = gauss_pair(diag=[1.0, 2.0])
    A = np.diag([1.0, 2.0])
    h = 0.1
    sch = smp.constant_schedule(h)
    x0 = np.array([1.0, -0.5])
    trace = smp.run_parallel_chains(e, t, sch, x0, n_steps, base_seed=3, n_chains=n_chains)

    children = np.random.SeedSequence(3).spawn(n_chains)
    coef = np.sqrt(2.0 * h)
    for c in range(n_chains):
        xi = np.random.Generator(np.random.Philox(children[c])).standard_normal((n_steps, p))
        x = x0.copy()
        for k in range(n_steps):
            gf = x @ A
            x = x - h * gf + coef * xi[k]
            np.testing.assert_array_equal(x, trace.points[c, k + 1])


# ---------------------------------------------------------------- scaling


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_scaling_invariance_of_trajectories(alpha):
    e, t = gamma_pair()
    sch = smp.constant_schedule(0.05)
    sch_a = smp.constant_schedule(alpha * 0.05)
    base = smp.run_parallel_chains(e, t, sch, [1.0], 200, 21, 1)
    scaled = smp.run_parallel_chains(e.scaled(alpha), t, sch_a, [1.0], 200, 21, 1,
                                     override_gate=True)
    rel = np.abs(scaled.points - base.points) / (1.0 + np.abs(base.points))
    assert float(rel.max()) <= 1e-12


# ---------------------------------------------------------- reference flow


def test_reference_chain_zero_span():
    e, t = gamma_pair()
    y0, ys = smp.reference_chain(e, t, s=0.0, substeps=100, seed=0, n_replicas=50)
    np.testing.assert_array_equal(y0, ys)


def test_reference_chain_shapes_and_determinism():
    e, t = gamma_pair()
    y0, ys = smp.reference_chain(e, t, s=0.01, substeps=100, seed=4, n_replicas=64)
    assert y0.shape == ys.shape == (64, 1)
    y0b, ysb = smp.reference_chain(e, t, s=0.01, substeps=100, seed=4, n_replicas=64)
    np.testing.assert_array_equal(ys, ysb)
    assert np.all(y0 < 0.0) and np.all(ys < 0.0)


def test_reference_chain_needs_sampler_and_substeps():
    e, t = gamma_pair()
    with pytest.raises(InvalidParameters):
        smp.reference_chain(e, t, s=0.01, substeps=10, seed=0)
    bare = tgt.Target(
        name="bare", dim=1, paired_entropy="burg",
        potential=lambda x: np.sum(x, axis=-1),
        grad=lambda x: np.ones_like(x),
        hessian=lambda x: np.zeros(x.shape + (1,)),
    )
    with pytest.raises(Unavailable):
        smp.reference_chain(e, bare, s=0.01, substeps=100, seed=0)


@_BAD_CHAIN_SEEDS
@pytest.mark.parametrize("s", [0.0, 0.01])
def test_reference_chain_refuses_seeds_at_every_span_before_drawing(monkeypatch, s, seed,
                                                                     n_chains):
    # s = 0 returns the exact start without running a chain; it refuses the
    # same seeds as s > 0, and neither draws that start first.
    def draw(*args):
        raise AssertionError("drew the exact start before the refusal")

    monkeypatch.setattr(smp, "exact_sample", draw)
    e, t = gamma_pair()
    with pytest.raises(InvalidParameters):
        smp.reference_chain(e, t, s, substeps=100, seed=seed, n_replicas=n_chains)


def test_reference_chain_oversized_replicas_fail_fast():
    # The exact start of 2**32 - 1 replicas in 64 coordinates (2 TiB) is
    # refused by exact_sample's allocation guard before anything is drawn.
    t = tgt.gamma_target([5.0] * 64, [1.0] * 64)

    def draw(rng, n):
        raise AssertionError("drew before the refusal")

    t._sampler = draw
    start = time.perf_counter()
    with pytest.raises(InvalidParameters, match="GiB"):
        smp.reference_chain(ent.burg(64), t, 0.01, substeps=100, seed=0, n_replicas=2**32 - 1)
    assert time.perf_counter() - start < 1.0


def test_reference_chain_replicas_own_their_streams():
    # h = 0.2 rejects often enough that the retry streams are exercised too.
    e, t = gamma_pair()
    s, substeps, seed, n = 20.0, 100, 6, 64
    y0, ys = smp.reference_chain(e, t, s, substeps, seed, n_replicas=n)
    y0_16, ys_16 = smp.reference_chain(e, t, s, substeps, seed, n_replicas=16)
    np.testing.assert_array_equal(y0[:16], y0_16)
    np.testing.assert_array_equal(ys[:16], ys_16)

    x0 = t.sample_exact(np.random.default_rng(seed), n)
    np.testing.assert_array_equal(y0, e.grad(x0))
    rejections = 0
    for c in range(n):
        solo = _chain_alone(e, t, smp.constant_schedule(s / substeps), x0[c], substeps,
                            seed, c, override_gate=True)
        np.testing.assert_array_equal(ys[c], e.grad(solo.points[-1]))
        rejections += solo.rejections
    assert rejections > 0


def test_reference_chain_increment_bound_euclidean():
    # Gaussian A = I: M = R = 1 and the increment bound is explicit.
    e, t = gauss_pair(p=1)
    s = 0.01
    y0, ys = smp.reference_chain(e, t, s, substeps=150, seed=13, n_replicas=4000)
    inc = np.sum((ys - y0) ** 2, axis=1)
    mc = float(inc.mean())
    se = float(inc.std(ddof=1) / math.sqrt(inc.size))
    bound = (s * 1.0 + math.sqrt(2.0 * s)) ** 2
    assert mc <= bound + 3.0 * se


def test_step_consumes_exactly_dim_draws():
    e, t = gauss_pair(diag=[1.0, 2.0])
    traj = smp.run_parallel_chains(e, t, smp.constant_schedule(0.1), [0.4, -0.2], 2, 99, 1)[0]
    # replay: an identical stream must yield the p draws of each step, so
    # the second point only matches if the first step took exactly p
    twin = np.random.Generator(np.random.Philox(np.random.SeedSequence(99).spawn(1)[0]))
    A = np.diag([1.0, 2.0])
    x = np.array([[0.4, -0.2]])
    for k in (1, 2):
        xi = twin.standard_normal((1, 2))
        x = x - 0.1 * (x @ A) + np.sqrt(2.0 * 0.1) * (np.ones_like(x) * xi)
        np.testing.assert_array_equal(traj.points[k], x[0])


def test_gate_only_applies_to_the_paired_entropy():
    # Gamma constants are declared relative to Burg; a mixed-entropy run
    # cannot be gated by them and must proceed.
    mix = ent.mixed([0.3])
    t = tgt.gamma_target([5.0], [1.0])
    traj = smp.run_parallel_chains(mix, t, smp.constant_schedule(0.5), [1.0], 30, 2, 1)[0]
    assert np.all(mix.contains(traj.points))
    assert np.all(np.isfinite(traj.points))
