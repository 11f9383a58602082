"""Experiment-layer tests: config round trips, traces, sweeps, plateaus."""

import hashlib
import io
import itertools
import math
import mmap
import os
import signal
import sys

import numpy as np
import pytest

from hrlmc import experiments as exp, seeds, target as tgt
from hrlmc.entropy import parse_entropy
from hrlmc.errors import (InadmissibleRegime, InvalidParameters, MethodUnavailable,
                          NumericalBreakdown, SizeMismatch)
from hrlmc.metrics import ASSIGNMENT_MAX_POINTS


def small_gamma_config(**overrides):
    base = dict(
        entropy="burg",
        target="gamma:a=5;b=1",
        schedule="constant:h=0.05",
        steps=60,
        chains=256,
        x0=(0.2,),
        checkpoints=(0, 10, 20, 40, 60),
        base_seed=5,
        reference_seeds=10,
    )
    base.update(overrides)
    return exp.ExperimentConfig(**base)


# -------------------------------------------------------------------- config


def test_config_round_trip_is_lossless():
    cfg = small_gamma_config(x0=(0.2, 0.3), dims=(1, 2, 4), out="trace.csv")
    assert exp.ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_config_accepts_comments_and_rejects_unknown_keys():
    text = "# comment\nentropy = burg\ntarget = gamma:a=5;b=1\nschedule = constant:h=0.05\nsteps = 10\nchains = 8\n"
    cfg = exp.ExperimentConfig.from_text(text)
    assert cfg.steps == 10 and cfg.reference_seeds == 20
    with pytest.raises(InvalidParameters):
        exp.ExperimentConfig.from_text(text + "colour = blue\n")
    with pytest.raises(InvalidParameters):
        exp.ExperimentConfig.from_text("entropy burg\n")


def test_config_rejects_a_repeated_key():
    text = "entropy = burg\ntarget = gamma:a=5;b=1\nschedule = constant:h=0.05\nsteps = 10\n"
    with pytest.raises(InvalidParameters, match="config line 5: repeated key 'steps'"):
        exp.ExperimentConfig.from_text(text + "steps = 20\nchains = 8\n")


def test_config_without_x0_starts_at_the_interior_point():
    # The logit barrier's interior point is 0.5; 1.0 lies outside its domain.
    cfg = dict(entropy="logit", target="beta:a1=4,a2=4", schedule="constant:h=0.05", steps=10,
               chains=16, checkpoints=(0, 10), reference_seeds=2, assumption_pairs=50)
    res = exp.run_convergence_experiment(exp.ExperimentConfig(**cfg))
    assert res.to_csv() == exp.run_convergence_experiment(
        exp.ExperimentConfig(**cfg, x0=(0.5,))).to_csv()


# ---------------------------------------------------------------- experiment


@pytest.fixture(scope="module")
def gamma_result():
    return exp.run_convergence_experiment(small_gamma_config())


def test_experiment_rows_shape(gamma_result):
    res = gamma_result
    assert list(res.checkpoints) == [0, 10, 20, 40, 60]
    assert res.medians.shape == res.iqrs.shape == res.bound_values.shape == (5,)
    assert res.total_rejections >= 0


def test_bound_row_at_zero_is_w0_plus_floor(gamma_result):
    res = gamma_result
    assert res.bound_values[0] == pytest.approx(res.w0_hat + res.floor, rel=1e-12)


def test_bound_values_reproducible_from_report(gamma_result):
    # Every bound row must follow from the stored report and formulas alone.
    res = gamma_result
    expect = res.rho ** res.checkpoints.astype(float) * res.w0_hat + res.floor
    np.testing.assert_allclose(res.bound_values, expect, rtol=1e-12)


def test_experiment_distance_decreases_toward_plateau(gamma_result):
    res = gamma_result
    assert res.medians[0] > res.medians[1] > res.medians[2]
    assert res.medians[-1] < 0.2


def test_experiment_csv_deterministic():
    cfg = small_gamma_config()
    a = exp.run_convergence_experiment(cfg).to_csv()
    b = exp.run_convergence_experiment(cfg).to_csv()
    assert a == b
    assert a.splitlines()[0] == "checkpoint_k,w2phi_median,w2phi_iqr,bound_value,floor"


def test_convergence_distances_are_pinned():
    # 1024 Burg/Gamma(5,1) chains at h=0.05 from x0=0.2 reject 73 proposals,
    # so this covers the retry streams, the exact reference clouds and the
    # exact-1d distances together (not the quadrature bits of the bound).
    cfg = small_gamma_config(steps=40, chains=1024, checkpoints=(0, 5, 10, 20, 40),
                             base_seed=3, reference_seeds=8, assumption_pairs=200)
    res = exp.run_convergence_experiment(cfg)
    assert res.total_rejections == 73
    stacked = np.stack([res.distances[k] for k in res.checkpoints])
    assert stacked.shape == (5, 8) and stacked.dtype == np.float64
    assert hashlib.sha256(stacked.tobytes()).hexdigest() == (
        "c24140b9ae2aa39418be2a51859f77bf9effe11e6643244202acc3c7fc9e4a37"
    )


def test_experiment_validates_checkpoints():
    with pytest.raises(InvalidParameters):
        exp.run_convergence_experiment(small_gamma_config(checkpoints=(10, 20)))
    with pytest.raises(InvalidParameters):
        exp.run_convergence_experiment(small_gamma_config(checkpoints=(0, 100)))


def test_record_check_counts_only_the_checkpoints(monkeypatch):
    # Half the memory that every step's points would take: more than the
    # checkpoint and reference clouds need, so only recording every step is refused.
    cfg = small_gamma_config(steps=400, reference_seeds=2, assumption_pairs=200)
    every_step = 8 * cfg.chains * (cfg.steps + 1)
    clouds = 8 * cfg.chains * len(cfg.checkpoints) * cfg.reference_seeds
    assert clouds < every_step // 2
    monkeypatch.setattr("hrlmc.errors._physical_memory", lambda: every_step // 2)
    with pytest.raises(InvalidParameters, match=r"recording 256 chain\(s\) x 401 point\(s\)"):
        exp.run_parallel_chains(parse_entropy("burg", dim=1), tgt.gamma_target([5.0], [1.0]),
                                exp.constant_schedule(0.05), [0.2], cfg.steps, 0, cfg.chains)
    res = exp.run_convergence_experiment(cfg)
    np.testing.assert_array_equal(res.checkpoints, cfg.checkpoints)


def test_harmonic_schedule_has_no_bound_curve():
    cfg = small_gamma_config(schedule="harmonic:a=0.37", checkpoints=(0, 30, 60))
    res = exp.run_convergence_experiment(cfg)
    assert np.all(np.isnan(res.bound_values))
    assert math.isnan(res.floor)


def test_harmonic_run_beats_constant_floor_late():
    # Qualitative decreasing-step check: by k = 500 the harmonic run sits
    # below the constant-step bound floor for h = h_1.
    a = 0.37
    cfg = small_gamma_config(
        schedule=f"harmonic:a={a}", steps=500, chains=512,
        checkpoints=(0, 250, 500), reference_seeds=10,
    )
    res = exp.run_convergence_experiment(cfg)
    const = exp.run_convergence_experiment(
        small_gamma_config(schedule=f"constant:h={a}", steps=10, chains=64,
                           checkpoints=(0, 10), reference_seeds=4)
    )
    assert res.medians[-1] < const.floor


# --------------------------------------------------------------------- sweep


def test_sweep_needs_gamma_template():
    cfg = small_gamma_config(target="beta:a1=4,a2=4", checkpoints=(40, 60))
    with pytest.raises(InvalidParameters):
        exp.run_dimension_sweep(cfg, dims=[1, 2])


@pytest.mark.parametrize("checkpoints", [(40, 61), (-1, 60)], ids=["beyond-steps", "negative"])
def test_sweep_rejects_unrecorded_plateau_checkpoint(checkpoints):
    # A negative checkpoint must not wrap around to the last record.
    cfg = small_gamma_config(chains=16, checkpoints=checkpoints, plateau_window=2)
    with pytest.raises(InvalidParameters, match=r"checkpoints must lie in \[0, 60\]"):
        exp.run_dimension_sweep(cfg, dims=[1])


def test_sweep_csv_is_pinned():
    # Burg, p = 1 (exact-1d) and p = 2 (assignment), over a three-checkpoint
    # plateau window: the sha256 pins the sweep's output bytes.
    cfg = exp.ExperimentConfig(
        entropy="burg", target="gamma:a=5;b=1", schedule="constant:h=0.2",
        steps=40, chains=64, x0=(1.0,), checkpoints=(10, 20, 30, 40),
        base_seed=3, reference_seeds=5, plateau_window=3,
    )
    csv = exp.run_dimension_sweep(cfg, dims=[1, 2]).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "133c7c6645c50fcea385caee5200975fd636e9143fa8606fb252b6c0d101bf55"
    )


def test_sweep_small_dims_monotone():
    cfg = exp.ExperimentConfig(
        entropy="burg", target="gamma:a=5;b=1", schedule="constant:h=0.2",
        steps=80, chains=256, x0=(1.0,), checkpoints=(60, 80),
        base_seed=3, reference_seeds=8, plateau_window=2,
    )
    res = exp.run_dimension_sweep(cfg, dims=[1, 4])
    assert res.plateaus[1] > res.plateaus[0] > 0.0
    csv = res.to_csv()
    assert csv.splitlines()[0] == "p,plateau,raw_median,baseline_median"
    assert "# loglog_slope = " in csv


# ------------------------------------------------------------------ plateaus


def test_moment_plateau_gaussian_matches_theory():
    # For h = 0.1 on A = diag(1, 2) the stationary chain covariance is
    # diag(1/(1 - h/2), (1/2)/(1 - h)) and the distance follows in closed form.
    gauss = tgt.gaussian_target(np.diag([1.0, 2.0]))
    got = exp.moment_plateau_gaussian(gauss, 0.1, n_chains=1024, n_steps=2400,
                                      burn_in=800, seed=9, record_every=4)
    sig = np.sqrt(np.array([1.0 / (1.0 - 0.05), 0.5 / (1.0 - 0.1)]))
    expect = math.sqrt(np.sum((sig - np.sqrt([1.0, 0.5])) ** 2))
    assert got == pytest.approx(expect, abs=0.02)


def test_fit_decay_slope_recovers_synthetic_rate():
    ks = np.arange(0, 101, 5)
    med = 3.0 * np.exp(-0.12 * ks) + 0.05
    slope = exp.fit_decay_slope(ks, med, plateau=0.05, k_max=100, min_gap=0.01)
    assert slope == pytest.approx(-0.12, rel=1e-6)
    with pytest.raises(InvalidParameters):
        exp.fit_decay_slope(ks, med, plateau=0.05, k_max=4, min_gap=0.01)


def test_sweep_per_dimension_entries_are_independent():
    cfg = exp.ExperimentConfig(
        entropy="burg", target="gamma:a=5;b=1", schedule="constant:h=0.2",
        steps=60, chains=128, x0=(1.0,), checkpoints=(40, 60),
        base_seed=3, reference_seeds=5, plateau_window=2,
    )
    solo = exp.run_dimension_sweep(cfg, dims=[2])
    both = exp.run_dimension_sweep(cfg, dims=[1, 2])
    assert solo.plateaus[0] == both.plateaus[1]


# ------------------------------------------------------------------ fan-out


def _sweep_csv(checkpoints=(30, 40)):
    cfg = exp.ExperimentConfig(
        entropy="burg", target="gamma:a=5;b=1", schedule="constant:h=0.2",
        steps=40, chains=64, x0=(1.0,), checkpoints=checkpoints,
        base_seed=3, reference_seeds=4, plateau_window=2,
    )
    return exp.run_dimension_sweep(cfg, dims=[1, 2]).to_csv()


def test_sweep_counts_a_repeated_checkpoint_once():
    # The plateau window spans distinct checkpoints, as the convergence trace does.
    assert _sweep_csv(checkpoints=(30, 40, 40)) == _sweep_csv()


def _convergence_csv(**overrides):
    cfg = small_gamma_config(**{**dict(target="gamma:a=5,5;b=1,1", steps=20, chains=64,
                                       checkpoints=(0, 10, 20), reference_seeds=4),
                                **overrides})
    return exp.run_convergence_experiment(cfg).to_csv()


@pytest.mark.parametrize("produce", [
    _sweep_csv,
    _convergence_csv,
    lambda: _convergence_csv(target="gamma:a=5;b=1", distance_method="exact-1d"),
    lambda: _convergence_csv(distance_method="sliced"),
], ids=["sweep", "p2-trace", "exact-1d-trace", "sliced-trace"])
def test_csv_does_not_depend_on_worker_count(monkeypatch, produce):
    csvs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda workers=workers: workers)
        csvs.append(produce())
    assert csvs[1:] == csvs[:1] * 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("call", [1, 2], ids=["first-fork", "second-fork"])
def test_worker_that_fails_to_start_costs_time_not_output(call, monkeypatch, fork_fails_at):
    # Twelve tasks fork 2 workers on 3 CPUs; one of the two forks fails.
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 3)
    forked = _convergence_csv()
    fds = len(os.listdir("/proc/self/fd"))
    calls = fork_fails_at(call)
    assert _convergence_csv() == forked
    assert len(calls) == 2
    assert len(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_map_without_fork_gives_the_forked_bytes(monkeypatch, fork_fails_at):
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 2)
    calls = fork_fails_at(0)  # counts the forks, and none fails
    forked = _convergence_csv()
    assert len(calls) == 1
    monkeypatch.delattr(os, "fork")
    assert _convergence_csv() == forked


def test_worker_error_keeps_its_type(monkeypatch):
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 2)
    cfg = small_gamma_config(target="gamma:a=5,5;b=1,1", steps=0, checkpoints=(0,),
                             chains=ASSIGNMENT_MAX_POINTS + 1, reference_seeds=2,
                             distance_method="assignment")
    with pytest.raises(MethodUnavailable):
        exp.run_convergence_experiment(cfg)


def _all_read_by_the_forked_worker(n):
    """``prepare`` and ``meanwhile`` for a map of ``n`` tasks on two CPUs:
    ``meanwhile()`` returns once the one forked worker has read and prepared
    every index, so every task runs there."""
    prepared = np.frombuffer(mmap.mmap(-1, 8 * n))

    def prepare(i):
        prepared[i] = 1.0
        return i

    def meanwhile():
        while not prepared.all():
            pass

    return prepare, meanwhile


@pytest.fixture
def two_workers_within_5s(monkeypatch):
    """Two workers for the map, a 5 s limit on the test, and no child left after it."""

    def too_slow(signum, frame):
        raise TimeoutError("the worker map took over 5 s")

    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_error_keeps_its_type_across_the_process_boundary(two_workers_within_5s):
    def task(i, ready):
        if i == 1:
            raise SizeMismatch("task 1")
        return i

    with pytest.raises(SizeMismatch, match="task 1"):
        exp._map_distance_tasks(task, 2, *_all_read_by_the_forked_worker(2))


def test_worker_that_exits_without_a_reply_raises_its_status(two_workers_within_5s):
    def task(i, ready):
        if i == 1:
            os._exit(3)
        return i

    with pytest.raises(RuntimeError, match="status 3"):
        exp._map_distance_tasks(task, 4, *_all_read_by_the_forked_worker(4))


def test_workers_that_all_fail_stop_the_feed(two_workers_within_5s):
    # More indices than a 64 KiB pipe holds, and every task fails, this
    # process's too: the map must end instead of waiting on a full pipe or on
    # a worker.
    def task(i, ready):
        raise SizeMismatch(f"task {i}")

    with pytest.raises(SizeMismatch):
        exp._map_distance_tasks(task, 20_000, lambda i: i, lambda: None)


def test_text_buffered_before_forking_workers_is_written_once(two_workers_within_5s,
                                                               monkeypatch, capfd):
    # pytest's own sys.stdout writes through; this one keeps text in its buffer.
    with io.TextIOWrapper(open(os.dup(1), "wb")) as out:
        monkeypatch.setattr(sys, "stdout", out)
        print("before the fork")

        def task(i, ready):
            print(f"task {i}", flush=True)
            return i

        assert exp._map_distance_tasks(task, 4, *_all_read_by_the_forked_worker(4)) == [0, 1, 2, 3]
    lines = capfd.readouterr().out.splitlines()
    assert lines[0] == "before the fork"
    assert sorted(lines[1:]) == [f"task {i}" for i in range(4)]


def test_worker_halves_overlap_what_runs_here(two_workers_within_5s):
    # Every prepare half must finish while meanwhile() still runs (it waits for
    # them), and every task half must see what meanwhile() wrote.
    n = 50
    shared = np.frombuffer(mmap.mmap(-1, 8 * (n + 1)))

    def prepare(i):
        shared[i] = 1.0
        return 10 * i

    def meanwhile():
        while not shared[:n].all():
            pass
        shared[n] = 7.0

    def task(i, ready):
        return ready + shared[n]

    assert exp._map_distance_tasks(task, n, prepare, meanwhile) == [10 * i + 7 for i in range(n)]


def test_worker_runs_each_task_half_right_after_its_prepare_once_ready(two_workers_within_5s):
    # The forked worker reads index 0 while meanwhile() runs and holds it until
    # this process, the last worker, has read index 1; the worker then reads 2
    # and 3.  Each half returns a count of the halves run before it in its
    # process, so a task half run right after its prepare half counts one more.
    here = os.getpid()
    flags = np.frombuffer(mmap.mmap(-1, 24))  # worker holds 0, index 1 read here, worker prepares
    events = itertools.count()

    def prepare(i):
        if os.getpid() == here:
            flags[1] = 1.0
            while flags[2] < 3:
                pass
        else:
            flags[0] = 1.0
            while not flags[1]:
                pass
            flags[2] += 1
        return next(events)

    def meanwhile():
        while not flags[0]:
            pass

    def task(i, ready):
        return ready, next(events), os.getpid() != here

    done = exp._map_distance_tasks(task, 4, prepare, meanwhile)
    assert [in_worker for *_, in_worker in done] == [True, False, True, True]
    assert [task_event - prepare_event for prepare_event, task_event, _ in done] == [1] * 4


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_worker_sees_the_hang_up_while_indices_are_queued(two_workers_within_5s):
    # The forked worker reads index 0 while meanwhile() runs and holds it until
    # this process, the last worker, prepares index 1 after the hang-up; this
    # process holds index 1 until the worker has run task 0 or read another
    # index.  Indices 2 and 3 are queued all that time, so the worker must run
    # task 0 after one prepare, before it reads them.
    here = os.getpid()
    # Worker holds 0, this process prepares, the worker's prepares, worker ran task 0.
    shared = np.frombuffer(mmap.mmap(-1, 32))

    def prepare(i):
        if os.getpid() == here:
            shared[1] = 1.0
            while not shared[3] and shared[2] < 2:
                pass
        else:
            shared[2] += 1
            shared[0] = 1.0
            while not shared[1]:
                pass
        return i

    def meanwhile():
        while not shared[0]:
            pass

    def task(i, prepared):
        if os.getpid() == here:
            return False, None
        shared[3] = 1.0
        return True, shared[2]

    fds = len(os.listdir("/proc/self/fd"))
    done = exp._map_distance_tasks(task, 4, prepare, meanwhile)
    assert done[:2] == [(True, 1.0), (False, None)]
    assert len(os.listdir("/proc/self/fd")) == fds


def test_worker_left_preparing_when_the_chains_raise_is_reaped(two_workers_within_5s,
                                                                monkeypatch):
    broke = NumericalBreakdown("the chains broke down")

    def chains(*args, **kwargs):
        raise broke

    monkeypatch.setattr(exp, "run_parallel_chains", chains)
    with pytest.raises(NumericalBreakdown) as err:
        exp.run_convergence_experiment(small_gamma_config())
    assert err.value is broke


def test_worker_error_in_the_reference_half_keeps_its_type(two_workers_within_5s, monkeypatch):
    # Only the forked worker fails: this process, the last worker, draws its
    # own references, so the error can reach the test only through the reply.
    # The chains return only once the worker has failed, so this process
    # cannot take every task index before the worker reads one.
    here, draw, chains = os.getpid(), exp._reference_cloud, exp.run_parallel_chains
    failed_r, failed_w = os.pipe()

    def reference(*args):
        if os.getpid() != here:
            os.write(failed_w, b"!")
            raise SizeMismatch("no reference cloud in a worker")
        return draw(*args)

    def chains_until_the_worker_failed(*args, **kwargs):
        trace = chains(*args, **kwargs)
        os.read(failed_r, 1)
        return trace

    monkeypatch.setattr(exp, "_reference_cloud", reference)
    monkeypatch.setattr(exp, "run_parallel_chains", chains_until_the_worker_failed)
    try:
        with pytest.raises(SizeMismatch, match="no reference cloud in a worker"):
            exp.run_convergence_experiment(small_gamma_config())
    finally:
        os.close(failed_r)
        os.close(failed_w)


def test_worker_feed_does_not_wait_for_room_in_the_pipe(two_workers_within_5s):
    # More indices than a 64 KiB pipe holds: those that do not fit are this
    # process's own, and the feed must not wait for room even when the one
    # forked worker stops at its first index.
    def task(i, ready):
        return ready + 1

    expected = [2 * i + 1 for i in range(20_000)]
    assert exp._map_distance_tasks(task, 20_000, lambda i: 2 * i, lambda: None) == expected
    here = os.getpid()

    def prepare(i):
        if os.getpid() != here:
            raise SizeMismatch(f"task {i}")
        return 2 * i

    with pytest.raises(SizeMismatch, match=r"task \d+"):
        exp._map_distance_tasks(task, 20_000, prepare, lambda: None)


def test_convergence_sorts_each_cloud_once(monkeypatch):
    # One sort per reference cloud and one per checkpoint cloud, not one of
    # each per task; a serial map runs every task in this process.
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 1)
    cfg = small_gamma_config(chains=64)
    sorted_sizes = []
    sort = np.sort

    def counted(a, *args, **kwargs):
        sorted_sizes.append(np.size(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counted)
    exp.run_convergence_experiment(cfg)
    n_checkpoints = len(cfg.checkpoints)
    assert sorted_sizes.count(64) == n_checkpoints * cfg.reference_seeds + n_checkpoints


# The criterion-7 checkpoints, 0 among them.
_CONVERGE_KS = np.array([*range(0, 21, 2), *range(30, 201, 10)])


@pytest.mark.parametrize("p", [1, 8])
@pytest.mark.parametrize("base_seed", [0, 1, 2**32 + 7, 2**70],
                         ids=["zero", "one", "two-words", "three-words"])
def test_reference_seeding_equals_exact_sample(base_seed, p):
    # The batched PCG64 states must track numpy's SeedSequence hash and PCG64
    # seeding bit for bit; a change there would otherwise shift every reference
    # cloud silently.  Seeds of more than one word move the tags, checkpoints
    # and reps past the hash's initial pool.
    tags = (7733, 7741 + p, 8641 + p, 8647 + p)
    states, incs = seeds.pcg64_states(base_seed, np.array(tags)[:, None],
                                      np.repeat(_CONVERGE_KS, 20), np.tile(np.arange(20), 29))
    target = tgt.gamma_target([5.0] * p, [1.0] * p)
    entropy = parse_entropy("burg", dim=p)
    rng = np.random.default_rng(0)
    pairs = [(k, rep) for k in _CONVERGE_KS.tolist() for rep in range(20)]
    assert states.shape == incs.shape == (len(tags), len(pairs))
    for t, tag in enumerate(tags):
        for i, (k, rep) in enumerate(pairs):
            seed = (base_seed, tag, k, rep)
            assert np.random.default_rng(seed).bit_generator.state["state"] == {
                "state": states[t, i], "inc": incs[t, i]}, seed
            np.testing.assert_array_equal(
                exp._reference_cloud(target, entropy, 3, rng, states[t, i], incs[t, i]),
                entropy.grad(tgt.exact_sample(target, 3, seed)))


def test_reference_seed_columns_must_fit_one_word():
    # A checkpoint of 2**32 is two words of numpy's seed; as a uint32 it would wrap to 0.
    with pytest.raises(InvalidParameters, match="below 2"):
        seeds.pcg64_states(0, np.array([7733]), np.array([0, 2**32]), np.array([0, 0]))


@pytest.mark.parametrize("run, overrides", [
    (exp.run_convergence_experiment, {}),
    (lambda cfg: exp.run_dimension_sweep(cfg, dims=(1, 2)),
     dict(steps=20, checkpoints=(10, 20), plateau_window=2)),
], ids=["convergence", "sweep"])
def test_no_generator_per_reference_cloud(monkeypatch, run, overrides):
    # A serial map runs every task in this process, so every generator made
    # for a reference cloud would be counted here.
    monkeypatch.setattr("hrlmc.workers.usable_cpus", lambda: 1)
    made = 0
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        nonlocal made
        made += 1
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    counts = []
    for reps in (2, 6):
        made = 0
        run(small_gamma_config(**{"chains": 64, "reference_seeds": reps, **overrides}))
        counts.append(made)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("run, overrides, error", [
    (exp.run_convergence_experiment, dict(distance_method="foo"), MethodUnavailable),
    (lambda cfg: exp.run_dimension_sweep(cfg, dims=(1, 2)), dict(distance_method="exact-1d"),
     MethodUnavailable),
    (exp.run_convergence_experiment, dict(entropy="mixed:a=0.7"), InadmissibleRegime),
    (exp.run_convergence_experiment, dict(checkpoints=(0, 10, 70)), InvalidParameters),
    (lambda cfg: exp.run_dimension_sweep(cfg, dims=(1, 2)), dict(checkpoints=(10, 40, 70)),
     InvalidParameters),
], ids=["experiment-foo", "sweep-exact-1d-p2", "experiment-inadmissible-regime",
        "experiment-checkpoint-past-steps", "sweep-checkpoint-past-steps"])
def test_distance_method_is_checked_before_any_chain_runs(monkeypatch, run, overrides, error):
    def no_chains(*args, **kwargs):
        raise AssertionError("chains ran before the distance method was checked")

    monkeypatch.setattr(exp, "run_parallel_chains", no_chains)
    with pytest.raises(error):
        run(small_gamma_config(**overrides))


def test_sweep_copies_the_template_gamma_parameters(monkeypatch):
    class Seen(Exception):
        pass

    def spy(a, b):
        raise Seen(np.asarray(a).tolist(), np.asarray(b).tolist())

    monkeypatch.setattr(exp, "gamma_target", spy)
    with pytest.raises(Seen) as err:
        exp.run_dimension_sweep(small_gamma_config(target="gamma:a=3.05;b=0.7"), dims=[2])
    assert err.value.args == ([3.05, 3.05], [0.7, 0.7])
