"""Reproducible experiments: distance-vs-iteration traces and dimension sweeps.

Checkpoint distance protocol: at each checkpoint pool one recorded point per
chain into a cloud of size n_chains, compare it against an equal-size
exact-sample cloud, and repeat over ``reference_seeds`` independent reference
clouds; report the median and interquartile range.  ``distance_method``
picks the estimator, and ``metrics.resolve_method`` checks it before any chain
runs: ``auto`` is the sort coupling in 1-d, an exact assignment for p > 1 up
to ``metrics.AUTO_ASSIGNMENT_MAX`` (512) chains, and the sliced estimator above.

Plateau estimation for the sweep subtracts a same-law baseline: the squared
distance between two independent exact clouds of the same size measures the
finite-sample floor of the estimator, which grows with dimension and would
otherwise masquerade as sampler bias.  The debiased plateau is
sqrt(max(median d^2(chain, exact) - median d^2(exact, exact'), 0)).

Both experiments share one path (``_checkpoint_distances``): one distance
task per (checkpoint, reference seed) pair; the tasks are independent and
pure.  Whatever the estimator, the tasks run in worker processes forked for
the call, up to one per usable CPU, which take task indices from one pipe;
each result returns to its own slot, so the output does not depend on the
number of workers.  The workers are forked before the chains run.  This
process runs the chains, pushes each checkpoint cloud through the mirror map
once and copies it into an anonymous shared ``mmap`` made before the fork,
where every worker reads it.  The sweep's workers take an index at a time
once the clouds are written.  The convergence trace splits each task in two
phases.  While the chains run, one worker fewer than usable CPUs draws and
embeds the reference clouds of the indices it reads (and, for exact-1d,
sorts them).  Once the clouds are written, each worker sorts each chain
cloud it needs once and compares it with its prepared references, and this
process joins them as the last worker, running both phases on the indices
left.

Every experiment is a pure function of its config; re-running writes
byte-identical CSV output (floats serialized with 17 significant digits).
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from . import metrics
from .analysis import bound_report, estimate_constants
from .entropy import parse_entropy
from .errors import (InvalidParameters, check_allocation, check_seed, parse_number,
                     parse_numbers)
from .sampler import constant_schedule, parse_schedule, run_parallel_chains
from .target import exact_sample, gamma_target, parse_target


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# (read, write) text converters for each field type of ExperimentConfig.
_CONVERTERS = {
    int: (lambda s: parse_number(s, int), str),
    str: (str, str),
    tuple[float, ...]: (lambda s: tuple(parse_numbers(s)), lambda v: ",".join(map(_fmt, v))),
    tuple[int, ...]: (lambda s: tuple(parse_numbers(s, int)),
                      lambda v: ",".join(str(int(x)) for x in v)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat key=value experiment description (INI-style, diff-friendly).

    ``x0`` holds either one coordinate broadcast to every chain or a full
    starting point; left empty, the chains start at the entropy's interior
    point.  ``checkpoints`` must include 0 so the initial distance can anchor
    the bound curve.  ``chains``, ``reference_seeds``, ``assumption_pairs``
    and ``plateau_window`` must be at least 1.
    """

    entropy: str
    target: str
    schedule: str
    steps: int
    chains: int
    x0: tuple[float, ...] = ()
    checkpoints: tuple[int, ...] = ()
    base_seed: int = 0
    reference_seeds: int = 20
    distance_method: str = "auto"
    assumption_pairs: int = 4000
    plateau_window: int = 3
    dims: tuple[int, ...] = ()
    out: str = ""

    def __post_init__(self):
        check_seed(self.base_seed)
        for name in ("chains", "reference_seeds", "assumption_pairs", "plateau_window"):
            if getattr(self, name) < 1:
                raise InvalidParameters(f"{name} must be at least 1, got {getattr(self, name)}")

    def to_text(self) -> str:
        types = get_type_hints(type(self))
        return "".join(f"{f.name} = {_CONVERTERS[types[f.name]][1](getattr(self, f.name))}\n"
                       for f in fields(self))

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        raw = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParameters(f"config line {lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in raw:
                raise InvalidParameters(f"config line {lineno}: repeated key {key!r}")
            raw[key] = val.strip()
        types = get_type_hints(cls)
        unknown = set(raw) - set(types)
        if unknown:
            raise InvalidParameters(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(raw)
        if missing:
            raise InvalidParameters(f"config is missing keys: {sorted(missing)}")
        return cls(**{key: _CONVERTERS[types[key]][0](val) for key, val in raw.items()})


def _reference_cloud(target, n, base_seed, tag, k, rep):
    return exact_sample(target, n, (int(base_seed), tag, int(k), int(rep)))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _serve(task, prepare, indices, feed, reply):
    """A forked worker: run ``task`` on each index read from ``indices`` until
    EOF, send one pickle of the ``(index, result)`` pairs, or of the first
    exception and its traceback, on ``reply``, and exit.

    With ``prepare``, run ``prepare(i)`` on each index as it is read and
    ``task(i, prepare(i))`` on them all after EOF.  ``feed`` is this process's
    copy of the write end of ``indices``; it is closed first, or the worker
    would never see EOF.
    """
    try:
        os.close(feed)
        try:
            done = []
            while index := os.read(indices, 4):
                i = int.from_bytes(index, "little")
                done.append((i, task(i) if prepare is None else prepare(i)))
            if prepare is not None:
                done = [(i, task(i, ready)) for i, ready in done]
            payload = pickle.dumps(done)
        except BaseException as exc:
            import traceback

            payload = pickle.dumps((exc, traceback.format_exc()))
        with open(reply, "wb") as out:
            out.write(payload)
        os._exit(0)
    finally:
        os._exit(1)


def _map_distance_tasks(task, n_tasks, prepare=None, meanwhile=None):
    """``[task(i) for i in range(n_tasks)]`` over forked worker processes, after ``meanwhile()``.

    Up to one worker per usable CPU is forked first, so each inherits ``task``
    (its clouds and targets do not pickle) and the solver modules that
    ``metrics.resolve_method`` imports.  This process then runs ``meanwhile()``,
    writes each task index to one pipe as its own 4-byte write, which is
    atomic, and closes it; each worker reads indices until EOF, so a worker
    that draws cheap tasks takes more of them.

    With ``prepare`` the map has two halves, and ``task`` takes the result of
    the first: ``task(i, prepare(i))``.  One worker fewer is forked, and the
    indices go into the pipe before ``meanwhile()``, as many as it holds, so
    the workers run ``prepare`` on the indices they read while this process
    runs ``meanwhile()``; the pipe is closed after it, and each worker runs
    ``task`` on its indices at EOF.  This process then takes the last worker's
    place: it runs both halves on the indices that did not fit in the pipe
    and on those it reads from the pipe alongside the workers.  Without
    workers, ``meanwhile()`` runs first and then each task's halves in turn.

    A worker returns its ``(index, result)`` pairs as one pickle on a pipe of
    its own and each result goes back to its own slot, so the output does not
    depend on the number of workers.  An exception raised in a worker is
    re-raised here with its own type, and a worker that ends without a reply
    raises ``RuntimeError`` with its exit status; one raised in this process,
    by ``meanwhile`` or a task, propagates unchanged.  Every worker is killed
    and reaped before this returns or raises.
    """
    workers = min(_usable_cpus(), n_tasks)
    if workers < 2 or not hasattr(os, "fork"):
        if meanwhile is not None:
            meanwhile()
        if prepare is None:
            return [task(i) for i in range(n_tasks)]
        return [task(i, prepare(i)) for i in range(n_tasks)]
    # A child must not inherit, and later write out again, buffered text.
    sys.stdout.flush()
    sys.stderr.flush()
    pids, replies = [], []
    indices_r, indices_w = os.pipe()
    results = [None] * n_tasks
    with open(indices_r, "rb", 0) as indices_in, open(indices_w, "wb", 0) as indices_out:
        try:
            # With prepare, this process is the last worker once meanwhile() returns.
            for _ in range(workers if prepare is None else workers - 1):
                reply_r, reply_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _serve(task, prepare, indices_r, indices_w, reply_w)
                pids.append(pid)
                os.close(reply_w)
                replies.append(open(reply_r, "rb"))
            if prepare is None:
                indices_in.close()  # so a write fails once every worker has stopped reading
                if meanwhile is not None:
                    meanwhile()
                try:
                    for i in range(n_tasks):
                        os.write(indices_w, i.to_bytes(4, "little"))
                except BrokenPipeError:  # every worker has stopped; their replies say why
                    pass
                indices_out.close()
            else:
                # This process reads the pipe too, so a write that waits for room
                # could wait forever; the indices that do not fit are its own.
                os.set_blocking(indices_w, False)
                fed = 0
                try:
                    while fed < n_tasks:
                        os.write(indices_w, fed.to_bytes(4, "little"))
                        fed += 1
                except BlockingIOError:
                    pass
                if meanwhile is not None:
                    meanwhile()
                indices_out.close()
                for i in range(fed, n_tasks):
                    results[i] = task(i, prepare(i))
                while index := indices_in.read(4):
                    i = int.from_bytes(index, "little")
                    results[i] = task(i, prepare(i))
            for pid, reply in zip(pids, replies):
                with reply:
                    payload = reply.read()
                if not payload:
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    pids.remove(pid)
                    raise RuntimeError(f"distance worker {pid} ended with status {status} "
                                       "and no result")
                done = pickle.loads(payload)
                if isinstance(done, tuple):
                    exc, text = done
                    raise exc from RuntimeError(f"in distance worker {pid}:\n{text}")
                for i, value in done:
                    results[i] = value
            return results
        finally:
            for reply in replies:
                reply.close()
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _embed_checkpoints(entropy, trace, checkpoints, out):
    """Write the chain cloud recorded at step ``checkpoints[j]``, pushed through the
    mirror map, to ``out[j]``.

    Every distance task of a checkpoint compares its cloud with this one embedding.
    """
    # Look records up by step, never index by k: a negative k would wrap.
    index = {int(k): i for i, k in enumerate(trace.steps)}
    for j, k in enumerate(checkpoints):
        if int(k) not in index:
            raise InvalidParameters(f"checkpoint {k} was not recorded")
        out[j] = metrics.mirror_embed(entropy, trace.points[:, index[int(k)]])


def _checkpoint_distances(entropy, target, schedule, config, seed, ks, pair, reference=None,
                          comparable=None):
    """Run the configured chains from ``seed`` and map the distance tasks over their clouds.

    Task (j, rep) compares the chain cloud recorded at step ``ks[j]``, pushed
    through the mirror map, with reference seed ``rep``.  The distance workers
    are forked before the chains run; this process then runs the chains and
    writes the embedded checkpoint clouds to a shared buffer, which the
    workers read.  Without ``reference``, the task is ``pair(cloud, ks[j],
    rep)``, run once the buffer is written.  With it, the task has two halves.
    The workers draw ``reference(ks[j], rep)``, an embedded cloud that does not
    depend on the chains, while the chains run; then the task is
    ``pair(comparable(cloud), comparable(ref))``, and each process applies
    ``comparable`` to each chain cloud it compares only once.  Returns the
    trace and the results stacked to shape ``(len(ks), config.reference_seeds,
    ...)``.
    """
    metrics.resolve_method(config.distance_method, config.chains, config.chains, target.dim)
    reps = config.reference_seeds
    n_tasks = len(ks) * reps
    shape = (len(ks), config.chains, target.dim)
    check_allocation(8 * math.prod(shape), "holding the checkpoint clouds",
                     "use fewer chains or checkpoints")
    # Anonymous shared memory: what this process writes to it after the fork,
    # the workers read.
    clouds = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)
    trace = None

    def run_chains():
        nonlocal trace
        trace = run_parallel_chains(entropy, target, schedule, config.x0 or None, config.steps,
                                    seed, config.chains)
        _embed_checkpoints(entropy, trace, ks, clouds)

    if reference is None:
        prepare = None

        def task(i):
            return pair(clouds[i // reps], int(ks[i // reps]), i % reps)
    else:
        check_allocation(8 * n_tasks * config.chains * target.dim,
                         "holding the reference clouds",
                         "use fewer chains, checkpoints or reference seeds")
        chain_clouds = {}  # filled in each process, one entry per checkpoint it compares

        def prepare(i):
            return comparable(reference(int(ks[i // reps]), i % reps))

        def task(i, ref):
            j = i // reps
            if j not in chain_clouds:
                chain_clouds[j] = comparable(clouds[j])
            return pair(chain_clouds[j], ref)

    values = np.array(_map_distance_tasks(task, n_tasks, prepare, run_chains))
    return trace, values.reshape(len(ks), reps, *values.shape[1:])


@dataclass
class ConvergenceResult:
    """Distance trace with the matching theoretical bound curve."""

    checkpoints: np.ndarray
    medians: np.ndarray
    iqrs: np.ndarray
    bound_values: np.ndarray
    floor: float
    rho: float
    w0_hat: float
    config: ExperimentConfig
    report: object
    bound: object
    total_rejections: int
    distances: dict = field(default_factory=dict)  # k -> per-rep values

    def rows(self):
        for i, k in enumerate(self.checkpoints):
            yield (int(k), self.medians[i], self.iqrs[i], self.bound_values[i], self.floor)

    def to_csv(self) -> str:
        lines = ["checkpoint_k,w2phi_median,w2phi_iqr,bound_value,floor"]
        for k, med, iqr, bv, fl in self.rows():
            lines.append(f"{k},{_fmt(med)},{_fmt(iqr)},{_fmt(bv)},{_fmt(fl)}")
        return "\n".join(lines) + "\n"


def run_convergence_experiment(config: ExperimentConfig) -> ConvergenceResult:
    """Distance-to-target trace at checkpoints, with one-sided bound values.

    Emits, per checkpoint k: the median and IQR of the empirical mirror W2
    between the chain ensemble and equal-size exact clouds, the bound value
    rho^k * W0_hat + floor, and the floor.  W0_hat is the k = 0 median.
    """
    target = parse_target(config.target)
    entropy = parse_entropy(config.entropy, dim=target.dim)
    schedule = parse_schedule(config.schedule)
    if not config.checkpoints or min(config.checkpoints) != 0:
        raise InvalidParameters("checkpoints must be nonempty and include 0")
    ks = np.unique(np.asarray(config.checkpoints, dtype=int))

    def reference(k, rep):
        ref = _reference_cloud(target, config.chains, config.base_seed, 7733, k, rep)
        return metrics.mirror_embed(entropy, ref)

    # The report and the bound come first, so an inadmissible regime or a step
    # outside the window fails before any chain runs.
    report = estimate_constants(
        entropy, target, n_pairs=config.assumption_pairs, seed=config.base_seed
    )
    bound = bound_report(report, schedule.h, target.dim) if schedule.kind == "constant" else None

    method = metrics.resolve_method(config.distance_method, config.chains, config.chains,
                                    target.dim)
    if method == "exact-1d":
        def comparable(cloud):  # sorted once, whatever number of clouds it meets
            return np.sort(cloud[:, 0])

        pair = metrics.w2_sorted
    else:
        def comparable(cloud):
            return cloud

        def pair(a, b):
            return metrics.w2_embedded(a, b, method=method).value

    trace, d = _checkpoint_distances(entropy, target, schedule, config, config.base_seed,
                                     ks, pair, reference, comparable)
    medians = np.median(d, axis=1)
    iqrs = np.percentile(d, 75, axis=1) - np.percentile(d, 25, axis=1)
    w0_hat = float(medians[ks == 0][0])

    if bound is not None:
        bound = replace(bound, w0=w0_hat)
        bound_values = np.asarray(bound.bound_at(ks), dtype=float)
        floor = bound.floor
        rho = bound.rho
    else:
        bound_values = np.full(ks.shape, np.nan)
        floor = float("nan")
        rho = float("nan")

    return ConvergenceResult(
        checkpoints=ks,
        medians=medians,
        iqrs=iqrs,
        bound_values=bound_values,
        floor=floor,
        rho=rho,
        w0_hat=w0_hat,
        config=config,
        report=report,
        bound=bound,
        total_rejections=int(trace.rejections.sum()),
        distances=dict(zip(ks.tolist(), d)),
    )


@dataclass
class SweepResult:
    """Plateau distance per dimension with the fitted log-log exponent."""

    dims: np.ndarray
    plateaus: np.ndarray
    raw_medians: np.ndarray
    baselines: np.ndarray
    slope: float
    config: ExperimentConfig

    def to_csv(self) -> str:
        lines = ["p,plateau,raw_median,baseline_median"]
        for i, p in enumerate(self.dims):
            lines.append(
                f"{int(p)},{_fmt(self.plateaus[i])},{_fmt(self.raw_medians[i])},"
                f"{_fmt(self.baselines[i])}"
            )
        lines.append(f"# loglog_slope = {_fmt(self.slope)}")
        return "\n".join(lines) + "\n"


def run_dimension_sweep(config: ExperimentConfig, dims=None) -> SweepResult:
    """Plateau-vs-dimension sweep over i.i.d. product Gamma targets.

    The configured target acts as the one-dimensional template replicated to
    each requested dimension.  The plateau at each p is the debiased median
    over the last ``plateau_window`` checkpoints.
    """
    dims = tuple(int(d) for d in (dims if dims is not None else config.dims))
    if not dims:
        raise InvalidParameters("sweep needs at least one dimension")
    if min(dims) < 1:
        raise InvalidParameters(f"sweep dimensions must be at least 1, got {min(dims)}")
    template = parse_target(config.target)
    if not template.name.startswith("gamma:") or template.dim != 1:
        raise InvalidParameters("sweep needs a one-dimensional gamma template target")
    for p in dims:
        metrics.resolve_method(config.distance_method, config.chains, config.chains, p)
    schedule = parse_schedule(config.schedule)
    n_checkpoints = len(config.checkpoints)
    if config.plateau_window > n_checkpoints:
        raise InvalidParameters(f"plateau_window must be at most the {n_checkpoints} "
                                f"checkpoint(s), got {config.plateau_window}")
    plateau_ks = sorted(config.checkpoints)[-config.plateau_window:]

    plateaus = np.empty(len(dims))
    raws = np.empty(len(dims))
    bases = np.empty(len(dims))
    for i, p in enumerate(dims):
        target = gamma_target(np.repeat(template.a, p), np.repeat(template.b, p))
        entropy = parse_entropy(config.entropy, dim=p)

        def squared_distances(cloud, k, rep):
            ref = _reference_cloud(target, config.chains, config.base_seed, 7741 + p, k, rep)
            d = metrics.w2_embedded(cloud, metrics.mirror_embed(entropy, ref),
                                    method=config.distance_method)
            ref_b = _reference_cloud(target, config.chains, config.base_seed, 8641 + p, k, rep)
            ref_c = _reference_cloud(target, config.chains, config.base_seed, 8647 + p, k, rep)
            d0 = metrics.w2phi(entropy, ref_b, ref_c, method=config.distance_method)
            return d.value**2, d0.value**2

        _, sq = _checkpoint_distances(entropy, target, schedule, config,
                                      config.base_seed + 101 * p, plateau_ks, squared_distances)
        # Median of per-checkpoint medians: a chain ensemble occasionally
        # carries a deep-tail excursion that inflates every distance sharing
        # that snapshot, so checkpoints form contamination blocks.
        raw, base = np.median(np.median(sq, axis=1), axis=0)
        plateaus[i] = np.sqrt(max(raw - base, 0.0))
        raws[i] = np.sqrt(raw)
        bases[i] = np.sqrt(base)

    if len(dims) >= 2:
        logs = np.log(np.asarray(dims, dtype=float))
        slope = float(np.polyfit(logs, np.log(plateaus), 1)[0])
    else:
        slope = float("nan")
    return SweepResult(
        dims=np.asarray(dims, dtype=int),
        plateaus=plateaus,
        raw_medians=raws,
        baselines=bases,
        slope=slope,
        config=config,
    )


def moment_plateau_gaussian(target, h, n_chains, n_steps, burn_in, seed,
                            record_every=1) -> float:
    """Stationary mirror-W2 plateau for a Gaussian target via fitted moments.

    Affine updates with Gaussian noise keep the chain law exactly Gaussian,
    so W2 to the target is the closed-form Gaussian distance between the
    pooled empirical moments and the target moments.  This resolves plateaus
    far below the finite-sample floor of two-cloud empirical estimators.
    """
    entropy = parse_entropy("euclidean", dim=target.dim)
    trace = run_parallel_chains(
        entropy, target, constant_schedule(h), None, n_steps, seed, n_chains,
        record_every=record_every, burn_in=burn_in,
    )
    pooled = trace.points.reshape(-1, target.dim)
    mean = pooled.mean(axis=0)
    cov = np.cov(pooled.T, ddof=1).reshape(target.dim, target.dim)
    return metrics.gaussian_w2(mean, cov, np.zeros(target.dim), target.covariance)


def fit_decay_slope(checkpoints, medians, plateau, k_max, min_gap) -> float:
    """OLS slope of log(median - plateau) against k, over usable checkpoints.

    Checkpoints beyond ``k_max`` or with signal below ``min_gap`` are
    excluded (the log is undefined once the trace reaches the plateau).
    """
    ks = np.asarray(checkpoints, dtype=float)
    med = np.asarray(medians, dtype=float)
    gap = med - plateau
    use = (ks <= k_max) & (gap > min_gap)
    if int(np.sum(use)) < 3:
        raise InvalidParameters("not enough usable checkpoints for a decay fit")
    return float(np.polyfit(ks[use], np.log(gap[use]), 1)[0])
