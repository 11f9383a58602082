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
pure.  Each task has two halves.  The first does all that does not depend on
the chains: it draws and embeds the reference clouds, and sorts them for
exact-1d or solves the sweep's same-law baseline, from generator states
derived in one pass.  The second compares the result with the chain cloud.
The tasks run in workers forked by ``workers.forked``, which flushes, forks,
and kills and reaps them; a worker that fails to start costs time, not
output.  They are forked before the chains run, so the first halves run
while this process runs the chains and finishes each checkpoint cloud into
shared memory.  The workers take task indices from one pipe, and its hang-up,
once the chains are done, orders those cloud writes before any second half.
This process then joins them as the last worker.  Each result returns to its
own slot, so the output does not depend on the number of workers.

Every experiment is a pure function of its config; re-running writes
byte-identical CSV output (floats serialized with 17 significant digits).
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import select
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from . import metrics, seeds, workers
from .analysis import bound_report, estimate_constants
from .entropy import parse_entropy
from .errors import (InvalidParameters, check_allocation, check_seed, parse_number,
                     parse_numbers)
from .sampler import constant_schedule, parse_schedule, run_parallel_chains
from .target import gamma_target, parse_target


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
    point.  ``checkpoints`` lie in [0, ``steps``]; repeats count once.  A
    convergence trace needs 0 among them, so the initial distance can anchor
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


def _reference_cloud(target, entropy, n, rng, state, inc):
    """The mirror image of ``n`` exact draws from ``target`` by ``rng`` from the
    PCG64 state ``(state, inc)``: the embedded ``exact_sample`` of the seed
    that state came from."""
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return entropy.grad(target.sample_exact(rng, n))


def _map_distance_tasks(task, n_tasks, prepare, meanwhile):
    """``meanwhile()``, then ``[task(i, prepare(i)) for i in range(n_tasks)]``,
    with the ``prepare`` halves run in forked workers alongside ``meanwhile()``.

    Up to one worker per task but the first is forked, so each inherits
    ``task`` and ``prepare`` (their clouds and targets do not pickle) and the
    solver modules that ``metrics.resolve_method`` imports.  If any started,
    as many task indices as one pipe holds are written to it, each as its own
    4-byte write, which is atomic.  This process keeps the pipe's write end
    open through ``meanwhile()`` and closes it right after: the hang-up orders
    what ``meanwhile()`` wrote to shared memory before the workers' reads on
    every platform.  A worker runs ``prepare`` on each index it reads, and the
    ``task`` halves once it sees the hang-up.  This process then joins as the
    last worker, on the indices not fed, in order, then on those it reads, so
    a worker that draws cheap tasks takes more.

    Each worker's ``(index, result)`` pairs come back as one pickle, and each
    result goes to its own slot.  A worker's exception is re-raised here with
    its own type, and a worker that ends without a reply raises
    ``RuntimeError`` with its exit code; one raised in this process, by
    ``meanwhile`` or a task, propagates unchanged.
    """
    indices_r, indices_w = os.pipe()
    results = [None] * n_tasks

    def serve(j, n, out):
        """A worker: one pickle of its pairs, or of its first exception and traceback.

        Its copy of the write end is closed first, or it would never see the
        hang-up.  POSIX poll reports the hang-up once every write end is
        closed; Linux and the BSDs report it while indices are still queued,
        so from then on each task runs right after its ``prepare``.  EOF on
        the indices, where poll reports none, runs the tasks put off.
        """
        try:
            os.close(indices_w)
            hung_up = select.poll()
            hung_up.register(indices_r, select.POLLHUP)
            prepared, done = [], []
            while index := os.read(indices_r, 4):
                i = int.from_bytes(index, "little")
                prepared.append((i, prepare(i)))
                if hung_up.poll(0):
                    done += [(i, task(i, value)) for i, value in prepared]
                    prepared = []
            done += [(i, task(i, value)) for i, value in prepared]
            payload = pickle.dumps(done)
        except BaseException as exc:
            import traceback

            payload = pickle.dumps((exc, traceback.format_exc()))
        out.write(payload)

    with (open(indices_r, "rb", 0) as indices_in, open(indices_w, "wb", 0) as indices_out,
          workers.forked(n_tasks - 1, serve) as started):
        fed = 0
        if any(started):
            # This process reads the pipe too, once meanwhile() returns, so a
            # write that waits for room could wait forever.
            os.set_blocking(indices_w, False)
            with contextlib.suppress(BlockingIOError):
                while fed < n_tasks:
                    os.write(indices_w, fed.to_bytes(4, "little"))
                    fed += 1
        meanwhile()
        indices_out.close()
        for i in range(fed, n_tasks):
            results[i] = task(i, prepare(i))
        while index := indices_in.read(4):
            i = int.from_bytes(index, "little")
            results[i] = task(i, prepare(i))
        replies = [(worker, worker.reply.read()) for worker in started if worker]
    for worker, payload in replies:  # each worker's exit code is known once it is reaped
        if not payload:
            raise RuntimeError(f"distance worker {worker.pid} ended with status "
                               f"{worker.exit_code} and no result")
        done = pickle.loads(payload)
        if isinstance(done, tuple):
            exc, text = done
            raise exc from RuntimeError(f"in distance worker {worker.pid}:\n{text}")
        for i, value in done:
            results[i] = value
    return results


def _checkpoint_steps(config):
    """The distinct checkpoints of ``config``, sorted; each must lie in [0, ``steps``].

    Both experiments check them here, before any constant is estimated or any
    chain runs.
    """
    ks = np.unique(np.asarray(config.checkpoints, dtype=int))
    if ks.size and (ks[0] < 0 or ks[-1] > config.steps):
        raise InvalidParameters(f"checkpoints must lie in [0, {config.steps}], "
                                f"got {ks[0] if ks[0] < 0 else ks[-1]}")
    return ks


def _checkpoint_distances(entropy, target, schedule, config, seed, ks, tags, reference,
                          comparable, pair):
    """Run the configured chains from ``seed`` and map the distance tasks over their clouds.

    Task (j, rep) is ``pair(comparable(cloud), reference(*refs))``, where
    ``cloud`` is the chain cloud recorded at step ``ks[j]``, pushed through
    the mirror map, and ``refs`` holds, per tag, the embedded exact sample
    of seed ``(config.base_seed, tag, ks[j], rep)``, drawn by one Generator
    per process.  The references do not depend on the chains: the distance
    workers, forked before the chains run, draw them and call ``reference``
    while this process runs the chains and writes ``comparable`` of each
    checkpoint cloud, of the cloud's shape, to a shared buffer, which every
    process then reads.  Returns the trace and the results stacked to shape
    ``(len(ks), config.reference_seeds, ...)``.
    """
    metrics.resolve_method(config.distance_method, config.chains, config.chains, target.dim)
    reps = config.reference_seeds
    n_tasks = len(ks) * reps
    shape = (len(ks), config.chains, target.dim)
    check_allocation(8 * math.prod(shape), "holding the checkpoint clouds",
                     "use fewer chains or checkpoints")
    check_allocation(8 * n_tasks * config.chains * target.dim, "holding the reference clouds",
                     "use fewer chains, checkpoints or reference seeds")
    # Anonymous shared memory: what this process writes to it after the fork,
    # the workers read.
    clouds = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)
    # Row t, column i: the state of tag t for task i = (j, rep).
    states, incs = seeds.pcg64_states(config.base_seed, np.array(tags)[:, None],
                                      np.repeat(ks, reps), np.tile(np.arange(reps), len(ks)))
    rng = np.random.default_rng(0)  # set to each reference cloud's state before it draws
    trace = None

    def run_chains():
        nonlocal trace
        trace = run_parallel_chains(entropy, target, schedule, config.x0 or None, config.steps,
                                    seed, config.chains, record_steps=ks)
        for j in range(len(ks)):
            clouds[j] = comparable(metrics.mirror_embed(entropy, trace.points[:, j]))

    def prepare(i):
        return reference(*(_reference_cloud(target, entropy, config.chains, rng, state, inc)
                           for state, inc in zip(states[:, i], incs[:, i])))

    def task(i, ref):
        return pair(clouds[i // reps], ref)

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
    ks = _checkpoint_steps(config)
    if not ks.size or ks[0] != 0:
        raise InvalidParameters("checkpoints must be nonempty and include 0")

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
            return np.sort(cloud, axis=0)

        def pair(a, b):
            return metrics.w2_sorted(a[:, 0], b[:, 0])
    else:
        def comparable(cloud):
            return cloud

        def pair(a, b):
            return metrics.w2_embedded(a, b, method=method).value

    trace, d = _checkpoint_distances(entropy, target, schedule, config, config.base_seed,
                                     ks, (7733,), comparable, comparable, pair)
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
    ks = _checkpoint_steps(config)
    if config.plateau_window > ks.size:
        raise InvalidParameters(f"plateau_window must be at most the {ks.size} "
                                f"checkpoint(s), got {config.plateau_window}")
    plateau_ks = ks[-config.plateau_window:]

    plateaus = np.empty(len(dims))
    raws = np.empty(len(dims))
    bases = np.empty(len(dims))
    for i, p in enumerate(dims):
        target = gamma_target(np.repeat(template.a, p), np.repeat(template.b, p))
        entropy = parse_entropy(config.entropy, dim=p)

        def reference(ref, ref_b, ref_c):
            """The reference cloud and the same-law baseline d0**2."""
            d0 = metrics.w2_embedded(ref_b, ref_c, method=config.distance_method)
            return ref, d0.value**2

        def squared_distances(cloud, prepared):
            ref, base = prepared
            d = metrics.w2_embedded(cloud, ref, method=config.distance_method)
            return d.value**2, base

        _, sq = _checkpoint_distances(entropy, target, schedule, config,
                                      config.base_seed + 101 * p, plateau_ks,
                                      (7741 + p, 8641 + p, 8647 + p), reference,
                                      lambda cloud: cloud, squared_distances)
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
        record_steps=range(burn_in, n_steps + 1, record_every),
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
