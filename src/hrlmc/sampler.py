"""The HRLMC Markov chain.

One step maps x to

    y' = grad_phi(x) - h * grad_f(x) + sqrt(2 h) * D2phi(x)^(1/2) * xi
    x' = grad_phi_conjugate(y')

with xi a standard normal vector.  With the Euclidean entropy this is
exactly the classical unadjusted Langevin update
``x - h grad_f(x) + sqrt(2 h) xi``; the kernel keeps that expression shape so
the reduction is bit-for-bit.

Randomness contract, for every entry point (``run_chain``,
``run_parallel_chains`` and ``reference_chain``, which all step through one
loop): every chain owns a Philox stream derived from (base_seed, chain index)
through SeedSequence spawning and consumes exactly ``dim`` normal draws per
step.  Rejection retries draw from a separate per-chain child stream, so
trajectories are reproducible regardless of how chains are batched or
threaded.

The metric D2phi(x) is diagonal for every entropy here, so the noise term
is the coordinate-wise product of its square-root diagonal with xi.

Boundary policy: the dual image of every registered entropy is an open
product of half-lines or lines.  A proposed y' that exits it (or whose x'
lands in the domain guard band) is rejected and redrawn from the retry
stream: ``MAX_RETRIES`` tries at h, then ``MAX_RETRIES`` tries at h/2, h/4,
and so on for up to ``MAX_HALVINGS`` halvings, for that step only.  A row
still rejected after the last try raises NumericalBreakdown.  Every failed
proposal counts as one rejection in the chain's total.  Rejections are not
rare at large steps: the criterion-10 sweep (Burg, h=0.2, p=8) has about
1.14 rejections per chain-step, and each one conditions the Gaussian
proposal on the dual domain.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .analysis import admissible_step_window, kappa_tilde
from .errors import (
    InadmissibleStepSize,
    InvalidParameters,
    NumericalBreakdown,
    Unavailable,
    parse_number,
)

MAX_RETRIES = 50
MAX_HALVINGS = 40
_NOISE_CHUNK = 4096  # steps of noise pre-generated per chain at a time
_NOISE_BYTES = 64 << 20  # cap on one chunk of noise across all chains


@dataclass(frozen=True)
class StepSchedule:
    """Constant h_k = h or harmonic h_k = a / k (k starting at 1)."""

    kind: str
    h: float | None = None
    a: float | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.h is None or not 0.0 < self.h < math.inf:
                raise InvalidParameters("constant schedule needs a finite h > 0")
        elif self.kind == "harmonic":
            if self.a is None or not 0.0 < self.a < math.inf:
                raise InvalidParameters("harmonic schedule needs a finite a > 0")
        else:
            raise InvalidParameters(f"unknown schedule kind {self.kind!r}")

    def h_at(self, k: int) -> float:
        if self.kind == "constant":
            return float(self.h)
        return float(self.a) / float(k)

    def label(self) -> str:
        if self.kind == "constant":
            return f"constant:h={self.h:g}"
        return f"harmonic:a={self.a:g}"


def constant_schedule(h: float) -> StepSchedule:
    return StepSchedule("constant", h=float(h))


def harmonic_schedule(a: float) -> StepSchedule:
    return StepSchedule("harmonic", a=float(a))


def parse_schedule(spec: str) -> StepSchedule:
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    key, _, val = rest.partition("=")
    if head == "constant" and key == "h":
        return constant_schedule(parse_number(val))
    if head == "harmonic" and key == "a":
        return harmonic_schedule(parse_number(val))
    raise InvalidParameters(f"cannot parse schedule {spec!r}")


@dataclass
class Trajectory:
    """Recorded points of one chain, with the step sizes that produced them."""

    points: np.ndarray       # (n_recorded, dim)
    steps: np.ndarray        # (n_recorded,) step indices k
    step_sizes: np.ndarray   # (n_recorded,) h_k used to reach each point (0 at k=0)
    rejections: int


@dataclass(frozen=True)
class Trace:
    """Recorded points of every chain in one buffer; ``trace[c]`` views chain c.

    Row c of ``points`` and ``rejections`` is chain c; all chains share the
    read-only ``steps`` and ``step_sizes``.
    """

    points: np.ndarray       # (n_chains, n_recorded, dim)
    steps: np.ndarray        # (n_recorded,) step indices k
    step_sizes: np.ndarray   # (n_recorded,) h_k used to reach each point (0 at k=0)
    rejections: np.ndarray   # (n_chains,) int64 failed proposals per chain

    def __len__(self) -> int:
        return self.points.shape[0]

    def __getitem__(self, c) -> Trajectory:
        # Past the last chain numpy raises IndexError, which ends iteration.
        return Trajectory(self.points[c], self.steps, self.step_sizes, int(self.rejections[c]))


def run_chain(entropy, target, schedule: StepSchedule, x0, n_steps: int, seed,
              record_every: int = 1, burn_in: int = 0,
              override_gate: bool = False) -> Trajectory:
    """Run a single chain; deterministic given the seed."""
    return _run_chains(entropy, target, schedule, x0, n_steps, [_seed_sequence(seed)],
                       record_every, burn_in, override_gate)[0]


def run_parallel_chains(entropy, target, schedule: StepSchedule, x0,
                        n_steps: int, base_seed, n_chains: int,
                        record_every: int = 1, burn_in: int = 0,
                        override_gate: bool = False) -> Trace:
    """Run independent chains into one Trace; bitwise identical to serial runs.

    Chain c (row c of the trace) runs from the c-th SeedSequence spawned from
    the base seed; the batch update applies the same elementwise arithmetic
    to every row, so thread or batch layout cannot change results.
    """
    if n_chains < 1:
        raise InvalidParameters("need at least one chain")
    return _run_chains(entropy, target, schedule, x0, n_steps,
                       _seed_sequence(base_seed).spawn(n_chains),
                       record_every, burn_in, override_gate)


def _seed_sequence(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def _retry_seedseq(ss: np.random.SeedSequence) -> np.random.SeedSequence:
    # Same child as ss.spawn(1)[0] on a fresh SeedSequence, without mutating
    # the caller's object (spawning twice would silently shift the stream).
    return np.random.SeedSequence(
        entropy=ss.entropy, spawn_key=tuple(ss.spawn_key) + (0,), pool_size=ss.pool_size
    )


def _run_chains(entropy, target, schedule, x0, n_steps, seedseqs, record_every, burn_in,
                override_gate) -> Trace:
    """Run one chain per SeedSequence, all rows of one batch."""
    if record_every < 1 or burn_in < 0 or n_steps < 0:
        raise InvalidParameters("bad recording parameters")
    if entropy.dim != target.dim:
        raise InvalidParameters(
            f"dimension mismatch: entropy {entropy.name!r} is {entropy.dim}-d, "
            f"target {target.name!r} is {target.dim}-d"
        )
    _check_gate(entropy, target, schedule, override_gate)

    n_chains = len(seedseqs)
    p = entropy.dim
    record_ks = range(burn_in, n_steps + 1, record_every)
    _check_record_memory(n_chains, len(record_ks), p)
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 and x0.shape != (n_chains, p):
        raise InvalidParameters(f"x0 must have shape ({n_chains}, {p})")
    X = np.broadcast_to(x0, (n_chains, p)).copy()
    if not np.all(entropy.contains(X)):
        raise InvalidParameters("x0 must be strictly interior")
    Y = entropy.grad(X)

    retry_rngs = [np.random.Generator(np.random.Philox(_retry_seedseq(ss))) for ss in seedseqs]
    main_rngs = [np.random.Generator(np.random.Philox(ss)) for ss in seedseqs]

    rec_points = np.empty((n_chains, len(record_ks), p))
    rec_h = np.zeros(len(record_ks))
    rec_pos = 0
    if record_ks and record_ks[0] == 0:
        rec_points[:, 0, :] = X
        rec_pos = 1
    rejections = np.zeros(n_chains, dtype=np.int64)

    # Drawing a stream in several calls yields the same numbers as one call,
    # so the chunk length changes memory use but not the trajectories.
    steps_per_chunk = max(1, min(_NOISE_CHUNK, _NOISE_BYTES // (8 * n_chains * p)))
    k = 0
    while k < n_steps:
        chunk = min(steps_per_chunk, n_steps - k)
        noise = np.empty((n_chains, chunk, p))
        for c, g in enumerate(main_rngs):
            g.standard_normal((chunk, p), out=noise[c])
        for j in range(chunk):
            h = schedule.h_at(k + 1)
            gf = target.grad(X)
            # X passed a domain check: the x0 check or the acceptance test
            # in _try_invert.
            sq = entropy._hessian_sqrt_diag_unchecked(X)
            Y, X, rej = _advance_rows(entropy, Y, gf, sq, h, noise[:, j, :], retry_rngs)
            rejections += rej
            k += 1
            if rec_pos < len(record_ks) and record_ks[rec_pos] == k:
                rec_points[:, rec_pos, :] = X
                rec_h[rec_pos] = h
                rec_pos += 1

    # The points take the 8 * n_chains * n_records * p bytes _check_record_memory counts.
    steps = np.arange(burn_in, n_steps + 1, record_every, dtype=np.int64)
    steps.flags.writeable = False
    rec_h.flags.writeable = False
    return Trace(rec_points, steps, rec_h, rejections)


def largest_admissible_a(entropy, target) -> float:
    """Largest harmonic coefficient whose first step passes the gate."""
    window = _gate_window(entropy, target)
    if window is None:
        raise Unavailable("gate window needs declared kappa, m, M, delta")
    if window <= 0.0:
        raise InadmissibleStepSize(0.0, window)
    return float(np.nextafter(window, 0.0))


def reference_chain(entropy, target, s: float, substeps: int, seed,
                    n_replicas: int = 1):
    """Stationary-start increments of the fine-step surrogate flow.

    Draws L0 from the exact sampler and advances the HRLMC iterate with step
    s / substeps; returns (grad_phi(L0), grad_phi(L_s)) for the increment
    test.  Replica c is chain c of ``run_parallel_chains`` at this seed, so
    it owns its noise and retry streams; the exact start draws from
    ``default_rng(seed)``.
    """
    if not target.has_exact_sampler:
        raise Unavailable(f"{target.name}: reference chain needs an exact sampler")
    if substeps < 100:
        raise InvalidParameters("substeps must be at least 100")
    if s < 0.0:
        raise InvalidParameters("time span must be nonnegative")
    X0 = target.sample_exact(np.random.default_rng(seed), n_replicas)
    Y0 = entropy.grad(X0)
    if s == 0.0:
        return Y0, Y0.copy()
    trace = run_parallel_chains(entropy, target, constant_schedule(s / substeps), X0, substeps,
                                seed, n_replicas, burn_in=substeps, override_gate=True)
    return Y0, entropy.grad(trace.points[:, -1])


# ----------------------------------------------------------------- internals


def _check_record_memory(n_chains, n_records, p):
    """Refuse a run whose recorded points alone exceed physical memory."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):  # no sysconf on this platform
        return
    need = 8 * n_chains * n_records * p
    if need > physical:
        raise InvalidParameters(
            f"recording {n_chains} chain(s) x {n_records} point(s) x {p} coordinate(s) "
            f"needs {need / 2**30:.1f} GiB, more than the {physical / 2**30:.1f} GiB of "
            "physical memory; record fewer points (thin, burn-in) or run fewer chains"
        )


def _propose(Y, gf, sq, h, xi):
    return Y - h * gf + np.sqrt(2.0 * h) * (sq * xi)


def _try_invert(entropy, y_new):
    """(acceptance mask, inverted points); never raises or warns on bad rows.

    Every map is elementwise, so inverting the rejected rows too leaves the
    accepted ones bit-identical to inverting them alone.
    """
    with np.errstate(all="ignore"):
        x_new = entropy._grad_conjugate_unchecked(y_new)
    return entropy.dual_contains(y_new) & entropy.contains(x_new), x_new


def _advance_rows(entropy, Y, gf, sq, h, xi, retry_rngs):
    """One step for every row with the rejection/step-halving policy."""
    p = Y.shape[-1]
    y_new = _propose(Y, gf, sq, h, xi)
    ok, x_new = _try_invert(entropy, y_new)
    rejections = np.zeros(Y.shape[0], dtype=np.int64)
    if ok.all():
        return y_new, x_new, rejections

    # Each try proposes for all still-rejected rows at once; every row draws
    # from its own retry stream.  Those rows have all failed the same number
    # of tries, so one step size serves the round: MAX_RETRIES tries at h,
    # then MAX_RETRIES at each halving (x0.5 is exact).
    bad = np.flatnonzero(~ok)
    for t in range(MAX_RETRIES * (MAX_HALVINGS + 1)):
        rejections[bad] += 1
        xi_b = np.concatenate([retry_rngs[c].standard_normal((1, p)) for c in bad])
        h_t = h * 0.5 ** (t // MAX_RETRIES)
        y_b = _propose(Y[bad], gf[bad], sq[bad], h_t, xi_b)
        ok_b, x_b = _try_invert(entropy, y_b)
        good = bad[ok_b]
        y_new[good] = y_b[ok_b]
        x_new[good] = x_b[ok_b]
        bad = bad[~ok_b]
        if bad.size == 0:
            return y_new, x_new, rejections
    raise NumericalBreakdown(
        f"chain row {bad[0]}: no admissible step after {MAX_HALVINGS} halvings"
    )


def _gate_window(entropy, target):
    # Declared (m, M, delta) are relative to the target's paired entropy;
    # the gate is meaningless for any other pairing.
    if entropy.name != target.paired_entropy:
        return None
    if entropy.kappa_declared is None or not target.constants_declared():
        return None
    kappa = entropy.kappa_declared
    if not math.isfinite(kappa):
        return 0.0
    kt = kappa_tilde(kappa, target.m, target.M, target.delta)
    if kt * kt >= 2.0 * target.m:
        return 0.0
    return admissible_step_window(target.m, target.M, kt)


def _check_gate(entropy, target, schedule, override_gate):
    if override_gate or schedule.kind != "constant":
        return
    window = _gate_window(entropy, target)
    if window is None:
        return
    if not schedule.h < window:
        raise InadmissibleStepSize(schedule.h, window)
