"""The HRLMC Markov chain.

One step maps x to

    y' = grad_phi(x) - h * grad_f(x) + sqrt(2 h) * D2phi(x)^(1/2) * xi
    x' = grad_phi_conjugate(y')

with xi a standard normal vector.  With the Euclidean entropy this is
exactly the classical unadjusted Langevin update
``x - h grad_f(x) + sqrt(2 h) xi``; the kernel keeps that expression shape so
the reduction is bit-for-bit.

Randomness contract, for both entry points (``run_parallel_chains`` and
``reference_chain``, which step through one loop): chain c of n, seeded by a
non-negative integer, owns the Philox stream of
``SeedSequence(seed).spawn(n)[c]`` and consumes exactly ``dim`` normal draws
per step.  Rejection retries draw ``dim`` normals per try from a separate
per-chain child stream, started at the chain's first rejection and
read in buffered blocks of ``_RETRY_CHUNK`` tries.  The Philox keys come from
numpy's SeedSequence hash, computed for all chains at once (``_philox_keys``
on ``seeds.generate_state``), and one Generator serves every stream of a
call: its state is set to a row's position before the row draws.  A stream
drawn in several calls yields the same numbers as one call, so neither the
swapped state, the lazy start nor the buffer changes a number, and
trajectories are reproducible regardless of how chains are batched or
threaded.

The metric D2phi(x) is diagonal for every entropy here, so the noise term
is the coordinate-wise product of its square-root diagonal with xi.

Per-run constants: only x, y and xi change between steps, so nothing else
is recomputed per step.  sqrt(2 h) comes from ``math.sqrt`` (correctly
rounded, as ``np.sqrt`` is) once per distinct h: once per run for a constant
schedule, once per step for a harmonic one, once per halving on retries.
The maps keep their own constants from construction (``MixedEntropy``'s
column indices and ``log((1-a)/a)``, ``gamma_target``'s ``1 - a``); the loop
calls the target gradient and the metric unchecked, as every x it holds
passed the domain check.  A step forms its first proposals inline and sends
only rejected rows to ``_retry_rows``.  Every proposal is accepted by one
predicate, ``entropy._contains_unchecked`` of its inverse (``_try_invert``),
which ``contains`` applies after validating its input.

Boundary policy: a proposed y' whose x' = grad_phi_conjugate(y') leaves
the guarded domain (non-finite, or inside the guard band) is rejected and
redrawn from the retry stream.  The dual image of every registered entropy
is an open product of half-lines or lines, and its inverse map sends every
y' outside that image to such an x', so this one check also rejects every
dual-domain exit (``test_try_invert_masks_rows_as_if_inverted_alone``
checks it).
A row gets ``MAX_RETRIES`` tries at h, then ``MAX_RETRIES`` tries at h/2,
h/4, and so on for up to ``MAX_HALVINGS`` halvings, for that step only.  A row
still rejected after the last try raises NumericalBreakdown.  Every failed
proposal counts as one rejection in the chain's total.  Rejections are not
rare at large steps, and each one conditions the Gaussian proposal on the
dual domain.  The criterion-10 sweep's seed-0 run at p=8 (Burg/Gamma(5,1),
h=0.2, 512 chains from x0=1, seed 808) has 1.12 rejections per chain-step
over steps 1-160 and 1.04 over steps 101-160.  The latter is the stationary
rate (E_pi[1/a])^p - 1 = 1.039 of the product of p one-dimensional
kernels, where a is a coordinate's acceptance probability; the excess over
the whole run comes from the chains still moving away from x0=1.  (A run's
first k steps do not depend on n_steps, so these are differences of the
rejection totals of 60-, 100- and 160-step runs: 38601, 59837, 91881.)
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .analysis import _check_dims, admissible_step_window, kappa_tilde
from .errors import (
    InadmissibleStepSize,
    InvalidParameters,
    NumericalBreakdown,
    Unavailable,
    check_allocation,
    parse_spec,
)
from .seeds import MASK32, POOL_SIZE, generate_state, int_words
from .target import exact_sample

MAX_RETRIES = 50
MAX_HALVINGS = 40
_NOISE_CHUNK = 4096  # steps of noise pre-generated per chain at a time
_NOISE_BYTES = 64 << 20  # cap on one chunk of noise across all chains
_RETRY_CHUNK = 8  # retry tries of noise pre-drawn per rejecting chain at a time


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


def constant_schedule(h: float) -> StepSchedule:
    return StepSchedule("constant", h=float(h))


def harmonic_schedule(a: float) -> StepSchedule:
    return StepSchedule("harmonic", a=float(a))


_SCHEDULE_KEYS = {"constant": "h", "harmonic": "a"}


def parse_schedule(spec: str) -> StepSchedule:
    """Build a schedule from ``constant:h=0.05`` or ``harmonic:a=0.3``."""
    head, fields = parse_spec(spec)
    key = _SCHEDULE_KEYS.get(head)
    if key is None or set(fields) != {key} or len(fields[key]) != 1:
        raise InvalidParameters(f"cannot parse schedule {spec!r}")
    return StepSchedule(head, **{key: fields[key][0]})


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


def run_parallel_chains(entropy, target, schedule: StepSchedule, x0,
                        n_steps: int, base_seed: int, n_chains: int,
                        override_gate: bool = False, record_steps=None) -> Trace:
    """Run independent chains into one Trace; bitwise identical to serial runs.

    Chain c (row c of the trace) runs from the stream of
    ``SeedSequence(base_seed).spawn(n_chains)[c]`` for a non-negative integer
    ``base_seed``; the batch update applies the same elementwise arithmetic
    to every row, so thread or batch layout cannot change results.  ``x0`` of
    shape (1,) or (p,) starts every chain there; one of shape (n_chains, p)
    gives each chain its own start, and None starts every chain at
    ``entropy.interior_point()``.

    The trace records every step from 0 to ``n_steps``, or exactly
    ``record_steps``: sorted, distinct integer steps in [0, ``n_steps``].
    Record j is then step ``record_steps[j]``, the same point, step size and
    rejection count as in an every-step trace, and only the recorded points
    take memory.  A ``range`` is checked by its ends and never listed.
    """
    _check_chain_seed(base_seed, n_chains)
    if n_steps < 0:
        raise InvalidParameters(f"n_steps must be at least 0, got {n_steps}")
    ks = range(n_steps + 1) if record_steps is None else _check_record_steps(record_steps, n_steps)
    children = np.arange(n_chains, dtype=np.uint32)
    # Chain c's retry stream is the first child of its SeedSequence.
    return _run_rows(entropy, target, schedule, x0, n_steps,
                     _philox_keys(base_seed, children), _philox_keys(base_seed, children, (0,)),
                     ks, override_gate)


def _check_record_steps(record_steps, n_steps):
    """``record_steps`` as a range or a list of ints, if sorted, distinct and in [0, n_steps].

    A range is kept and checked by its ends in O(1): it is sorted unless it
    descends through two or more steps.  Any other sequence is listed.
    """
    if isinstance(record_steps, range):
        steps, unsorted = record_steps, record_steps.step < 0 and len(record_steps[:2]) == 2
    else:
        try:
            steps = [operator.index(k) for k in record_steps]
        except TypeError:
            raise InvalidParameters("record_steps must be integers") from None
        unsorted = any(b <= a for a, b in zip(steps, steps[1:]))
    if unsorted:
        raise InvalidParameters("record_steps must be sorted and distinct")
    if steps and (steps[0] < 0 or steps[-1] > n_steps):
        raise InvalidParameters(f"record_steps must lie in [0, {n_steps}]")
    return steps


def _count(record_ks):
    """The number of ``record_ks``; a range's in integers, as ``len`` of a
    range of 2**63 or more elements raises ``OverflowError``."""
    if isinstance(record_ks, range):
        return max(0, -((record_ks.start - record_ks.stop) // record_ks.step))
    return len(record_ks)


def _check_chain_seed(base_seed, n_chains):
    """Refuse a seed that is not a non-negative integer, or an unkeyable chain count."""
    if not isinstance(base_seed, (int, np.integer)) or base_seed < 0:
        raise InvalidParameters(f"a seed must be a non-negative integer, got {base_seed!r}")
    # A child index is one uint32 word of the spawn key.
    if not 1 <= n_chains <= MASK32:
        raise InvalidParameters(f"need 1 to 2**32 - 1 chains, got {n_chains}")


def _run_rows(entropy, target, schedule, x0, n_steps, keys, retry_keys, record_ks,
              override_gate) -> Trace:
    """Run one chain per row of ``keys``, all rows of one batch.

    Row c draws its noise from the Philox stream of ``keys[c]`` and its
    retries from that of ``retry_keys[c]``.  The trace records the steps
    ``record_ks``, a sorted, distinct sequence of Python ints in [0, n_steps]
    (a range or a list), so the per-step record test compares ints and a
    range's length is known before anything is allocated.
    """
    _check_dims(entropy, target)
    _check_gate(entropy, target, schedule, override_gate)

    n_chains = len(keys)
    p = entropy.dim
    n_records = _count(record_ks)
    check_allocation(8 * n_chains * n_records * p,
                     f"recording {n_chains} chain(s) x {n_records} point(s) x {p} "
                     "coordinate(s)", "record fewer points (thin, burn-in) or run fewer chains")
    x0 = np.asarray(entropy.interior_point() if x0 is None else x0, dtype=float)
    if x0.shape not in ((1,), (p,), (n_chains, p)):
        raise InvalidParameters(
            f"x0 must have shape (1,), ({p},) or ({n_chains}, {p}), not {x0.shape}")
    X = np.broadcast_to(x0, (n_chains, p)).copy()
    if not np.all(entropy.contains(X)):
        raise InvalidParameters("x0 must be strictly interior")
    Y = entropy.grad(X)

    retry = _RetryStreams(retry_keys, p)
    main = _PhiloxRows(keys)

    rec_points = np.empty((n_chains, n_records, p))
    rec_h = np.zeros(n_records)
    rec_pos = 0
    if record_ks and record_ks[0] == 0:
        rec_points[:, 0, :] = X
        rec_pos = 1
    rejections = np.zeros(n_chains, dtype=np.int64)

    # Drawing a stream in several calls yields the same numbers as one call,
    # so the chunk length changes memory use but not the trajectories.
    steps_per_chunk = max(1, min(_NOISE_CHUNK, _NOISE_BYTES // (8 * n_chains * p)))
    grad_f, sqrt_metric = target._grad, entropy._hessian_sqrt_diag_unchecked
    h_root = root = None  # the step size whose sqrt(2 h) is ``root``
    k = 0
    while k < n_steps:
        chunk = min(steps_per_chunk, n_steps - k)
        noise = np.empty((n_chains, chunk, p))
        main.fill(range(n_chains), noise, keep=k + chunk < n_steps)
        for j in range(chunk):
            h = schedule.h_at(k + 1)
            if h != h_root:
                h_root, root = h, math.sqrt(2.0 * h)
            # X is a float array that passed a domain check: the x0 check or
            # the acceptance test in _try_invert.
            gf = grad_f(X)
            sq = sqrt_metric(X)
            y_new = Y - h * gf + root * (sq * noise[:, j, :])  # _propose's expression
            ok, x_new = _try_invert(entropy, y_new)
            if np.count_nonzero(ok) < n_chains:
                _retry_rows(entropy, Y, gf, sq, h, ok, y_new, x_new, retry, rejections)
            Y, X = y_new, x_new
            k += 1
            if rec_pos < n_records and record_ks[rec_pos] == k:
                rec_points[:, rec_pos, :] = X
                rec_h[rec_pos] = h
                rec_pos += 1

    # The points take the 8 * n_chains * n_records * p bytes check_allocation counts.
    steps = np.array(record_ks, dtype=np.int64)
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


def reference_chain(entropy, target, s: float, substeps: int, seed: int,
                    n_replicas: int = 1):
    """Stationary-start increments of the fine-step surrogate flow.

    Draws L0 from the exact sampler and advances the HRLMC iterate with step
    s / substeps; returns (grad_phi(L0), grad_phi(L_s)) for the increment
    test.  Replica c is chain c of ``run_parallel_chains`` at this seed, so
    it owns its noise and retry streams; the exact start is
    ``exact_sample(target, n_replicas, seed)``.  The seed and replica count
    are checked as ``run_parallel_chains`` checks them, at every s and
    before anything is drawn.
    """
    _check_chain_seed(seed, n_replicas)
    if not target.has_exact_sampler:
        raise Unavailable(f"{target.name}: reference chain needs an exact sampler")
    if substeps < 100:
        raise InvalidParameters("substeps must be at least 100")
    if s < 0.0:
        raise InvalidParameters("time span must be nonnegative")
    X0 = exact_sample(target, n_replicas, seed)
    Y0 = entropy.grad(X0)
    if s == 0.0:
        return Y0, Y0.copy()
    trace = run_parallel_chains(entropy, target, constant_schedule(s / substeps), X0, substeps,
                                seed, n_replicas, override_gate=True, record_steps=[substeps])
    return Y0, entropy.grad(trace.points[:, -1])


# ----------------------------------------------------------------- internals


def _philox_keys(seed, children, suffix=()) -> np.ndarray:
    """``(len(children), 2)`` uint64 Philox keys, one pass for all children.

    Row i equals ``generate_state(2, np.uint64)`` of child ``children[i]``
    of ``SeedSequence(seed)`` (with ``suffix=(0,)``, of that child's first
    child) bit for bit, for an integer seed and child indices below 2**32.
    Children differ only in their spawn-key word, the one array word.
    """
    words = int_words(seed)
    # The spawn key is nonempty, so numpy zero-pads the seed's words to the pool size.
    words += [0] * (POOL_SIZE - len(words))
    return generate_state(words + [np.asarray(children, dtype=np.uint32), *suffix], 2)


def _propose(Y, gf, sq, h, root, xi):
    """The proposal y' at step size h, given ``root`` = sqrt(2 h)."""
    return Y - h * gf + root * (sq * xi)


def _try_invert(entropy, y_new):
    """(acceptance mask, inverted points); never raises or warns on bad rows.

    A row is accepted when its inverted point lies in the guarded domain;
    every y outside the dual image inverts to a point outside the domain, so
    no dual check is needed.  Every map is elementwise, so inverting the
    rejected rows too leaves the accepted ones bit-identical to inverting
    them alone.  Only the inversion runs under ``errstate``: an overflow in
    forming a proposal still warns.
    """
    with np.errstate(all="ignore"):
        x_new = entropy._grad_conjugate_unchecked(y_new)
    return entropy._contains_unchecked(x_new), x_new


def _retry_rows(entropy, Y, gf, sq, h, ok, y_new, x_new, retry, rejections):
    """Redraw the rows ``ok`` rejects into ``y_new`` and ``x_new``, counting into ``rejections``.

    Each try proposes for all still-rejected rows at once; every row draws
    from its own retry stream.  Those rows have all failed the same number
    of tries, so one step size serves the round: MAX_RETRIES tries at h,
    then MAX_RETRIES at each halving (x0.5 is exact).
    """
    bad = np.flatnonzero(~ok)
    for t in range(MAX_RETRIES * (MAX_HALVINGS + 1)):
        rejections[bad] += 1
        xi_b = retry.draw(bad)
        if t % MAX_RETRIES == 0:
            h_t = h * 0.5 ** (t // MAX_RETRIES)
            root_t = math.sqrt(2.0 * h_t)
        y_b = _propose(Y[bad], gf[bad], sq[bad], h_t, root_t, xi_b)
        ok_b, x_b = _try_invert(entropy, y_b)
        good = bad[ok_b]
        y_new[good] = y_b[ok_b]
        x_new[good] = x_b[ok_b]
        bad = bad[~ok_b]
        if bad.size == 0:
            return
    raise NumericalBreakdown(
        f"chain row {bad[0]}: no admissible step after {MAX_HALVINGS} halvings"
    )


class _PhiloxRows:
    """Row c reads the Philox stream of key ``keys[c]`` from counter 0.

    One Generator serves every row: before a row draws, its stream position
    is loaded into the generator's state.  A position is read back only when
    the row will draw again (``keep``); reading it costs more than loading it.
    """

    def __init__(self, keys):
        self._keys = keys.tolist()  # row c's key as two ints
        self._saved = [None] * len(keys)  # row c's state after its last kept draw
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        # A fresh Philox(key=k) state, k filled in per row.  Plain lists load
        # faster than the arrays the state getter returns.
        self._start = {
            "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }

    def fill(self, rows, out, keep):
        """Draw ``out[c]``'s normals from row c's stream for each c in ``rows``."""
        bitgen, saved, start = self._bitgen, self._saved, self._start
        draw = self._gen.standard_normal
        shape = out.shape[1:]
        for c in rows:
            state = saved[c]
            if state is None:
                start["state"]["key"] = self._keys[c]
                state = start
            bitgen.state = state
            draw(shape, out=out[c])
            if keep:
                saved[c] = bitgen.state


class _RetryStreams:
    """Per-row retry normals: row c reads the Philox stream of ``keys[c]`` in order.

    A row's stream starts at its first draw, and its normals come from a
    buffer of ``_RETRY_CHUNK`` pre-drawn tries refilled from the same stream,
    so most tries are one gather instead of a generator call per row.
    """

    def __init__(self, keys, p):
        self._streams = _PhiloxRows(keys)
        self._buf = np.empty((len(keys), _RETRY_CHUNK, p))
        # Next unread try per row; _RETRY_CHUNK marks an empty buffer.
        self._next = np.full(len(keys), _RETRY_CHUNK, dtype=np.intp)

    def draw(self, rows) -> np.ndarray:
        """The next try's ``(len(rows), p)`` normals; ``rows`` are distinct."""
        spent = rows[self._next[rows] == self._buf.shape[1]]
        self._streams.fill(spent.tolist(), self._buf, keep=True)
        self._next[spent] = 0
        out = self._buf[rows, self._next[rows]]
        self._next[rows] += 1
        return out


def _gate_window(entropy, target):
    m, M, delta, _, _ = target.declared_for(entropy)
    if entropy.kappa_declared is None or None in (m, M, delta):
        return None
    return admissible_step_window(m, M, kappa_tilde(entropy.kappa_declared, m, M, delta))


def _check_gate(entropy, target, schedule, override_gate):
    if override_gate or schedule.kind != "constant":
        return
    window = _gate_window(entropy, target)
    if window is None:
        return
    if not schedule.h < window:
        raise InadmissibleStepSize(schedule.h, window)
