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
exactly as SeedSequence spawning derives it, and consumes exactly ``dim``
normal draws per step.  Rejection retries draw ``dim`` normals per try from a
separate per-chain child stream, started at the chain's first rejection and
read in buffered blocks of ``_RETRY_CHUNK`` tries.  The Philox keys come from
numpy's SeedSequence hash, computed for all chains at once (``_philox_keys``),
and one Generator serves every stream of a call: its state is set to a row's
position before the row draws.  A stream drawn in several calls yields the
same numbers as one call, so neither the swapped state, the lazy start nor
the buffer changes a number, and trajectories are reproducible regardless of
how chains are batched or threaded.

The metric D2phi(x) is diagonal for every entropy here, so the noise term
is the coordinate-wise product of its square-root diagonal with xi.

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
    check_seed,
    parse_number,
)

MAX_RETRIES = 50
MAX_HALVINGS = 40
_NOISE_CHUNK = 4096  # steps of noise pre-generated per chain at a time
_NOISE_BYTES = 64 << 20  # cap on one chunk of noise across all chains
_RETRY_CHUNK = 8  # retry tries of noise pre-drawn per rejecting chain at a time

# numpy.random.SeedSequence's default pool size and hash constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
    """Run one chain from the stream of ``SeedSequence(seed)``; deterministic given the seed."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(
        check_seed(seed))
    # The retry stream is the SeedSequence's first child, as ss.spawn(1) would build it.
    return _run_chains(entropy, target, schedule, x0, n_steps,
                       ss.generate_state(2, np.uint64)[None],
                       _philox_keys(ss.entropy, ss.spawn_key, [0], pool_size=ss.pool_size),
                       record_every, burn_in, override_gate)[0]


def run_parallel_chains(entropy, target, schedule: StepSchedule, x0,
                        n_steps: int, base_seed, n_chains: int,
                        record_every: int = 1, burn_in: int = 0,
                        override_gate: bool = False) -> Trace:
    """Run independent chains into one Trace; bitwise identical to serial runs.

    Chain c (row c of the trace) runs from the stream of the c-th SeedSequence
    spawned from the base seed (from a SeedSequence base, its next unspawned
    child on; the base is advanced past them); the batch update applies the
    same elementwise arithmetic to every row, so thread or batch layout cannot
    change results.  ``x0`` of shape (1,) or (p,) starts every chain there;
    one of shape (n_chains, p) gives each chain its own start.
    """
    if n_chains < 1:
        raise InvalidParameters("need at least one chain")
    if isinstance(base_seed, np.random.SeedSequence):
        seed_entropy, spawn_key = base_seed.entropy, base_seed.spawn_key
        pool_size, first = base_seed.pool_size, base_seed.n_children_spawned
        # n_children_spawned is read-only: spawning is the only way to advance it.
        base_seed.spawn(n_chains)
    else:
        seed_entropy, spawn_key, pool_size, first = base_seed, (), _POOL_SIZE, 0
    children = np.arange(first, first + n_chains, dtype=np.uint64)
    # Chain c's retry stream is the first child of its SeedSequence.
    return _run_chains(entropy, target, schedule, x0, n_steps,
                       _philox_keys(seed_entropy, spawn_key, children, pool_size=pool_size),
                       _philox_keys(seed_entropy, spawn_key, children, (0,), pool_size),
                       record_every, burn_in, override_gate)


def _run_chains(entropy, target, schedule, x0, n_steps, keys, retry_keys, record_every,
                burn_in, override_gate) -> Trace:
    """Run one chain per row of ``keys``, all rows of one batch.

    Row c draws its noise from the Philox stream of ``keys[c]`` and its
    retries from that of ``retry_keys[c]``.
    """
    if record_every < 1 or burn_in < 0 or n_steps < 0:
        raise InvalidParameters("bad recording parameters")
    if entropy.dim != target.dim:
        raise InvalidParameters(
            f"dimension mismatch: entropy {entropy.name!r} is {entropy.dim}-d, "
            f"target {target.name!r} is {target.dim}-d"
        )
    _check_gate(entropy, target, schedule, override_gate)

    n_chains = len(keys)
    p = entropy.dim
    record_ks = range(burn_in, n_steps + 1, record_every)
    _check_record_memory(n_chains, len(record_ks), p)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((1,), (p,), (n_chains, p)):
        raise InvalidParameters(
            f"x0 must have shape (1,), ({p},) or ({n_chains}, {p}), not {x0.shape}")
    X = np.broadcast_to(x0, (n_chains, p)).copy()
    if not np.all(entropy.contains(X)):
        raise InvalidParameters("x0 must be strictly interior")
    Y = entropy.grad(X)

    retry = _RetryStreams(retry_keys, p)
    main = _PhiloxRows(keys)

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
        main.fill(range(n_chains), noise, keep=k + chunk < n_steps)
        for j in range(chunk):
            h = schedule.h_at(k + 1)
            gf = target.grad(X)
            # X passed a domain check: the x0 check or the acceptance test
            # in _try_invert.
            sq = entropy._hessian_sqrt_diag_unchecked(X)
            Y, X, rej = _advance_rows(entropy, Y, gf, sq, h, noise[:, j, :], retry)
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
    X0 = target.sample_exact(np.random.default_rng(check_seed(seed)), n_replicas)
    Y0 = entropy.grad(X0)
    if s == 0.0:
        return Y0, Y0.copy()
    trace = run_parallel_chains(entropy, target, constant_schedule(s / substeps), X0, substeps,
                                seed, n_replicas, burn_in=substeps, override_gate=True)
    return Y0, entropy.grad(trace.points[:, -1])


# ----------------------------------------------------------------- internals


def _philox_keys(entropy, spawn_key, children, suffix=(), pool_size=_POOL_SIZE) -> np.ndarray:
    """``(len(children), 2)`` uint64 Philox keys, one pass for all children.

    Row i equals ``SeedSequence(entropy, spawn_key=spawn_key + (children[i],)
    + suffix, pool_size=pool_size).generate_state(2, np.uint64)`` bit for
    bit.  Children differ only in their spawn-key words, so every hash
    constant, and every pool word mixed before a child's words, is one Python
    int for all of them; only the words from the child's on are uint32 arrays.
    """
    children = np.asarray(children, dtype=np.uint64)
    run = _uint32_words(entropy)
    # The spawn key is nonempty, so numpy zero-pads the run entropy to the pool size.
    head = run + [0] * (pool_size - len(run)) + _uint32_words(spawn_key)
    tail = _uint32_words(suffix)
    low = (children & _MASK32).astype(np.uint32)
    high = (children >> np.uint64(32)).astype(np.uint32)
    one_word = high == 0  # a child index below 2**32 is one word, others two
    keys = np.empty((children.size, 2), dtype=np.uint64)
    keys[one_word] = _seed_state_keys(head + [low[one_word]] + tail, pool_size)
    if not one_word.all():
        keys[~one_word] = _seed_state_keys(
            head + [low[~one_word], high[~one_word]] + tail, pool_size)
    return keys


def _uint32_words(seed) -> list:
    """numpy's little-endian uint32 words of an integer seed or a sequence of them."""
    if isinstance(seed, (int, np.integer)):
        n = int(check_seed(seed))
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    if isinstance(seed, np.ndarray):
        seed = seed.tolist()
    if not isinstance(seed, (list, tuple, range)):
        raise InvalidParameters(f"cannot seed a chain from {seed!r}")
    return [word for item in seed for word in _uint32_words(item)]


def _seed_state_keys(words, pool_size) -> np.ndarray:
    """SeedSequence pool mixing and ``generate_state(2, np.uint64)`` over ``words``.

    Each word is a Python int shared by every child or a uint32 array with
    one entry per child; ``len(words) > pool_size``.
    """
    def hashmix(value, hash_const, mult):
        value = value ^ hash_const
        hash_const = (hash_const * mult) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16), hash_const

    def mix(x, y):
        r = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
        return r ^ (r >> 16)

    hash_const = _INIT_A
    pool = []
    for word in words[:pool_size]:
        value, hash_const = hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                value, hash_const = hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = mix(pool[dst], value)
    for word in words[pool_size:]:
        for dst in range(pool_size):
            value, hash_const = hashmix(word, hash_const, _MULT_A)
            pool[dst] = mix(pool[dst], value)
    hash_const = _INIT_B
    state = []
    for i in range(4):
        value, hash_const = hashmix(pool[i % pool_size], hash_const, _MULT_B)
        state.append(np.asarray(value, dtype=np.uint64))
    # Little-endian pairs of uint32 words make the two uint64 key words.
    return np.stack([state[0] | (state[1] << np.uint64(32)),
                     state[2] | (state[3] << np.uint64(32))], axis=-1)


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

    A row is accepted when its inverted point lies in the guarded domain;
    every y outside the dual image inverts to a point outside the domain, so
    no dual check is needed.  Every map is elementwise, so inverting the
    rejected rows too leaves the accepted ones bit-identical to inverting
    them alone.
    """
    with np.errstate(all="ignore"):
        x_new = entropy._grad_conjugate_unchecked(y_new)
    return entropy.contains(x_new), x_new


def _advance_rows(entropy, Y, gf, sq, h, xi, retry):
    """One step for every row with the rejection/step-halving policy."""
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
        xi_b = retry.draw(bad)
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
