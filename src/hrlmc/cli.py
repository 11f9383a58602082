"""Command-line interface.

Subcommands: sample, distance, check, bound, experiment, sweep.  All
randomness flows from --seed / config seeds; re-running any command with the
same arguments writes byte-identical output.  Exit codes: 0 success, 1
invalid input or out of memory, 2 assumption-gate failure, 3 numerical
breakdown.  ``hrlmc sample`` formats a long trace CSV in workers forked by
``workers.forked``, which flushes, forks, and kills and reaps them; a worker
that fails to start costs time, not output.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import io
import json
import os
import stat
import sys
import warnings

import numpy as np

from . import analysis, metrics, workers
from .entropy import parse_entropy
from .errors import (
    Divergent,
    EpsOutOfRange,
    HrlmcError,
    InadmissibleRegime,
    InadmissibleStepSize,
    InvalidParameters,
    NumericalBreakdown,
    StepOutOfWindow,
    check_allocation,
    parse_numbers,
)
from .experiments import ExperimentConfig, _fmt, run_convergence_experiment, run_dimension_sweep
from .sampler import constant_schedule, parse_schedule, run_parallel_chains
from .target import parse_target

_GATE_ERRORS = (InadmissibleStepSize, InadmissibleRegime, StepOutOfWindow, EpsOutOfRange)
_BREAKDOWN_ERRORS = (NumericalBreakdown, Divergent)
# Rows per block of a one-coordinate trace; a p-coordinate block holds
# max(1, _CSV_ROWS // p) rows, so every block formats about _CSV_ROWS values.
_CSV_ROWS = 4096
# Blocks per forked writer process.  At the ~40 MiB RSS of a sample call a
# fork takes ~2.6 ms to reach the child and ~4 ms with the reap, and a block
# ~1.4 ms to format (2-vCPU Xeon): a worker taking half of n blocks pays for
# itself from n ~ 6, and 16 also covers its pipe copies and page faults.
_FORK_BLOCKS = 16


def _is_stdout(path) -> bool:
    return path in (None, "", "-")


def _cannot_write(path, err) -> InvalidParameters:
    return InvalidParameters(f"cannot write {path}: {err.strerror or err}")


def _check_output(path):
    """Refuse, before any work, an output path under a missing directory or that is a directory.

    Nothing is created, so a run that fails later still leaves no file;
    ``_output`` opening the file after the run stays the check for permissions.
    """
    if _is_stdout(path):
        return
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as err:
        raise _cannot_write(path, err) from err


@contextlib.contextmanager
def _output(path):
    """The output stream as a context manager: stdout for None, ``""`` or ``"-"``, else ``path``.

    A file that cannot be opened, written, flushed or closed is invalid input.
    On a broken stdout pipe, stdout is pointed at ``os.devnull``, so that
    shutdown writes nothing more (the Python docs' note on SIGPIPE).
    """
    stdout = _is_stdout(path)
    try:
        with contextlib.nullcontext(sys.stdout) if stdout else open(path, "w") as fh:
            yield fh
            fh.flush()
    except OSError as err:
        if stdout and isinstance(err, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _cannot_write("stdout" if stdout else path, err) from err


def _read_input(path) -> str:
    """The text of an input file; one that cannot be read is invalid input."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as err:
        raise InvalidParameters(f"cannot read {path}: {err.strerror or err}") from err


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# "%.17g" of float64 values in numpy integer arithmetic.  %g prints a finite
# v != 0 whose decimal exponent X (that of v rounded to 17 significant digits)
# lies in [-4, 16] in fixed notation, from the digits D = round(|v| * 10**(16 - X)):
# the point follows digit X, or "0." and -X - 1 zeros come before the digits
# for X < 0, and trailing zeros after the point are dropped, then a trailing
# point.  The fast path takes X in [-4, 15].  With |v| = M * 2**(e - 53) from
# frexp and s = 16 - X in [1, 20], D rounds M * 5**s * 2**(s + e - 53) half
# to even, as CPython's correctly rounded conversion does; M < 2**53 and
# 5**s < 2**47, so the product fits two uint64 words.  Every other value
# (0, -0, subnormals, |v| < 1e-4, the top decades, inf and nan) is formatted
# by "%.17g" itself, and so is a value whose D falls outside [10**16, 10**17):
# next to a power of ten floor(log10) can be one off, and rounding to 17
# digits can reach the next power.
#
# A value's cell is 40 NUL-padded bytes, five little-endian uint64 words
# (``_WORD``, whatever the host's byte order):
# byte 0 holds the sign and bytes 1-5 the "0.000" of X < 0; digit j sits in
# byte 6 + 2j and the point, if it follows digit j, in byte 7 + 2j.  Word 0
# holds digit 0, word w = 1..4 digits 4w - 3 to 4w; byte 39, after digit 16,
# is left NUL for the caller's separator.
_CELL = 40
_WORD = np.dtype("<u8")
_POW5 = np.uint64(5) ** np.arange(21, dtype=np.uint64)
_POW5_HI, _POW5_LO = _POW5 >> 32, _POW5 & 0xFFFFFFFF


@functools.cache  # built on first use, so processes that write no trace skip it
def _cell_tables():
    """``groups``: word w = 1..4 of each 4-digit group; ``masks``: words by (last, X, sign).

    ``groups[w - 1, g]`` spreads the digits of g over the even bytes and keeps
    in byte 7 (a point slot) the cell index 4w - 4 + i of its last nonzero
    digit i, or 0 for g = 0.  Column ``(last * 20 + X + 4) * 2 + negative`` of
    ``masks`` holds word 0 without digit 0, then the masks of words 1-4 that
    keep digits 0..last, then the point byte of words 1-4.
    """
    g = np.arange(10_000, dtype=np.int16)
    digits = (g[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
    groups = np.zeros((4, 10_000, 8), dtype=np.uint8)
    groups[:, :, ::2] = digits + ord("0")
    last_in_group = (4 - np.argmax(digits[:, ::-1] != 0, axis=1)).astype(np.uint8)
    groups[:, :, 7] = (last_in_group + np.arange(0, 16, 4, dtype=np.uint8)[:, None]) * (g > 0)

    last, x, negative = np.ix_(np.arange(17), np.arange(-4, 16), np.arange(2))
    shape = (17, 20, 2, _CELL)
    marks = np.zeros(shape, dtype=np.uint8)  # sign, "0.000" and point
    marks[..., 0] = np.where(negative, ord("-"), 0)
    for i, char in enumerate(b"0.000"):
        marks[..., 1 + i] = np.where(x <= -max(i, 1), char, 0)
    for j in range(16):  # the point follows digit X = j if a digit after it is kept
        marks[j + 1:, j + 4, :, 7 + 2 * j] = ord(".")
    keep = np.zeros(shape, dtype=np.uint8)
    keep[..., 6::2] = np.where(np.arange(17) <= last[..., None], 0xFF, 0)
    words = np.concatenate([marks[..., :8], keep[..., 8:], marks[..., 8:]], axis=-1)
    return groups.view(_WORD)[..., 0], words.view(_WORD).reshape(680, 9).T.copy()


def _digits17(m, e, x):
    """round-half-even(m * 2**(e - 53) * 10**(16 - x)), exactly, for uint64 m < 2**53."""
    s = 16 - x
    ph, pl = _POW5_HI.take(s), _POW5_LO.take(s)
    # The product m * 5**s = hi * 2**64 + lo from 32-bit halves.
    mh, ml = m >> 32, m & 0xFFFFFFFF
    ll = ml * pl
    mid = ml * ph + mh * pl + (ll >> 32)
    lo = (mid << 32) | (ll & 0xFFFFFFFF)
    hi = mh * ph + (mid >> 32)
    t = s + e - 53
    # t >= 0 only where the product is below 2**60, so hi is 0 there.
    up = np.maximum(t, 0).astype(np.uint64)
    k = np.maximum(-t, 1).astype(np.uint64)
    q = (hi << (64 - k)) | (lo >> k)
    rest = lo & ((np.uint64(1) << k) - 1)
    half = np.uint64(1) << (k - 1)
    q += (rest > half) | ((rest == half) & ((q & 1) == 1))
    return np.where(t >= 0, lo << up, q)


def _divmod(a, c):
    """``np.divmod(a, c)`` of non-negative int64 ``a``; numpy's ``a // c`` is the fast part."""
    q = a // c
    return q, a - q * c


def _format_17g(values):
    """The ``"%.17g" % v`` cell of each float64 v, as (5, n) ``_WORD`` planes."""
    groups, masks = _cell_tables()
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e16)  # not nan, inf, 0 or subnormal
    a[~fast] = 1.0
    x = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int64)
    mantissa, e = np.frexp(a)
    m = (mantissa * 2.0**53).astype(np.uint64)
    d = _digits17(m, e, x)
    slow = np.flatnonzero(~fast | (d < 10**16) | (d >= 10**17))
    d[slow] = 10**16
    x[slow] = 0

    # D = lead * 10**16 + four 4-digit groups.
    high, low = _divmod(d.view(np.int64), 10**8)
    lead, high = _divmod(high, 10**8)
    words = np.empty((5, len(d)), dtype=_WORD)
    for w, g in enumerate((*_divmod(high, 10**4), *_divmod(low, 10**4)), start=1):
        groups[w - 1].take(g, out=words[w])
    # %g keeps the digits up to the last nonzero one and at least up to X.
    last = np.maximum(np.maximum.reduce(words[1:] >> 56).view(np.int64), x)
    key = (last * 20 + x + 4) * 2 + np.signbit(values)
    # One 1-d take per table row costs less than a 2-d fancy index.
    for w in range(1, 5):
        words[w] &= masks[w].take(key)
        words[w] |= masks[w + 4].take(key)
    words[0] = masks[0].take(key) | (lead.view(np.uint64) + ord("0")) << 48
    text = ["%.17g" % v for v in values[slow].tolist()]
    words[:, slow] = np.array(text, dtype=f"S{_CELL}").view(_WORD).reshape(-1, 5).T
    return words


def _write_trace_csv(fh, trace):
    """Write the ``chain,step,h,x_1..x_p`` trace, about ``_CSV_ROWS`` values per write.

    The rows run chain after chain, so a block may end one chain and start the
    next.  A block is one NUL-padded ``_WORD`` matrix with a row per trace row:
    the ``chain,`` and ``step,h,`` prefix (every chain shares its recorded
    steps and step sizes) in the first words, then the ``_format_17g`` cell of
    each coordinate with its separator in its last byte.  Dropping the NULs
    leaves the text, whose floats are ``format(v, ".17g")`` of every value as
    ``_fmt`` writes them, including ``inf``, ``nan`` and ``-0``.

    ``_write_blocks`` writes the blocks in order, whichever process formats
    them, so the bytes do not depend on the number of processes.
    """
    n_chains, n_records, p = trace.points.shape
    fh.write("chain,step,h," + ",".join(f"x_{j + 1}" for j in range(p)) + "\n")
    # One _fmt per distinct step size, told apart by bits: -0.0 == 0.0 as floats.
    bits, which = np.unique(trace.step_sizes.view(np.uint64), return_inverse=True)
    h_text = [_fmt(h) for h in bits.view(np.float64).tolist()]
    steps = [f"{k},{h_text[i]}," for k, i in zip(trace.steps.tolist(), which.tolist())]
    chains = [f"{c}," for c in range(n_chains)]
    wc = len(chains[-1])
    n_prefix = -(-(wc + max(map(len, steps), default=0)) // 8)  # uint64 words per row
    # The chain text in bytes [0, wc) and the step text after it, so a row's
    # prefix is the OR of the two.
    text = np.array(chains + ["\0" * wc + s for s in steps], dtype=f"S{8 * n_prefix}")
    chain_words, step_words = np.split(text.view(_WORD).reshape(-1, n_prefix), [n_chains])
    separators = np.full(p, ord(","), dtype=np.uint64)
    separators[-1] = ord("\n")
    separators <<= 56  # byte 39 of a cell
    points = trace.points.reshape(-1, p)
    rows = max(1, _CSV_ROWS // p)
    matrix = np.empty((min(rows, len(points)), n_prefix + 5 * p), dtype=_WORD)

    def block_bytes(start):
        block = matrix[:len(points) - start]
        stop = start + len(block)
        for c in range(start // n_records, (stop - 1) // n_records + 1):
            r0, r1 = max(start, c * n_records), min(stop, (c + 1) * n_records)
            for w in range(n_prefix):  # 1-d strided passes cost less than one 2-d pass
                np.bitwise_or(step_words[r0 - c * n_records:r1 - c * n_records, w],
                              chain_words[c, w], out=block[r0 - start:r1 - start, w])
        words = _format_17g(points[start:stop].ravel()).reshape(5, len(block), p)
        words[4] |= separators
        cells = block[:, n_prefix:].reshape(len(block), p, 5)
        for w in range(5):
            cells[:, :, w] = words[w]
        return block.tobytes().translate(None, b"\0")

    _write_blocks(fh, block_bytes, range(0, len(points), rows))


def _write_blocks(fh, block_bytes, starts):
    """Write ``block_bytes(start)`` of each start to ``fh`` in order.

    ``workers.forked`` starts one worker per ``_FORK_BLOCKS`` blocks, and of
    this process (j = 0) and the W workers, process j formats the blocks b
    with b mod (W + 1) = j.  A worker reads the trace through pages it shares
    with this process and sends each block, length-prefixed, down its pipe,
    so each process holds one block at a time; one pickle at the end, as a
    distance worker sends, would be ~15 MB of text, and a child's peak RSS
    counts as the run's.  This process formats the rest of a worker's blocks
    after EOF or a short read, and every block of one that never started.
    """
    def child(j, n, out):
        for start in starts[j::n]:
            data = block_bytes(start)
            out.write(len(data).to_bytes(8, "little"))
            out.write(data)
            out.flush()

    with workers.forked(len(starts) // _FORK_BLOCKS, child, fh) as started:
        n = len(started) + 1
        for b, start in enumerate(starts):
            worker, data = started[b % n - 1] if b % n else None, b""
            if worker:
                # A length is never split: a short one is b"", EOF, as is every later read.
                size = int.from_bytes(worker.reply.read(8), "little")
                data = worker.reply.read(size)
                if len(data) < size:
                    data = b""
            fh.write((data or block_bytes(start)).decode("ascii"))


def _cmd_sample(args) -> int:
    """Run the chains, then stream their trace CSV to ``--out`` (``-``: stdout).

    A path under a missing directory is refused before the run; the output is
    opened only after the run succeeds, so a gate failure or a numerical
    breakdown leaves no file; one that cannot be written mid-run exits 1.
    Memory is bounded by the recorded points (8 * chains * records * p bytes)
    plus, in each writer process, one block of about ``_CSV_ROWS`` values (one
    row if p is larger), not by the CSV text.
    """
    _check_output(args.out)
    target = parse_target(args.target)
    entropy = parse_entropy(args.entropy, dim=target.dim)
    schedule = constant_schedule(args.h) if args.h is not None else parse_schedule(args.schedule)
    x0 = parse_numbers(args.x0) if args.x0 else None
    trace = run_parallel_chains(
        entropy, target, schedule, x0, args.steps, args.seed, args.chains,
        record_every=args.thin, burn_in=args.burn_in, override_gate=args.override_gate,
    )
    with _output(args.out) as fh:
        _write_trace_csv(fh, trace)
    rejections = int(trace.rejections.sum())
    print(f"sampled {args.chains} chain(s) x {args.steps} steps, {rejections} rejections",
          file=sys.stderr)
    return 0


def _load_cloud(path) -> np.ndarray:
    text = _read_input(path)
    # One float64 per value, and every value but the first follows a separator.
    check_allocation(8 * (text.count(",") + text.count("\n") + 1), f"loading {path}",
                     "load a smaller cloud")
    try:
        with warnings.catch_warnings():
            # An empty cloud is reported below as an error, not as a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(io.StringIO(text), delimiter=",", comments="#", ndmin=2)
    except ValueError as err:
        raise InvalidParameters(f"{path}: {err}") from err
    if data.size == 0:
        raise InvalidParameters(f"{path} holds no points")
    return data


def _cmd_distance(args) -> int:
    _check_output(args.out)
    a = _load_cloud(args.a)
    b = _load_cloud(args.b)
    entropy = parse_entropy(args.entropy, dim=a.shape[1])
    est = metrics.w2phi(entropy, a, b, method=args.method, seed=args.seed)
    payload = {
        "value": est.value,
        "method": est.method,
        "n_points": est.n_points,
        "aux": est.aux,
    }
    with _output(args.out) as fh:
        fh.write(_json_text(payload))
    if fh is not sys.stdout:
        print(_fmt(est.value))
    return 0


def _cmd_check(args) -> int:
    _check_output(args.out)
    target = parse_target(args.target)
    entropy = parse_entropy(args.entropy, dim=target.dim)
    report = analysis.estimate_constants(
        entropy, target, n_pairs=args.pairs, seed=args.seed, r_method=args.r_method
    )
    with _output(args.out) as fh:
        fh.write(_json_text(report.to_dict()))
    status = "admissible" if report.admissible else "NOT admissible"
    print(
        f"{entropy.name} / {target.name}: kappa_tilde={_fmt(report.kappa_tilde)} "
        f"({status}); warnings: {len(report.warnings)}",
        file=sys.stderr,
    )
    for w in report.warnings:
        print(f"  warning: {w}", file=sys.stderr)
    return 0


def _cmd_bound(args) -> int:
    _check_output(args.out)
    try:
        saved = json.loads(_read_input(args.report))
    except json.JSONDecodeError as err:
        raise InvalidParameters(f"{args.report} is not a JSON report: {err}") from err
    report = analysis.AssumptionReport.from_dict(saved)
    bound = analysis.bound_report(report, h=args.h, p=args.p, w0=args.w0)
    payload = bound.to_dict()
    if args.eps is not None:
        complexity = analysis.iteration_complexity(report, p=args.p, eps=args.eps)
        payload["k_eps"] = complexity.k_eps
        payload["k_eps_value"] = complexity.value
        payload["k_eps_formula"] = complexity.formula
        payload["k_eps_variants"] = complexity.variants
    with _output(args.out) as fh:
        fh.write(_json_text(payload))
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_text(_read_input(args.config))
    out = args.out or config.out
    _check_output(out)
    result = run_convergence_experiment(config)
    with _output(out) as fh:
        fh.write(result.to_csv())
    print(
        f"rho={_fmt(result.rho)} floor={_fmt(result.floor)} "
        f"W0_hat={_fmt(result.w0_hat)} rejections={result.total_rejections}",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig.from_text(_read_input(args.config))
    out = args.out or config.out
    _check_output(out)
    dims = parse_numbers(args.dims, int) if args.dims else None
    result = run_dimension_sweep(config, dims)
    with _output(out) as fh:
        fh.write(result.to_csv())
    print(f"loglog_slope={_fmt(result.slope)}", file=sys.stderr)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1 (invalid input); 2 is the gate's code.

    Subparsers are built with the parent's class, so they inherit this.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hrlmc",
        description="Hessian Riemannian Langevin Monte Carlo sampling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="run HRLMC chains and write a trace CSV")
    sp.add_argument("--entropy", required=True)
    sp.add_argument("--target", required=True)
    step = sp.add_mutually_exclusive_group(required=True)
    step.add_argument("--h", type=float, help="constant step size")
    step.add_argument("--schedule", help="e.g. harmonic:a=0.3")
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--chains", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--burn-in", type=int, default=0)
    sp.add_argument("--thin", type=int, default=1)
    sp.add_argument("--x0", default=None,
                    help="comma-separated start point (default: the entropy's interior point)")
    sp.add_argument("--out", default="-")
    sp.add_argument("--override-gate", action="store_true")
    sp.set_defaults(func=_cmd_sample)

    dp = sub.add_parser("distance", help="mirror W2 distance between two cloud CSVs")
    dp.add_argument("--entropy", required=True)
    dp.add_argument("--a", required=True)
    dp.add_argument("--b", required=True)
    dp.add_argument("--method", default="auto",
                    choices=["auto", "exact-1d", "assignment", "sliced"])
    dp.add_argument("--seed", type=int, default=0)
    dp.add_argument("--out", default="-")
    dp.set_defaults(func=_cmd_distance)

    cp = sub.add_parser("check", help="estimate assumption constants")
    cp.add_argument("--entropy", required=True)
    cp.add_argument("--target", required=True)
    cp.add_argument("--pairs", type=int, default=10_000)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--r-method", default="auto",
                    choices=["auto", "declared", "quadrature", "monte-carlo"])
    cp.add_argument("--out", default="-")
    cp.set_defaults(func=_cmd_check)

    bp = sub.add_parser("bound", help="contraction bound from a saved report")
    bp.add_argument("--report", required=True)
    bp.add_argument("--h", type=float, required=True)
    bp.add_argument("--p", type=int, required=True)
    bp.add_argument("--w0", type=float, default=None)
    bp.add_argument("--eps", type=float, default=None,
                    help="also evaluate the iteration-complexity formulas")
    bp.add_argument("--out", default="-")
    bp.set_defaults(func=_cmd_bound)

    ep = sub.add_parser("experiment", help="distance-vs-iteration trace from a config")
    ep.add_argument("--config", required=True)
    ep.add_argument("--out", default=None)
    ep.set_defaults(func=_cmd_experiment)

    wp = sub.add_parser("sweep", help="plateau-vs-dimension sweep from a config")
    wp.add_argument("--config", required=True)
    wp.add_argument("--dims", default=None, help="comma-separated dimensions")
    wp.add_argument("--out", default=None)
    wp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _GATE_ERRORS as err:
        print(f"assumption gate: {err}", file=sys.stderr)
        return 2
    except _BREAKDOWN_ERRORS as err:
        print(f"numerical breakdown: {err}", file=sys.stderr)
        return 3
    except HrlmcError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
