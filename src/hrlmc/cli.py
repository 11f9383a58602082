"""Command-line interface.

Subcommands: sample, distance, check, bound, experiment, sweep.  All
randomness flows from --seed / config seeds; re-running any command with the
same arguments writes byte-identical output.  Exit codes: 0 success, 1
invalid input or out of memory, 2 assumption-gate failure, 3 numerical
breakdown.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import os
import stat
import sys
import warnings

import numpy as np

from . import analysis, metrics
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
    parse_numbers,
)
from .experiments import ExperimentConfig, _fmt, run_convergence_experiment, run_dimension_sweep
from .sampler import constant_schedule, parse_schedule, run_parallel_chains
from .target import parse_target

_GATE_ERRORS = (InadmissibleStepSize, InadmissibleRegime, StepOutOfWindow, EpsOutOfRange)
_BREAKDOWN_ERRORS = (NumericalBreakdown, Divergent)
_CSV_ROWS = 65536  # trace rows formatted and written per block


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


def _output(path):
    """The output stream as a context manager: stdout for None, ``""`` or ``"-"``, else ``path``.

    A file that cannot be opened for writing is invalid input.
    """
    if _is_stdout(path):
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as err:
        raise _cannot_write(path, err) from err


def _read_input(path) -> str:
    """The text of an input file; one that cannot be read is invalid input."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as err:
        raise InvalidParameters(f"cannot read {path}: {err.strerror or err}") from err


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_trace_csv(fh, trace):
    """Write the ``chain,step,h,x_1..x_p`` trace, ``_CSV_ROWS`` rows per write.

    Every chain of one run shares its recorded steps and step sizes, so each
    row is a template ``step,h,%.17g,...`` built once for all chains, and a
    chain's block of rows is one ``%`` over its coordinates.  ``"%.17g" %`` is
    the same conversion as ``format(v, ".17g")``, so the bytes match ``_fmt``,
    including ``inf``, ``nan`` and ``-0``.
    """
    p = trace.points.shape[2]
    fh.write("chain,step,h," + ",".join(f"x_{j + 1}" for j in range(p)) + "\n")
    coords = ",".join(["%.17g"] * p) + "\n"
    # k is an int and _fmt(h) the digits of a float, so the only "%" in a
    # template are its p conversions.
    rows = [f"{k},{_fmt(h)},{coords}"
            for k, h in zip(trace.steps.tolist(), trace.step_sizes.tolist())]
    starts = range(0, len(rows), _CSV_ROWS)
    blocks = [["", *rows[start:start + _CSV_ROWS]] for start in starts]
    for c, points in enumerate(trace.points):
        for start, block in zip(starts, blocks):
            values = points[start:start + _CSV_ROWS].ravel().tolist()
            fh.write(f"{c},".join(block) % tuple(values))


def _cmd_sample(args) -> int:
    """Run the chains, then stream their trace CSV to ``--out`` (``-``: stdout).

    A path under a missing directory is refused before the run; the output is
    opened only after the run succeeds, so a gate failure or a numerical
    breakdown leaves no file.  Memory is bounded by the recorded
    points (8 * chains * records * p bytes), not by the CSV text.
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
