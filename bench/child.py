"""One workload run in a fresh process, started by ``run.py``.

Set-up time counts from the first statement of this file: the imports of
numpy, scipy and hrlmc, then parsing the workload's entropy, target, schedule
and config.  With ``--setup-only`` the process stops there.  Otherwise it
times whole workload calls until ``--seconds`` of calls have run (at least
one), checks the first output and requires every later one to be
byte-identical to it.  Set-up and call times are also reported rescaled to
reference machine speed (``calibration.py``), with the reference kernel
timed only between calls.  Peak RSS is read right after the first call,
before the benchmark reads or checks the output.  With ``--trace 1`` each
untraced call is paired with a traced one, in alternating order, and the
per-layer metrics come from the traced calls' spans.  The last stdout line
is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports numpy, scipy and hrlmc)


def _timed(job):
    """(seconds, result or None, error text or None) of one workload call."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = job.call()
    except Exception:  # a failed operation is counted, not fatal
        result, error = None, traceback.format_exc(limit=3)
    else:
        error = None
    return time.perf_counter() - start, result, error


class Run:
    """Outcome bookkeeping: the first good output is checked in full and
    becomes the reference every later output must equal byte for byte."""

    def __init__(self, job):
        self.job = job
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = None
        self.statistics = {}
        self.output_size = (0, 0)
        self.peak_rss_mb = None

    def record(self, result, error):
        if self.peak_rss_mb is None:
            # Before the first output is read or checked, so that the
            # benchmark's own copies of it do not count.
            self.peak_rss_mb = peak_rss_mb()
        self.attempted += 1
        if error is not None:
            self.failures.append(error)
            return
        digest = self.job.digest(result)
        if self.digest is None:
            problems = self.job.check(result)
            self.failures.extend(problems)
            self.digest = digest
            self.statistics = self.job.statistics(result)
            self.output_size = self.job.output_size(result)
        elif digest != self.digest:
            self.failures.append(f"output {digest} differs from the first {self.digest}")


def versions():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def peak_rss_mb():
    """Peak RSS of this process or any worker it waited for, in MiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def measure(job, seconds):
    """Workload calls, each rescaled by the mean of the kernel times just
    before and just after it."""
    import calibration

    run, walls, scaled, cals = Run(job), [], [], []
    before = calibration.calibrate()
    while not walls or sum(walls) < seconds:
        wall, result, error = _timed(job)
        after = calibration.calibrate()
        cal = (before + after) / 2.0
        walls.append(wall)
        cals.append(cal)
        scaled.append(calibration.rescale(wall, cal))
        run.record(result, error)
        before = after
    return run, {"walls": walls, "calibrations": cals, "walls_scaled": scaled}


def measure_traced(job, seconds, tracer, spans_path, meta):
    import tracing

    run, walls, traced_walls, layers = Run(job), [], [], []
    traced_digest = None
    while not walls or sum(walls) + sum(traced_walls) < seconds:
        i = len(walls)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                wall, result, error = _timed(job)
                walls.append(wall)
                run.record(result, error)
                continue
            tracer.trace_id = i
            before = len(tracer.start)
            with tracing.installed(tracer):
                wall, result, error = _timed(job)
            traced_walls.append(wall)
            run.attempted += 1
            if error is not None:
                run.failures.append("traced call: " + error)
                continue
            digest = job.digest(result)
            if traced_digest is None:
                traced_digest = digest
            elif digest != traced_digest:
                run.failures.append("traced outputs differ between calls")
            rows, size = job.output_size(result)
            layers.append(tracing.layer_metrics(
                tracer.totals(i), tracer.counters[i], len(tracer.start) - before, rows, size,
            ))
    if traced_digest != run.digest:
        run.failures.append(f"traced output {traced_digest} != untraced {run.digest}")
    tracer.save(spans_path, **meta)
    layers = layers or [tracing.layer_metrics({}, {}, 0)]
    # median_low: each value comes from one traced call, so counts stay whole.
    metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
    untraced, traced = statistics.median(walls), statistics.median(traced_walls)
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return run, {"walls": walls, "traced_walls": traced_walls, "traced_digest": traced_digest,
                 "layers": metrics, "probes_missing": sorted(tracer.missing)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    workloads.checkout_check(ROOT)
    out_dir = Path(args.out_dir)
    workdir = out_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job = workloads.prepare(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        import calibration

        cal = calibration.calibrate()
        record = {"setup_s": setup_s, "calibration": cal,
                  "setup_scaled_s": calibration.rescale(setup_s, cal)}
        if not args.setup_only:
            if args.trace:
                import tracing

                spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
                run, extra = measure_traced(
                    job, args.seconds, tracing.Tracer(), spans,
                    {"workload": args.workload, "seed": args.seed},
                )
                extra["spans_file"] = str(spans)
            else:
                run, extra = measure(job, args.seconds)
            record.update(extra)
            record.update(
                attempted=run.attempted,
                failures=run.failures,
                digest=run.digest,
                statistics=run.statistics,
                output_rows=run.output_size[0],
                output_bytes=run.output_size[1],
                peak_rss_mb=run.peak_rss_mb,
                versions=versions(),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
