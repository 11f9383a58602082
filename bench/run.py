"""hrlmc benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process (``child.py``), one after
another; only one child runs at a time and it is limited to one BLAS thread.
With ``--trace 0`` the run reports, per workload:

    wall_s       median time of one workload call, over the calls that fit
                 in --seconds (at least one)
    setup_s      median, over fresh processes started before and after the
                 measuring one, of the time to import numpy, scipy and hrlmc
                 and parse the workload's inputs
    peak_rss_mb  peak resident set of the measuring child process

Both times are rescaled to reference machine speed: each is multiplied by
``calibration.REFERENCE_S`` over the time a fixed reference kernel took next
to it, because a shared host runs the same code up to ~1.5x slower for
minutes at a time.  The measured times are printed and recorded as well,
and error_rate = failed / attempted on its own line.  With ``--trace 1`` it
reports the per-layer metrics of ``tracing.LAYER_METRICS`` instead, and the
tracing overhead.  Every result also records the machine, library versions,
BLAS thread settings, the hrlmc source digest and the sha256 of each
workload's output.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; full records go to
``.bench_out/`` in the checkout.  Exit code 0 unless the benchmark itself
cannot run (a failed workload is reported, not fatal).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep", "converge", "sample", "mixed")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# Set-up-only processes started before and after the measuring child, which
# is one more sample; spreading them over the run evens out slow spells.
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 170.0


def _read(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _l3_cache() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (_read(index / "level") or "").strip() == "3":
            return (_read(index / "size") or "").strip() or None
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hrlmc").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return "sha256:" + h.hexdigest()


def environment(child_env: dict) -> dict:
    """The machine and settings a number was measured under."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor() or None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": _l3_cache(),
        "python": platform.python_version(),
        "thread_settings": {k: child_env.get(k) for k in THREAD_VARS},
        "hrlmc_commit": _git_commit(),
        "hrlmc_source": _source_digest(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # child.py puts this checkout's src first
    return env


def run_child(env, workload, seed, seconds, trace, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(env, workload, seed, seconds, trace) -> dict:
    """One run of one workload: its metrics, checks and full record."""
    def setup_probes():
        return [run_child(env, workload, seed, seconds, trace, setup_only=True)
                for _ in range(0 if trace else SETUP_PROBES)]

    before = setup_probes()
    rec = run_child(env, workload, seed, seconds, trace)
    probes = [*before, rec, *setup_probes()]
    rec["setup_samples"] = [p["setup_s"] for p in probes]
    rec["setup_scaled_samples"] = [p["setup_scaled_s"] for p in probes]
    rec["setup_calibrations"] = [p["calibration"] for p in probes]
    if trace:
        metrics = rec["layers"]
    else:
        metrics = {
            "wall_s": statistics.median(rec["walls_scaled"]),
            "setup_s": statistics.median(rec["setup_scaled_samples"]),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        rec["raw"] = {"wall_s": statistics.median(rec["walls"]),
                      "setup_s": statistics.median(rec["setup_samples"])}
    rec.update(workload=workload, seed=seed, trace=trace, metrics=metrics,
               failed=len(rec["failures"]))
    return rec


def _layer_table(trace: int):
    """(name, unit, what it moves) of every metric the run reports."""
    if not trace:
        return [(name, unit, None) for name, unit in END_TO_END]
    sys.path.insert(0, str(HERE))
    from tracing import LAYER_METRICS

    return [(name, unit, moves) for name, unit, _, moves in LAYER_METRICS]


def report(rec, table):
    """Human-readable lines for one workload run."""
    w, seed = rec["workload"], rec["seed"]
    print(f"[{w} seed={seed}] environment {json.dumps(rec['environment'])}")
    for name, unit, moves in table:
        print(f"[{w}] {name} = {rec['metrics'][name]:.6g} {unit}"
              + (f"   (moves {moves})" if moves else ""))
    if rec["trace"]:
        same = "==" if rec["traced_digest"] == rec["digest"] else "!="
        print(f"[{w}] traced output {same} untraced output; spans in {rec['spans_file']}")
        for name in rec["probes_missing"]:
            print(f"[{w}] probe not found in this version: {name}")
    else:
        raw = rec["raw"]
        print(f"[{w}] wall_s is the median of {len(rec['walls'])} calls and setup_s of "
              f"{len(rec['setup_samples'])} processes, at reference speed; measured "
              f"wall_s = {raw['wall_s']:.6g} s, setup_s = {raw['setup_s']:.6g} s")
    print(f"[{w}] error_rate = {rec['failed'] / rec['attempted']:.6g} fraction "
          f"({rec['failed']} of {rec['attempted']} calls failed)")
    for failure in rec["failures"]:
        print(f"[{w}] FAILED: {failure.strip()}")
    print(f"[{w} seed={seed}] output digest {rec['digest']}")
    for key, value in rec["statistics"].items():
        print(f"[{w}] {key} = {value} (seed-dependent, not gated)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "hrlmc" / "__init__.py").is_file():
        print(f"no hrlmc sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = child_env()
    env_record = environment(env)
    table = _layer_table(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in names:
        rec = run_workload(env, w, args.seed, args.seconds, args.trace)
        rec["environment"] = env_record | rec.pop("versions")
        (OUT / f"result-{w}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(rec, indent=1) + "\n"
        )
        report(rec, table)
        results.append(rec)

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + name: {"value": r["metrics"][name], "unit": unit}
        for r in results for name, unit, _ in table
    }
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
