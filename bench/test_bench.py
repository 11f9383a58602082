"""Tests of the benchmark's own logic: ``python3 -m pytest bench -q``."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import calibration
import child  # puts this checkout's src first on sys.path
import run
import tracing
import workloads

import hrlmc
from hrlmc import entropy, experiments, metrics, sampler, target

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_config(seed, dims=""):
    return (
        "entropy = burg\ntarget = gamma:a=5;b=1\nschedule = constant:h=0.05\n"
        f"steps = 12\nchains = 48\nx0 = 0.5\ncheckpoints = 0,6,12\nreference_seeds = 3\n"
        f"plateau_window = 2\ndims = {dims}\nbase_seed = {seed}\n"
    )


def test_self_time_on_hand_built_span_tree():
    # a[0, 10] -> b[1, 4]
    #          -> b[5, 9] -> a[6, 7]   (a nested in itself through b)
    groups = ["a", "b"]
    group = [0, 1, 1, 0]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    totals = tracing.span_totals(groups, group, parent, start, end)
    assert totals["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0 + 1.0}
    assert totals["b"] == {"calls": 2, "busy_s": 7.0, "self_s": 3.0 + 3.0}
    # Self times of all groups add up to the root's wall time.
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_tracer_spans_match_call_nesting():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: None, "leaf")
    outer = tracer.wrap(lambda: [leaf(), leaf()], "outer")
    outer()
    group, parent, start, end = tracer.arrays()
    assert [tracer.groups[g] for g in group] == ["outer", "leaf", "leaf"]
    assert list(parent) == [-1, 0, 0]
    assert np.all(end >= start)


def _patched_attributes():
    return {
        "sampler.run_parallel_chains": sampler.run_parallel_chains,
        "experiments.run_parallel_chains": experiments.run_parallel_chains,
        "hrlmc.run_parallel_chains": hrlmc.run_parallel_chains,
        "metrics._w2_assignment": metrics._w2_assignment,
        "Entropy.grad": vars(entropy.Entropy)["grad"],
        "BurgEntropy.contains": vars(entropy.BurgEntropy)["contains"],
        "MixedEntropy._grad_conjugate_unchecked":
            vars(entropy.MixedEntropy)["_grad_conjugate_unchecked"],
        "Target.sample_exact": vars(target.Target)["sample_exact"],
    }


def test_wrappers_restore_patched_attributes():
    before = _patched_attributes()
    with tracing.installed(tracing.Tracer()):
        during = _patched_attributes()
    assert all(during[k] is not before[k] for k in before)
    after = _patched_attributes()
    assert all(after[k] is before[k] for k in before)

    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer()):
            1 / 0
    after_error = _patched_attributes()
    assert all(after_error[k] is before[k] for k in before)


def test_missing_probe_is_listed_not_fatal():
    tracer = tracing.Tracer()
    gone = tracing.Probe("hrlmc.metrics", "_w2_removed", "metrics.removed")
    with tracing.installed(tracer, probes=(gone, *tracing.PROBES)):
        pass
    assert tracer.missing == {"hrlmc.metrics._w2_removed"}


def test_traced_run_changes_no_result():
    args = (entropy.burg(2), target.gamma_target([5.0, 5.0], [1.0, 1.0]),
            sampler.constant_schedule(0.2), [1.0, 1.0], 30, 5, 16)
    plain = sampler.run_parallel_chains(*args)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = sampler.run_parallel_chains(*args)
    for a, b in zip(plain, traced):
        assert np.array_equal(a.points, b.points) and a.rejections == b.rejections
    counters = tracer.counters[0]
    assert counters["sampler.chain_steps"] == 16 * 30
    assert counters["sampler.rejections"] == sum(tr.rejections for tr in plain)


def test_seed_changes_inputs_not_metric_names(tmp_path):
    for name in workloads.WORKLOADS:
        assert workloads.inputs(name, 1) != workloads.inputs(name, 2)
        assert workloads.inputs(name, 1) == workloads.inputs(name, 1)

    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for dims in ("", "1,2"):
        digests = set()
        for seed in (1, 2):
            job = workloads.Experiment(_tiny_config(seed, dims))
            r, extra = child.measure_traced(job, 0.0, tracing.Tracer(),
                                            tmp_path / f"spans{seed}.npz", {})
            assert r.failures == []
            assert set(extra["layers"]) == per_layer
            digests.add(r.digest)
        assert len(digests) == 2


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_sample_check_rejects_points_outside_the_domain(tmp_path):
    out = tmp_path / "s.csv"
    job = workloads.Sample(["sample", "--entropy", "burg", "--target", "gamma:a=5,b=1",
                            "--h", "0.05", "--chains", "2", "--steps", "4", "--seed", "3",
                            "--x0", "1.0", "--out", str(out)])
    assert job.check(job.call()) == []
    lines = out.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",-1.0"
    out.write_text("\n".join(lines) + "\n")
    assert job.check(0) == ["1 recorded points outside the entropy's domain"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "converge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _BusyJob:
    """A call that keeps a second process busy while the caller spins too."""

    def __init__(self):
        self.running = False
        self.order = []

    def call(self):
        self.running = True
        try:
            busy = subprocess.Popen([sys.executable, "-c", (
                "import time\nt = time.perf_counter()\n"
                "while time.perf_counter() - t < 0.6: pass"
            )])
            t = time.perf_counter()
            while time.perf_counter() - t < 0.1:
                pass
            busy.wait()
        finally:
            self.running = False
        return 0

    def digest(self, result):
        self.order.append("digest")
        return "sha256:0"

    def check(self, result):
        return []

    def statistics(self, result):
        return {}

    def output_size(self, result):
        return 0, 0


def test_kernel_is_timed_only_between_calls(monkeypatch):
    job = _BusyJob()
    kernel_times = iter([0.010, 0.020, 0.030])

    def calibrate():
        assert not job.running, "reference kernel timed while a call runs"
        return next(kernel_times)

    def kernel_time():
        raise AssertionError("reference kernel timed outside calibrate()")

    monkeypatch.setattr(calibration, "calibrate", calibrate)
    monkeypatch.setattr(calibration, "kernel_time", kernel_time)
    run_, extra = child.measure(job, 1.0)
    walls = extra["walls"]
    assert run_.failures == [] and len(walls) == 2 and min(walls) >= 0.6
    # Each call is rescaled by the kernel times just before and after it,
    # so the busy second process cannot shrink the rescaled wall time.
    assert extra["calibrations"] == pytest.approx([0.015, 0.025])
    assert extra["walls_scaled"] == pytest.approx(
        [walls[0] * calibration.REFERENCE_S / 0.015, walls[1] * calibration.REFERENCE_S / 0.025]
    )


def test_peak_rss_is_read_before_the_output_is(monkeypatch):
    job = _BusyJob()
    monkeypatch.setattr(child, "peak_rss_mb", lambda: job.order.append("rss") or 1.0)
    run_ = child.Run(job)
    run_.record(0, None)
    run_.record(0, None)
    assert job.order == ["rss", "digest", "digest"]
    assert run_.peak_rss_mb == 1.0


def test_setup_window_imports_only_the_program():
    """Importing child.py (set-up ends inside main) loads no third-party
    module that the workloads and hrlmc do not load themselves."""
    def third_party(code):
        out = subprocess.run(
            [sys.executable, "-c", code + (
                "\nimport json, sys\nprint(json.dumps(sorted({m.split('.')[0] for m in "
                "sys.modules} - set(sys.stdlib_module_names))))"
            )],
            cwd=ROOT / "bench", capture_output=True, text=True, timeout=120, check=True,
        )
        return set(json.loads(out.stdout))

    program = third_party("import sys\nsys.path.insert(0, '../src')\nimport workloads")
    loaded = third_party("import child")
    assert "calibration" not in loaded and "tracing" not in loaded
    assert loaded - program == {"child"}
