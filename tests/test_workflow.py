"""What the CI workflow pins, checked without running it.

Every ``-k`` term of every step selects a test: a renamed test would
otherwise drop out of the step that names it without any failure.  Each
step's files are collected once, and a term selects the test ids that
contain it, case aside, as ``pytest -k`` matches a name.

The seed-0 output digests that the benchmark smoke step pins are those of
the outputs built here from the benchmark's own inputs, hashed as the
benchmark hashes them.  The sweep's digest is left to the CI step: its run
takes seconds, and ``test_sweep_csv_is_pinned`` pins a smaller sweep.
"""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hrlmc import cli, experiments

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no CI workflow")
def test_every_k_term_of_the_workflow_selects_a_test():
    steps = re.findall(r'-m pytest ([^\n]*?) -k "([^"]*)"', WORKFLOW.read_text())
    assert steps
    unmatched = []
    for args, expression in steps:
        files = [arg for arg in args.split() if arg.endswith(".py")]
        terms = re.split(r"\s+or\s+", expression.strip())
        assert files and all(re.fullmatch(r"\w+", term) for term in terms), expression
        collected = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
             *files],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True,
            text=True, timeout=300, check=True,
        )
        ids = [line.lower() for line in collected.stdout.splitlines() if "::" in line]
        unmatched += [(files, term) for term in terms if not any(term.lower() in i for i in ids)]
    assert unmatched == []


def _bench_workloads():
    """``bench/workloads.py``, loaded without putting ``bench`` on ``sys.path``."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not WORKFLOW.exists(), reason="no CI workflow")
@pytest.mark.parametrize("name", ["converge", "sample", "mixed"])
def test_seed_0_outputs_have_the_digests_the_workflow_pins(name, tmp_path):
    pins = dict(re.findall(r"(\w+)\) want=(sha256:[0-9a-f]{64})", WORKFLOW.read_text()))
    assert set(pins) == {"sweep", "converge", "sample", "mixed"}
    inputs = _bench_workloads().inputs(name, 0, str(tmp_path / "out.csv"))
    if "config" in inputs:
        config = experiments.ExperimentConfig.from_text(inputs["config"])
        output = experiments.run_convergence_experiment(config).to_csv().encode()
    else:
        assert cli.main(inputs["argv"]) == 0
        output = (tmp_path / "out.csv").read_bytes()
    assert "sha256:" + hashlib.sha256(output).hexdigest() == pins[name]
