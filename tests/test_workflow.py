"""The CI workflow's test selections: every ``-k`` term of every step selects a test.

A renamed test would otherwise drop out of the step that names it without
any failure.  Each step's files are collected once, and a term selects the
test ids that contain it, case aside, as ``pytest -k`` matches a name.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
